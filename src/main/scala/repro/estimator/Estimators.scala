package repro.estimator

import repro.crowd.{CrowdModel, ModelState}
import scala.collection.mutable

/** A time-evolving population estimator (Section 4): given a partition and a
  * grid step, returns the partition's (estimated) population over that unit
  * time interval. Derivations are memoized in the shared [[ModelState]], so
  * repeated lookups during one query are free and instrumented exactly once.
  */
trait PopulationEstimator {
  def state: ModelState
  def model: CrowdModel = state.model
  def name: String

  /** Population of partition v over grid interval g (g=0 is the latest
    * known population `P_{t_l}`).
    */
  def populationAt(v: Int, g: Int): Double
}

/** Algorithm 1 — PopulationGlobal. Advances the whole model one grid step at
  * a time: assign every edge its raw flow, rectify each partition's outflows
  * against its current population (Figure 4), then apply Eq. 6 to every
  * partition.
  *
  * @param flow raw flow of edge `ei` at step `g`: the expected flow (λ at
  *             report steps, else 0) for the estimator; the gold simulator
  *             passes its Poisson draws instead
  */
final class GlobalEstimator(val state: ModelState, flow: (Int, Int) => Double) extends PopulationEstimator {
  def this(state: ModelState) = this(state, state.model.expectedFlow)

  val name                = "global"
  private val space       = model.space
  private var derivedUpTo = 0

  /** Grid steps derived so far. */
  def derivedSteps: Int = derivedUpTo

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    ensure(g)
    state.getPopRaw(v, g)
  }

  private def prevPop(v: Int, g: Int): Double =
    if (g == 1) model.initialPop(v) else state.getPopRaw(v, g - 1)

  private def ensure(gTarget: Int): Unit =
    while (derivedUpTo < gTarget) {
      val g  = derivedUpTo + 1
      var ei = 0
      while (ei < model.edges.size) { state.putFlow(ei, g, flow(ei, g)); ei += 1 }
      var v = 0
      while (v < space.numPartitions) { state.rectifyOut(v, g, prevPop(v, g)); v += 1 }
      v = 0
      while (v < space.numPartitions) { state.applyEq6(v, g, prevPop(v, g)); v += 1 }
      derivedUpTo = g
    }
}

/** Algorithm 2 — PopulationLocal — and its Strategy-PP variant.
  *
  * Derives a single partition's population forward step by step. At each
  * step, the partition's own outflows are set from the flow functions and
  * rectified against its previous population; inflows are obtained by
  * recursively deriving each upstream partition's (rectified) outflows when
  * `exactUpstream` is true, or taken directly from the flow functions when
  * false (Strategy PP: "Population Derivation for Partial Partitions" — the
  * single-line change to Alg. 2's line 20 described in Section 5.2).
  *
  * All intermediate flows/populations are memoized in [[ModelState]], so
  * shared upstream work across lookups is never repeated.
  */
final class LocalEstimator(val state: ModelState, exactUpstream: Boolean) extends PopulationEstimator {
  val name          = if (exactUpstream) "local" else "pp"
  private val space = model.space
  // highest contiguously-derived step per partition — O(1) repeat lookups
  private val derivedUpTo = new Array[Int](space.numPartitions)

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    var gg = derivedUpTo(v) + 1
    while (gg <= g) {
      if (!state.hasPop(v, gg)) step(v, gg)
      gg += 1
    }
    if (g > derivedUpTo(v)) derivedUpTo(v) = g
    state.getPopRaw(v, g)
  }

  private def prevPop(v: Int, g: Int): Double =
    if (g == 1) model.initialPop(v) else populationAt(v, g - 1)

  /** Set from the flow functions the step-g flow of edge ei if not yet set. */
  private def ensureFlow(ei: Int, g: Int): Unit =
    if (!state.hasFlow(ei, g)) state.putFlow(ei, g, model.expectedFlow(ei, g))

  /** Set and rectify v's outflows at step g (idempotent). */
  private def ensureOut(v: Int, g: Int): Unit =
    if (state.markOutDone(v, g)) {
      val pPrev = prevPop(v, g)
      val outs  = space.outLinkIds(v)
      var i     = 0
      while (i < outs.length) { ensureFlow(outs(i), g); i += 1 }
      state.rectifyOut(v, g, pPrev)
    }

  private def step(v: Int, g: Int): Unit = {
    val pPrev = prevPop(v, g)
    ensureOut(v, g)
    val ins = space.inLinkIds(v)
    var i   = 0
    while (i < ins.length) {
      val ei = ins(i)
      if (exactUpstream) {
        if (!state.hasFlow(ei, g)) ensureOut(space.links(ei).from, g) // recursion into the upstream cone
      } else ensureFlow(ei, g) // Strategy PP
      i += 1
    }
    state.applyEq6(v, g, pPrev)
  }
}

/** Crowd-free estimator: every partition is empty, so ρ is a constant and
  * the search degenerates to a plain shortest-(distance) path. Used for
  * query-instance generation (the s2t control) and reduction tests.
  */
final class ZeroEstimator(val state: ModelState) extends PopulationEstimator {
  val name                                 = "zero"
  def populationAt(v: Int, g: Int): Double = 0.0
}

/** Freezes another estimator at a fixed grid step, making all edge weights
  * time-independent (snapshot mode) — used to cross-validate the Pregel
  * search against driver Dijkstra, where both are provably optimal.
  */
final class FrozenEstimator(inner: PopulationEstimator, gFixed: Int) extends PopulationEstimator {
  val name                                 = s"frozen@$gFixed"
  val state: ModelState                    = inner.state
  def populationAt(v: Int, g: Int): Double = inner.populationAt(v, gFixed)
}

/** Strategy NT — "Population Derivation at Necessary Timestamps" — layered
  * on top of Strategy PP as in the paper. If the std-dev σ of a partition's
  * historical flow differences is below η, its population at the arrival
  * step is extrapolated directly via Eq. 7; otherwise the PP derivation runs.
  */
final class NTEstimator(inner: LocalEstimator, eta: Double = 3.0) extends PopulationEstimator {
  val name                   = "nt"
  val state: ModelState      = inner.state
  private val cache          = mutable.HashMap.empty[(Int, Int), Double]

  def populationAt(v: Int, g: Int): Double =
    cache.getOrElseUpdate(
      (v, g), {
        val (mu, sigma) = model.historyStats(v)
        if (sigma < eta) {
          state.popDerivations += 1
          val est = model.initialPop(v) + mu * model.updateStepsBetween(v, 0, g)
          math.max(0.0, est)
        } else inner.populationAt(v, g)
      },
    )
}

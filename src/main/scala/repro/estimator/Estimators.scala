package repro.estimator

import repro.crowd.{CrowdModel, ModelState}

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
  * a time: draw every edge's raw flow, rectify each partition's outflows
  * against its current population (Figure 4), then apply Eq. 6 to every
  * partition.
  *
  * @param flow raw flow of edge `ei` at step `g`: the expected flow (λ at
  *             report steps, else 0) for the estimator; the gold simulator
  *             passes its Poisson draws instead. Drawn once per edge and
  *             step, in link order.
  */
final class GlobalEstimator(val state: ModelState, flow: (Int, Int) => Double) extends PopulationEstimator {
  def this(state: ModelState) = this(state, state.model.expectedFlow)

  val name                = "global"
  private val space       = model.space
  private val row         = new Array[Double](space.links.size) // step derivedUpTo's raw flows
  private val rowFlow     = (ei: Int, _: Int) => row(ei)
  private var derivedUpTo = 0

  /** Grid steps derived so far. */
  def derivedSteps: Int = derivedUpTo

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    ensure(g)
    state.pop(v, g)
  }

  private def ensure(gTarget: Int): Unit =
    while (derivedUpTo < gTarget) {
      val g  = derivedUpTo + 1
      var ei = 0
      while (ei < row.length) { row(ei) = flow(ei, g); ei += 1 }
      state.flowDerivations += row.length
      var v = 0
      while (v < space.numPartitions) { state.rectifyOut(v, g, state.pop(v, g - 1), rowFlow); v += 1 }
      v = 0
      while (v < space.numPartitions) { state.applyEq6(v, g, state.pop(v, g - 1), rowFlow); v += 1 }
      derivedUpTo = g
    }
}

/** Algorithm 2 — PopulationLocal — and its Strategy-PP variant.
  *
  * Derives a single partition's population forward step by step. At each
  * step, the partition's own outflows are rectified against its previous
  * population; inflows are the upstream partitions' rectified outflows,
  * derived recursively, when `exactUpstream` is true, or the flow functions'
  * expected flows when false (Strategy PP: "Population Derivation for
  * Partial Partitions" — the single-line change to Alg. 2's line 20
  * described in Section 5.2). Under PP an inflow is still scaled when its
  * upstream partition has already derived that step in this query.
  *
  * All intermediate populations and scales are memoized in [[ModelState]],
  * so shared upstream work across lookups is never repeated.
  */
final class LocalEstimator(val state: ModelState, exactUpstream: Boolean) extends PopulationEstimator {
  val name             = if (exactUpstream) "local" else "pp"
  private val space    = model.space
  private val expected: (Int, Int) => Double = model.expectedFlow

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    while (state.popTop(v) < g) step(v, state.popTop(v) + 1)
    state.pop(v, g)
  }

  /** Set and rectify v's outflows at step g: one flow write per outflow. */
  private def rectify(v: Int, g: Int, pPrev: Double): Unit = {
    state.flowDerivations += space.outLinkIds(v).length
    state.rectifyOut(v, g, pPrev, expected)
  }

  private def step(v: Int, g: Int): Unit = {
    val pPrev = state.pop(v, g - 1)
    val ins   = space.inLinkIds(v)
    var i     = 0
    if (exactUpstream) {
      if (!state.hasScale(v, g)) rectify(v, g, pPrev)
      while (i < ins.length) {
        val u = space.linkFrom(ins(i))
        if (!state.hasScale(u, g)) rectify(u, g, populationAt(u, g - 1)) // recursion into the upstream cone
        i += 1
      }
    } else { // Strategy PP: a flow already set by the partition at its other end is not set again
      val outs = space.outLinkIds(v)
      while (i < outs.length) { if (!state.hasPop(space.linkTo(outs(i)), g)) state.flowDerivations += 1; i += 1 }
      state.rectifyOut(v, g, pPrev, expected)
      i = 0
      while (i < ins.length) { if (!state.hasPop(space.linkFrom(ins(i)), g)) state.flowDerivations += 1; i += 1 }
    }
    state.applyEq6(v, g, pPrev, expected)
  }
}

/** Strategy NT — "Population Derivation at Necessary Timestamps" — layered
  * on top of Strategy PP as in the paper. If the std-dev σ of a partition's
  * historical flow differences is below η, its population at the arrival
  * step is extrapolated directly via Eq. 7; otherwise the PP derivation runs.
  */
final class NTEstimator(inner: LocalEstimator, eta: Double = 3.0) extends PopulationEstimator {
  val name              = "nt"
  val state: ModelState = inner.state
  private val n         = model.space.numPartitions
  // per partition: Eq. 7's history statistics, computed on first lookup
  private val known = new Array[Boolean](n)
  private val mu    = new Array[Double](n)
  private val sigma = new Array[Double](n)
  // per stable partition: extrapolated populations by step, NaN until looked up
  private val extrapolated = new Array[Array[Double]](n)

  def populationAt(v: Int, g: Int): Double = {
    if (!known(v)) {
      val (m, s) = model.historyStats(v)
      mu(v) = m; sigma(v) = s; known(v) = true
    }
    if (sigma(v) < eta) extrapolate(v, g) else inner.populationAt(v, g)
  }

  private def extrapolate(v: Int, g: Int): Double = {
    val col = ModelState.grown(extrapolated(v), g, empty = Double.NaN)
    extrapolated(v) = col
    if (col(g).isNaN) {
      state.popDerivations += 1
      col(g) = math.max(0.0, model.initialPop(v) + mu(v) * model.updateStepsBetween(v, 0, g))
    }
    col(g)
  }
}

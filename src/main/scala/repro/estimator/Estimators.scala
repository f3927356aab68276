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
  * a time: rectify each partition's outflows against its current population
  * (Figure 4), then apply Eq. 6 to every partition. A step's flows are λ
  * times the step's report vector; the gold simulator instead passes `draw`,
  * which fills a row with the step's raw flows (its Poisson draws, in link
  * order), read against a vector of ones.
  */
final class GlobalEstimator private[repro] (val state: ModelState, draw: (Int, Array[Double]) => Unit)
    extends PopulationEstimator {
  def this(state: ModelState) = this(state, null)

  val name                = "global"
  private val space       = model.space
  private val w           = if (draw == null) model.rates else new Array[Double](space.links.size)
  private val on          = Array.fill(model.numPeriods)(1.0)
  private var derivedUpTo = 0

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    ensure(g)
    state.pop(v, g)
  }

  private def ensure(gTarget: Int): Unit =
    while (derivedUpTo < gTarget) {
      val g = derivedUpTo + 1
      if (draw == null) model.reportInto(g, on) else draw(g, w)
      state.flowDerivations += w.length
      var v = 0
      while (v < space.numPartitions) { state.rectifyOut(v, g, state.pop(v, g - 1), w, on); v += 1 }
      v = 0
      while (v < space.numPartitions) { state.applyEq6(v, g, state.pop(v, g - 1), w, on); v += 1 }
      derivedUpTo = g
    }
}

/** Algorithm 2 — PopulationLocal — and its Strategy-PP variant.
  *
  * Exact (`exactUpstream`): a lookup (v, G) past v's derived steps derives
  * v's upstream cone with a [[ConeSweep]] — the same set of populations and
  * scales that Alg. 2's recursion derives, step by step. Strategy PP
  * ("Population Derivation for Partial Partitions" — the single-line change
  * to Alg. 2's line 20 described in Section 5.2) derives v alone forward,
  * taking its inflows as expected flows; an inflow is still scaled when its
  * upstream partition has already derived that step in this query.
  *
  * All intermediate populations and scales are memoized in [[ModelState]],
  * so shared upstream work across lookups is never repeated.
  */
final class LocalEstimator(val state: ModelState, exactUpstream: Boolean) extends PopulationEstimator {
  val name          = if (exactUpstream) "local" else "pp"
  private val space = model.space
  private val on    = new Array[Double](model.numPeriods) // the report vector of the step being derived
  private val cone  = if (exactUpstream) new ConeSweep(state, on) else null

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    if (state.popTop(v) < g) {
      if (exactUpstream) cone.derive(v, g)
      else while (state.popTop(v) < g) ppStep(v, state.popTop(v) + 1)
    }
    state.pop(v, g)
  }

  // a flow already set by the partition at its other end is not set again
  private def ppStep(v: Int, g: Int): Unit = {
    model.reportInto(g, on)
    val pPrev = state.pop(v, g - 1)
    val outs  = space.outLinkIds(v)
    var i     = 0
    while (i < outs.length) { if (!state.hasPop(space.linkTo(outs(i)), g)) state.flowDerivations += 1; i += 1 }
    state.rectifyOut(v, g, pPrev, model.rates, on)
    val ins = space.inLinkIds(v)
    i = 0
    while (i < ins.length) { if (!state.hasPop(space.linkFrom(ins(i)), g)) state.flowDerivations += 1; i += 1 }
    state.applyEq6(v, g, pPrev, model.rates, on)
  }
}

/** Exact Alg. 2 as a sweep over the upstream cone of a lookup (v, G).
  *
  * Alg. 2's recursion derives, for the root, its populations and scales up
  * to G; a partition derived up to population step N makes each in-neighbour
  * u derive its population up to N − 1 and its scale up to N. The recursion
  * keeps `scaleTop(u) ≥ popTop(x)` and `popTop(u) ≥ popTop(x) − 1` on every
  * link u → x, so a BFS over in-links that skips u when `scaleTop(u) ≥ N`,
  * and expands u only when u lacks a population step it needs, collects
  * exactly the steps the recursion derives: BFS depth k gives the largest
  * need, N = G − k. The sweep then derives them in step order, every
  * Figure-4 rectification of step g before any Eq. 6 update of step g, so
  * tops, values and derivation counts equal the recursion's. Only the root
  * needs its population as far as its scale; the sweep ends at G anyway, so
  * every partition is kept until step `needPop + 1`.
  */
private final class ConeSweep(state: ModelState, on: Array[Double]) {
  private val model = state.model
  private val space = model.space
  private val n     = space.numPartitions

  private var lookup  = 0
  private val seen    = new Array[Int](n) // == lookup: in this lookup's cone
  private val needPop = new Array[Int](n) // and the scale up to needPop + 1
  private val cone    = new Array[Int](n) // BFS order
  private val byStart = new Array[Int](n)
  private val active  = new Array[Int](n)
  private var buckets = new Array[Int](34)

  def derive(root: Int, gTarget: Int): Unit = {
    lookup += 1
    val size = collect(root, gTarget)
    var g    = sortByStart(size, gTarget)
    // sweep: partitions join at their first step and leave after their last one
    var next    = 0
    var nActive = 0
    while (g <= gTarget) {
      while (next < size && state.popTop(byStart(next)) + 1 == g) {
        active(nActive) = byStart(next)
        nActive += 1
        next += 1
      }
      model.reportInto(g, on)
      var i = 0
      while (i < nActive) {
        val u = active(i)
        if (!state.hasScale(u, g)) {
          state.flowDerivations += space.outLinkIds(u).length // one flow write per outflow
          state.rectifyOut(u, g, state.pop(u, g - 1), model.rates, on)
        }
        i += 1
      }
      var kept = 0
      i = 0
      while (i < nActive) {
        val u = active(i)
        if (g <= needPop(u)) {
          state.applyEq6(u, g, state.pop(u, g - 1), model.rates, on)
          active(kept) = u
          kept += 1
        }
        i += 1
      }
      nActive = kept
      g += 1
    }
  }

  // counting sort of the cone into `byStart` by first step, popTop + 1; returns the lowest
  private def sortByStart(size: Int, gTarget: Int): Int = {
    var gMin = gTarget
    var i    = 0
    while (i < size) { gMin = math.min(gMin, state.popTop(cone(i)) + 1); i += 1 }
    val range = gTarget - gMin + 1
    if (buckets.length < range + 1) buckets = new Array[Int](2 * range + 1)
    java.util.Arrays.fill(buckets, 0, range + 1, 0)
    i = 0
    while (i < size) { buckets(state.popTop(cone(i)) + 2 - gMin) += 1; i += 1 }
    i = 1
    while (i <= range) { buckets(i) += buckets(i - 1); i += 1 }
    i = 0
    while (i < size) {
      val b = state.popTop(cone(i)) + 1 - gMin
      byStart(buckets(b)) = cone(i)
      buckets(b) += 1
      i += 1
    }
    gMin
  }

  // BFS over in-links from the root; returns the cone's size
  private def collect(root: Int, gTarget: Int): Int = {
    seen(root) = lookup
    needPop(root) = gTarget
    cone(0) = root
    var size = 1
    var head = 0
    while (head < size) {
      val x  = cone(head)
      val nx = needPop(x)
      head += 1
      if (state.popTop(x) < nx) {
        val ins = space.inLinkIds(x)
        var i   = 0
        while (i < ins.length) {
          val u = space.linkFrom(ins(i))
          if (seen(u) != lookup && state.scaleTop(u) < nx) {
            seen(u) = lookup
            needPop(u) = nx - 1
            cone(size) = u
            size += 1
          }
          i += 1
        }
      }
    }
    size
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

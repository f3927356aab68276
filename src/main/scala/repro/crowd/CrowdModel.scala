package repro.crowd

import repro.indoor.{CrowdType, IndoorSpace}
import scala.collection.mutable
import scala.util.Random

/** Identifies one directed crowd-model edge e(v_i, v_j, d_k). */
final case class EdgeKey(from: Int, to: Int, door: Int)

/** The indoor crowd model G(V, E, L_V, L_E) of Section 3.
  *
  * Vertices are the partitions of [[IndoorSpace]]; edges are its directed
  * [[repro.indoor.DoorLink]]s. Vertex labels (area, d2d matrix, crowd type)
  * live on the space; this class adds the crowd-evolution labels: one Poisson
  * rate λ per edge, per-door report periods, the latest known populations at
  * time `t0`, and per-partition historical net-flow samples (used by
  * Strategy NT and for λ fitting).
  *
  * Time is discretized on the update grid: all door counters are aligned at
  * `t0` and report every `n_d · ti` seconds, so the merged update-timestamp
  * sequence `UT_G` is `t0 + g·ti` for g = 0,1,2,… Populations are recorded
  * per grid step: step g holds the population over `[t0+g·ti, t0+(g+1)·ti)`.
  *
  * @param reportEvery per-door report period in *grid steps* (the paper's
  *                    `n` with period `n·TI`)
  * @param historyNet  per-partition recent samples of (inflow − outflow) per
  *                    update interval, newest last — `UT_past` of Strategy NT
  */
final class CrowdModel(
    val space: IndoorSpace,
    val lambda: Map[EdgeKey, Double],
    val reportEvery: IndexedSeq[Int],
    val ti: Int,
    val t0: Double,
    val initialPop: IndexedSeq[Double],
    val historyNet: IndexedSeq[Vector[Double]],
    val speed: Double = 1.2,
    val bufferW: Double = 1.0,
    val beta: Double = 1.0,
    /** Shift of this model's grid origin relative to the doors' aligned
      * report phase — nonzero for re-synchronized models (adaptive baseline),
      * so report timestamps stay globally consistent.
      */
    val gridOffset: Int = 0,
) extends Serializable {
  require(reportEvery.size == space.numDoors)
  require(initialPop.size == space.numPartitions)
  require(historyNet.size == space.numPartitions)
  require(lambda.valuesIterator.forall(finiteNonNegative), "every λ must be finite and ≥ 0")
  require(reportEvery.forall(_ >= 1), "every report period must be ≥ 1 grid step")
  require(ti > 0, s"grid step ti must be > 0, got $ti")
  require(initialPop.forall(finiteNonNegative), "every initial population must be finite and ≥ 0")

  private def finiteNonNegative(x: Double): Boolean = x >= 0 && x < Double.PositiveInfinity

  /** The edges in `space.links` order: an edge's index is its link index. */
  val edges: Vector[EdgeKey] = space.links.map(l => EdgeKey(l.from, l.to, l.door)).toVector

  private val rates: Array[Double] = edges.iterator.map(lambda.getOrElse(_, 0.0)).toArray

  /** λ of edge `ei` (0 if the model has no rate for it). */
  def rate(ei: Int): Double = rates(ei)

  /** t_c ∈ RT(d_k)? — whether door `d` reports at grid step `g`. Step 0 is
    * the aligned initial report of every counter; flows are applied from
    * step 1 on (the step-0 populations are the known `P_{t_l}`).
    */
  def doorReportsAt(d: Int, g: Int): Boolean = (g + gridOffset) % reportEvery(d) == 0

  /** A re-synchronized copy: populations observed at global grid step
    * `gNow` become the new latest-known populations and the grid origin
    * moves to that instant (report phases preserved via [[gridOffset]]).
    */
  def withObservation(observedPop: IndexedSeq[Double], gNow: Int): CrowdModel =
    new CrowdModel(space, lambda, reportEvery, ti, gridTime(gNow), observedPop, historyNet,
      speed, bufferW, beta, gridOffset + gNow)

  /** Expected flow on edge `ei` at grid step `g` (0 between reports). */
  def expectedFlow(ei: Int, g: Int): Double =
    if (doorReportsAt(space.links(ei).door, g)) rates(ei) else 0.0

  /** Grid step whose unit interval covers absolute time `t` (≥ t0). */
  def gridStep(t: Double): Int = math.max(0, ((t - t0) / ti).toInt)

  /** Absolute time of grid step `g`. */
  def gridTime(g: Int): Double = t0 + g.toDouble * ti

  def area(v: Int): Double     = space.partitions(v).area
  def capacity(v: Int): Double = area(v) * beta
  def tau(v: Int): CrowdType   = space.partitions(v).tau

  /** Number of update timestamps of partition v in grid steps (gFrom, gTo]
    * — `|{t ∈ UT(v_k) | t_l < t ≤ t^a}|` of Eq. 7. UT(v) is the union of
    * v's doors' report timestamps, in the same phase as [[doorReportsAt]].
    */
  def updateStepsBetween(v: Int, gFrom: Int, gTo: Int): Int = {
    val periods = space.allDoors(v).map(reportEvery)
    ((gFrom + 1 + gridOffset) to (gTo + gridOffset)).count(g => periods.exists(p => g % p == 0))
  }

  /** Mean and std-dev of v's historical flow differences (Strategy NT). */
  def historyStats(v: Int): (Double, Double) = {
    val h = historyNet(v)
    if (h.isEmpty) (0.0, Double.PositiveInfinity)
    else {
      val mu  = h.sum / h.size
      val sig = math.sqrt(h.map(x => (x - mu) * (x - mu)).sum / h.size)
      (mu, sig)
    }
  }
}

object CrowdModel {

  /** Build a crowd model for a space with paper-style synthetic parameters:
    * λ ~ U(0, 3) with hallway/stair doors drawn hotter than room doors,
    * report periods n·TI with n ~ U{1..5}, initial populations U(0, |o|)
    * capped by capacity, and `histLen` historical net-flow samples per
    * partition drawn from the same Poisson rates.
    *
    * @param objScale the paper's |o| parameter
    */
  def synthetic(
      space: IndoorSpace,
      objScale: Int = 900,
      ti: Int = 10,
      seed: Long = 1L,
      histLen: Int = 20,
      lambdaMax: Double = 3.0,
  ): CrowdModel = {
    val rng = new Random(seed)
    val isHallway: Int => Boolean = v => {
      val p = space.partitions(v)
      p.isStairway || p.rect.area > 0 && p.rect.height <= 30 // corridor cells are the short rows
    }
    val lam = space.links.map { l =>
      val hot = isHallway(l.from) && isHallway(l.to)
      if (hot) 1.0 + rng.nextDouble() * (lambdaMax - 1.0) else rng.nextDouble() * 1.2
    }
    val lambda      = space.links.iterator.zip(lam).map { case (l, x) => EdgeKey(l.from, l.to, l.door) -> x }.toMap
    val reportEvery = IndexedSeq.fill(space.numDoors)(1 + rng.nextInt(5))
    val initialPop = (0 until space.numPartitions).map { v =>
      math.min(rng.nextDouble() * objScale, space.partitions(v).area * 1.0)
    }
    // historical net flows: seeded Poisson draws of each partition's in/out rates
    val inRate  = (0 until space.numPartitions).map(v => space.inLinkIds(v).map(lam).sum)
    val outRate = (0 until space.numPartitions).map(v => space.outLinkIds(v).map(lam).sum)
    val historyNet = (0 until space.numPartitions).map { v =>
      Vector.fill(histLen)(
        DoorFlow.samplePoisson(inRate(v), rng).toDouble - DoorFlow.samplePoisson(outRate(v), rng).toDouble
      )
    }
    new CrowdModel(space, lambda, reportEvery, ti, t0 = 0.0, initialPop, historyNet)
  }
}

/** Mutable per-query evolution state: the local flow arrays `F[t]` of the
  * edge labels plus the derived population records, with instrumentation
  * counters that the experiment harness converts into the paper's memory
  * metric. One instance per query run; the underlying [[CrowdModel]] is
  * immutable and shared.
  *
  * Storage is `LongMap`-backed with packed (id, step) keys — this state is
  * the hot path of every estimator, so boxing-free lookups matter. Edges are
  * addressed by their index in `model.edges`.
  */
final class ModelState(val model: CrowdModel) {
  private val space = model.space
  /** Packed key: id in the high bits, grid step (< 2^20) in the low. */
  @inline private def key(id: Int, g: Int): Long = (id.toLong << 20) | g.toLong

  /** F[e][g]: rectified flow of edge e at grid step g. */
  private val flowMap = mutable.LongMap.empty[Double]
  /** P[v][g]: population of partition v over grid interval g. */
  private val popMap = mutable.LongMap.empty[Double]
  /** Guard: partition v's outflows at step g are set and rectified. */
  private val outDoneSet = mutable.LongMap.empty[Boolean]

  var popDerivations: Long  = 0
  var flowDerivations: Long = 0

  def hasFlow(ei: Int, g: Int): Boolean         = flowMap.contains(key(ei, g))
  def getFlowRaw(ei: Int, g: Int): Double       = flowMap(key(ei, g))
  def getFlow(ei: Int, g: Int): Option[Double]  = flowMap.get(key(ei, g))
  def putFlow(ei: Int, g: Int, value: Double): Unit = {
    flowMap(key(ei, g)) = value
    flowDerivations += 1
  }

  def hasPop(v: Int, g: Int): Boolean   = popMap.contains(key(v, g))
  def getPopRaw(v: Int, g: Int): Double = popMap(key(v, g))
  def getPop(v: Int, g: Int): Option[Double] = popMap.get(key(v, g))
  def putPop(v: Int, g: Int, value: Double): Unit = {
    popMap(key(v, g)) = value
    popDerivations += 1
  }

  /** Marks (v, g) outflow-rectified; returns true on first marking. */
  def markOutDone(v: Int, g: Int): Boolean = {
    val k = key(v, g)
    if (outDoneSet.contains(k)) false
    else { outDoneSet(k) = true; true }
  }

  /** Figure 4 for partition v at step g: scales v's outflows, all already
    * set, down to its previous population `pPrev` when they exceed it.
    */
  def rectifyOut(v: Int, g: Int, pPrev: Double): Unit = {
    val outs = space.outLinkIds(v)
    val s    = ModelState.scale(pPrev, sumFlows(outs, g))
    if (s != 1.0) {
      var i = 0
      while (i < outs.length) { putFlow(outs(i), g, getFlowRaw(outs(i), g) * s); i += 1 }
    }
  }

  /** Eq. 6 for partition v at step g from its rectified out- and inflows. */
  def applyEq6(v: Int, g: Int, pPrev: Double): Unit =
    putPop(v, g, ModelState.next(pPrev, sumFlows(space.outLinkIds(v), g), sumFlows(space.inLinkIds(v), g)))

  // summed in link order, so every path adds the same floats in the same order
  private def sumFlows(ids: Array[Int], g: Int): Double = {
    var sum = 0.0
    var i   = 0
    while (i < ids.length) { sum += getFlowRaw(ids(i), g); i += 1 }
    sum
  }
}

/** The population step of Section 4, shared by every estimator, the gold
  * simulator and the GraphX dataflow.
  */
object ModelState {

  /** Figure 4: the factor that scales a partition's outflows `outSum` down
    * to its population `pop` (1 when they fit).
    */
  def scale(pop: Double, outSum: Double): Double =
    if (outSum > pop && outSum > 0) pop / outSum else 1.0

  /** Eq. 6: next population from the previous one and the rectified
    * out- and inflows, clamped at 0.
    */
  def next(pop: Double, out: Double, in: Double): Double = math.max(0.0, pop - out + in)
}

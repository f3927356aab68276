package repro.crowd

import repro.indoor.{CrowdType, IndoorSpace}
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
final class CrowdModel private (
    val space: IndoorSpace,
    val lambda: Map[EdgeKey, Double],
    val reportEvery: IndexedSeq[Int],
    val ti: Int,
    val t0: Double,
    val initialPop: IndexedSeq[Double],
    val historyNet: IndexedSeq[Vector[Double]],
    val speed: Double,
    val bufferW: Double,
    val beta: Double,
    /** Shift of this model's grid origin relative to the doors' aligned
      * report phase — nonzero for re-synchronized models (adaptive baseline),
      * so report timestamps stay globally consistent.
      */
    val gridOffset: Int,
    parent: CrowdModel, // a re-synchronized copy shares its parent's checked edge arrays
) extends Serializable {
  def this(
      space: IndoorSpace,
      lambda: Map[EdgeKey, Double],
      reportEvery: IndexedSeq[Int],
      ti: Int,
      t0: Double,
      initialPop: IndexedSeq[Double],
      historyNet: IndexedSeq[Vector[Double]],
      speed: Double = 1.2,
      bufferW: Double = 1.0,
      beta: Double = 1.0,
      gridOffset: Int = 0,
  ) = this(space, lambda, reportEvery, ti, t0, initialPop, historyNet, speed, bufferW, beta, gridOffset, null)

  require(initialPop.size == space.numPartitions)
  require(initialPop.forall(finiteNonNegative), "every initial population must be finite and ≥ 0")
  if (parent == null) {
    require(reportEvery.size == space.numDoors)
    require(historyNet.size == space.numPartitions)
    require(lambda.valuesIterator.forall(finiteNonNegative), "every λ must be finite and ≥ 0")
    require(reportEvery.forall(_ >= 1), "every report period must be ≥ 1 grid step")
    require(ti > 0, s"grid step ti must be > 0, got $ti")
  }

  private def finiteNonNegative(x: Double): Boolean = x >= 0 && x < Double.PositiveInfinity

  /** The edges in `space.links` order: an edge's index is its link index. */
  val edges: Vector[EdgeKey] =
    if (parent != null) parent.edges else space.links.map(l => EdgeKey(l.from, l.to, l.door)).toVector

  // by edge index: λ, and which of the distinct report `periods` the edge's door reports with
  private[repro] val rates: Array[Double] = if (parent != null) parent.rates else new Array[Double](edges.size)
  private[crowd] val periodOf: Array[Int] = if (parent != null) parent.periodOf else new Array[Int](edges.size)
  private val periods: Array[Int]         = if (parent != null) parent.periods else fillEdgeArrays()

  // fills `rates` and `periodOf`; returns the distinct periods in order of first use
  private def fillEdgeArrays(): Array[Int] = {
    val found = new Array[Int](reportEvery.size)
    var k     = 0
    var ei    = 0
    while (ei < edges.size) {
      val e = edges(ei)
      rates(ei) = lambda.getOrElse(e, 0.0)
      val p = reportEvery(e.door)
      var j = 0
      while (j < k && found(j) != p) j += 1
      if (j == k) { found(k) = p; k += 1 }
      periodOf(ei) = j
      ei += 1
    }
    java.util.Arrays.copyOf(found, k)
  }

  /** Length of a report vector: the number of distinct report periods. */
  private[repro] def numPeriods: Int = periods.length

  /** Step g's report vector: `on(k)` is 1.0 when doors of the k-th distinct
    * period report at step g, else 0.0. Edge `ei` then carries the expected
    * flow `rates(ei) · on(periodOf(ei))`; one `%` per period, not per edge.
    */
  private[repro] def reportInto(g: Int, on: Array[Double]): Unit = {
    var k = 0
    while (k < periods.length) { on(k) = if ((g + gridOffset) % periods(k) == 0) 1.0 else 0.0; k += 1 }
  }

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
      speed, bufferW, beta, gridOffset + gNow, this)

  /** Expected flow on edge `ei` at grid step `g` (0 between reports). */
  def expectedFlow(ei: Int, g: Int): Double =
    if ((g + gridOffset) % periods(periodOf(ei)) == 0) rates(ei) else 0.0

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
    val periods = space.allDoors(v).iterator.map(reportEvery).toArray
    val lo      = gFrom + 1 + gridOffset
    val n       = gTo + gridOffset - lo + 1 // global steps lo until lo + n
    def count(from: Int, until: Int): Int = {
      var c = 0
      var g = from
      while (g < until) {
        var i = 0
        while (i < periods.length && g % periods(i) != 0) i += 1
        if (i < periods.length) c += 1
        g += 1
      }
      c
    }
    // UT(v) repeats with the lcm L of the periods: count whole runs of L, then the rest
    var lcm = 1L
    periods.foreach(p => if (lcm <= n) lcm = lcm / gcd(lcm, p) * p)
    if (lcm > n) count(lo, lo + n)
    else {
      val l    = lcm.toInt
      val runs = n / l
      runs * count(lo, lo + l) + count(lo + runs * l, lo + n)
    }
  }

  @annotation.tailrec private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)

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

/** Mutable per-query evolution state: for every partition, a dense column
  * of derived populations P(v, g) and one of Figure 4's outflow scales
  * s(v, g), with instrumentation counters that the experiment harness
  * converts into the paper's memory metric. One instance per query run; the
  * underlying [[CrowdModel]] is immutable and shared.
  *
  * The rectified flows `F[t]` of the edge labels are not stored: edge `ei`
  * leaving partition `u` carries `raw(ei, g) · s(u, g)` at step g, and
  * [[applyEq6]] recomputes that product where Eq. 6 sums it. The raw flow is
  * read as `w(ei) · on(period(ei))`: the estimators pass λ and step g's
  * report vector ([[CrowdModel.reportInto]]), the gold simulator its drawn
  * row and a vector of ones. For finite λ ≥ 0, `λ · 1.0 == λ` and
  * `λ · 0.0 == +0.0`, so this is the expected flow bit for bit.
  *
  * Every estimator derives a partition's steps in order, so each column is
  * a prefix: step g is derived iff g ≤ the column's top. A column is
  * allocated on its first write and grows by doubling.
  */
final class ModelState(val model: CrowdModel) {
  private val space    = model.space
  private val n        = space.numPartitions
  private val periodOf = model.periodOf

  // column v holds steps 1..top(v) at their own index; slot 0 of a population column is P_{t_l}
  private val pops      = new Array[Array[Double]](n)
  private val popTops   = new Array[Int](n)
  private val scales    = new Array[Array[Double]](n)
  private val scaleTops = new Array[Int](n)

  var popDerivations: Long  = 0
  var flowDerivations: Long = 0

  /** Highest grid step whose population of v is derived (0: only `P_{t_l}`). */
  def popTop(v: Int): Int               = popTops(v)
  /** Highest grid step whose outflow scale of v is recorded (0: none). */
  def scaleTop(v: Int): Int             = scaleTops(v)
  def hasPop(v: Int, g: Int): Boolean   = g <= popTops(v)
  def hasScale(v: Int, g: Int): Boolean = g <= scaleTops(v)

  /** Population of partition v over a derived grid interval g ≥ 0. */
  def pop(v: Int, g: Int): Double = {
    if (g > popTops(v)) throw new IllegalArgumentException(s"population of $v at step $g is not derived")
    val col = pops(v)
    if (col == null) model.initialPop(v) else col(g)
  }

  /** The rectified flow Eq. 6 reads for edge `ei` at step g: the expected
    * flow, scaled by its source's step-g factor once that is known.
    */
  def flow(ei: Int, g: Int): Double = model.expectedFlow(ei, g) * scaleOrOne(space.linkFrom(ei), g)

  private def scaleOrOne(u: Int, g: Int): Double = if (g <= scaleTops(u)) scales(u)(g) else 1.0

  /** Figure 4 for partition v at its next step g: records the factor s(v, g)
    * that scales v's raw outflows `w(ei) · on(period(ei))` down to its
    * previous population `pPrev` when they exceed it.
    */
  def rectifyOut(v: Int, g: Int, pPrev: Double, w: Array[Double], on: Array[Double]): Unit = {
    val outs = space.outLinkIds(v)
    var sum  = 0.0
    var i    = 0
    while (i < outs.length) { val e = outs(i); sum += w(e) * on(periodOf(e)); i += 1 }
    val s = ModelState.scale(pPrev, sum)
    if (s != 1.0) flowDerivations += outs.length // each outflow is rewritten
    if (g != scaleTops(v) + 1) outOfOrder("scale", v, g)
    scales(v) = ModelState.grown(scales(v), g)
    scales(v)(g) = s
    scaleTops(v) = g
  }

  /** Eq. 6 for partition v at its next step g: its outflows scaled by
    * s(v, g), each inflow by its source's s(u, g) when u has rectified step g
    * (1 otherwise), each flow scaled before it is added, in link order.
    */
  def applyEq6(v: Int, g: Int, pPrev: Double, w: Array[Double], on: Array[Double]): Unit = {
    if (g != popTops(v) + 1 || g > scaleTops(v)) outOfOrder("population", v, g)
    val outs = space.outLinkIds(v)
    val s    = scales(v)(g)
    var out  = 0.0
    var i    = 0
    while (i < outs.length) { val e = outs(i); out += w(e) * on(periodOf(e)) * s; i += 1 }
    val ins = space.inLinkIds(v)
    var in  = 0.0
    i = 0
    while (i < ins.length) {
      val e = ins(i)
      in += w(e) * on(periodOf(e)) * scaleOrOne(space.linkFrom(e), g)
      i += 1
    }
    val col = ModelState.grown(pops(v), g)
    if (g == 1) col(0) = model.initialPop(v)
    col(g) = ModelState.next(pPrev, out, in)
    pops(v) = col
    popTops(v) = g
    popDerivations += 1
  }

  // a population needs its step's scale first; both columns are appended to in step order
  private def outOfOrder(what: String, v: Int, g: Int): Nothing =
    throw new IllegalStateException(s"$what of partition $v at step $g written out of order")
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

  private val InitialSteps = 32

  /** A per-step column with room for index g: `col` itself when it has it,
    * else a copy at least twice as long (a fresh one for null) whose new
    * slots hold `empty`.
    */
  private[repro] def grown(col: Array[Double], g: Int, empty: Double = 0.0): Array[Double] =
    if (col != null && g < col.length) col
    else {
      val old = if (col == null) Array.emptyDoubleArray else col
      val out = java.util.Arrays.copyOf(old, math.max(math.max(InitialSteps, 2 * old.length), g + 1))
      if (empty != 0.0) java.util.Arrays.fill(out, old.length, out.length, empty)
      out
    }
}

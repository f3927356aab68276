package repro.core

import repro.crowd.{CrowdModel, ModelState}
import repro.estimator.PopulationEstimator
import repro.indoor.Point

/** Unified crowd-aware path search — Algorithm 3 (Search) + Algorithm 4
  * (Expand). Handles both FPQ and LCPQ via the [[Cost]] ordering, and any
  * population-derivation strategy via the injected [[PopulationEstimator]]
  * (exact local = `*PQ`, exact global = `*PQ-G`, PP = `*PQ-PP`, NT =
  * `*PQ-NT`).
  *
  * Search nodes are doors plus the two virtual endpoints, settled by the
  * shared [[LabelSetting]] core. Each label carries the partition entered
  * through its door (Alg. 3 line 13) so the next expansion knows which
  * partition to traverse. Populations are derived lazily: a segment's cost
  * at arrival time `t^a` reads the population over the grid interval
  * covering `t^a`, and the estimator derives (and memoizes) everything that
  * lookup needs — this is Alg. 3 lines 15–18.
  */
object Search {

  sealed trait Node
  case object Src                 extends Node
  case object Tgt                 extends Node
  final case class D(door: Int)   extends Node

  /** Per-query instrumentation. `memKB` is the paper's memory metric,
    * modeled from counted derivation events × per-entry byte sizes:
    * population derivations, flow writes (a flow set or rescaled; flows are
    * recomputed, not retained), queue pushes and settled doors. It counts
    * work done, not records retained at query end — see DESIGN.md §5.5.
    */
  final case class Stats(
      millis: Double,
      popDerivations: Long,
      flowDerivations: Long,
      pushes: Long,
      queuePeak: Int,
      settled: Int,
  ) {
    def memKB: Double =
      (popDerivations * 24.0 + flowDerivations * 48.0 + pushes * 72.0 + settled * 16.0) / 1024.0
    def +(o: Stats): Stats = Stats(
      millis + o.millis, popDerivations + o.popDerivations, flowDerivations + o.flowDerivations,
      pushes + o.pushes, math.max(queuePeak, o.queuePeak), settled + o.settled)
  }

  final case class Result(path: Vector[Node], cost: Cost, found: Boolean, stats: Stats) {
    /** Door id sequence, for path-equality (hit-rate) comparison. */
    def doorSeq: Vector[Int] = path.collect { case D(d) => d }
  }

  /** Run the search from an indoor point. `maxGrid` caps how far populations
    * are derived (the horizon); `tq` is the query time (absolute, ≥ model.t0).
    */
  def run(
      estimator: PopulationEstimator,
      ps: Point,
      pt: Point,
      tq: Double,
      qt: QueryType,
      maxGrid: Int = 5000,
  ): Result = runFrom(estimator, Left(ps), pt, tq, qt, maxGrid)

  /** Run the search from either an indoor point (Left) or a door the walker
    * currently stands at together with the partition just entered (Right) —
    * the latter is what the adaptive baseline re-plans from at every node.
    */
  def runFrom(
      estimator: PopulationEstimator,
      start: Either[Point, (Int, Int)],
      pt: Point,
      tq: Double,
      qt: QueryType,
      maxGrid: Int = 5000,
  ): Result = {
    val t0ns            = System.nanoTime()
    val model: CrowdModel = estimator.model
    val state: ModelState = estimator.state
    val space           = model.space
    val ls              = new LabelSetting[Cost](space.numDoors)(Cost.ordering(qt))

    val hostT = space.host(pt)
    // For a door start, hostS is unused; -1 marks "not a point start".
    val hostS = start.fold(space.host, _ => -1)

    def segCost(vk: Int, dist: Double, arrivalG: Int): Option[Cost] = segmentCost(estimator, vk, dist, arrivalG)

    start match {
      case Left(_)            => ls.push(ls.src, Cost.Zero, ls.src, hostS)
      case Right((door, vIn)) => ls.push(door, Cost.Zero, ls.src, vIn)
    }
    val reached = ls.run { s =>
      val arrivalG = math.min(maxGrid, model.gridStep(tq + s.cost.time))
      if (s.node == ls.src) {
        val ps = start.swap.getOrElse(sys.error("Src label without a point start"))
        if (hostS == hostT)
          segCost(hostS, ps.dist(pt), arrivalG).foreach(c => ls.push(ls.tgt, c, ls.src, hostT))
        space.leaveDoors(hostS).foreach { dj =>
          segCost(hostS, space.pointToDoor(ps, dj), arrivalG)
            .foreach(c => ls.push(dj, c, ls.src, space.enteredVia(hostS, dj)))
        }
      } else {
        val (di, v) = (s.node, s.aux)
        // Alg. 3 lines 19–20: expansion towards p_t when d_i can enter its host
        if (space.enterDoors(hostT).contains(di))
          segCost(hostT, space.doors(di).pos.dist(pt), arrivalG)
            .foreach(c => ls.push(ls.tgt, s.cost + c, di, hostT))
        // Alg. 3 lines 21–22: every unvisited leaveable door of v
        space.leaveDoors(v).foreach { dj =>
          if (!ls.isSettled(dj))
            segCost(v, space.doorDist(v, di, dj), arrivalG)
              .foreach(c => ls.push(dj, s.cost + c, di, space.enteredVia(v, dj)))
        }
      }
    }
    val stats = Stats((System.nanoTime() - t0ns) / 1e6, state.popDerivations, state.flowDerivations,
      ls.pushes, ls.queuePeak, ls.settled)
    result(ls, reached, stats)
  }

  /** Cost of a segment of length `dist` through partition `vk` entered at
    * grid step `g`; None for an untraversable (infinite) segment.
    */
  private[core] def segmentCost(estimator: PopulationEstimator, vk: Int, dist: Double, g: Int): Option[Cost] =
    if (!dist.isFinite) None
    else Some(CostFunctions.segmentCost(estimator.model, vk, dist, estimator.populationAt(vk, g)))

  /** The search's answer: the path through `ls` to Tgt when it was reached. */
  private[core] def result(ls: LabelSetting[Cost], reached: Option[LabelSetting.Label[Cost]], stats: Stats): Result =
    reached match {
      case Some(t) =>
        val path = ls.path(ls.tgt).map(n => if (n == ls.src) Src else if (n == ls.tgt) Tgt else D(n))
        Result(path, t.cost, found = true, stats)
      case None =>
        Result(Vector.empty, Cost(Double.PositiveInfinity, Double.PositiveInfinity, Double.PositiveInfinity), found = false, stats)
    }
}

package repro.core

import repro.crowd.{CrowdModel, ModelState}
import repro.estimator.LocalEstimator
import repro.indoor.Point
import repro.sim.CrowdSim
import scala.collection.mutable

/** Baseline `*PQ-A`: the adaptive method. The walker re-plans the optimal
  * route at every reached node, with the crowd model re-synchronized to the
  * populations actually observed at that moment (from the simulated world),
  * then commits only the first hop; the hop's realized cost comes from the
  * actual populations. Running time and memory are summed over all
  * re-plannings, as in the paper ("the running time of FPQ-A is the sum of
  * that at all nodes in a path").
  */
object Adaptive {

  def run(
      model: CrowdModel,
      sim: CrowdSim,
      ps: Point,
      pt: Point,
      tq: Double,
      qt: QueryType,
      maxGrid: Int = 5000,
      maxHops: Int = 2000,
  ): Search.Result = {
    val space = model.space
    val hostT = space.host(pt)

    var start: Either[Point, (Int, Int)] = Left(ps)
    val path                             = mutable.ListBuffer[Search.Node](Search.Src)
    var total                            = Cost.Zero
    var tNow                             = tq
    var statsAcc                         = Search.Stats(0, 0, 0, 0, 0, 0)
    var hops                             = 0
    var done                             = false
    var failed                           = false

    while (!done && !failed && hops < maxHops) {
      hops += 1
      val gNow     = model.gridStep(tNow)
      val obsModel = model.withObservation(sim.snapshot(gNow), gNow)
      // re-planning at every node must stay cheap (the paper's A sits between
      // NT and PP in cost); Strategy-PP derivation per re-plan achieves that
      val est = new LocalEstimator(new ModelState(obsModel), exactUpstream = false)
      val res      = Search.runFrom(est, start, pt, tNow, qt, maxGrid)
      statsAcc = statsAcc + res.stats
      // for a door start, path(1) is the start door itself — the first hop
      // is the element after it
      val hopIdx = if (start.isLeft) 1 else 2
      if (!res.found || res.path.size <= hopIdx) failed = true
      else {
        val n1 = res.path(hopIdx)
        // reconstruct the hop's partition and length exactly as Search costs it
        val (vk, dist, nextStart) = (start, n1) match {
          case (Left(p), Search.Tgt) =>
            (space.host(p), p.dist(pt), start)
          case (Left(p), Search.D(d)) =>
            val h = space.host(p)
            (h, space.pointToDoor(p, d), Right((d, space.enteredVia(h, d))): Either[Point, (Int, Int)])
          case (Right((dCur, _)), Search.Tgt) =>
            (hostT, space.doors(dCur).pos.dist(pt), start)
          case (Right((dCur, vIn)), Search.D(d2)) =>
            (vIn, space.doorDist(vIn, dCur, d2), Right((d2, space.enteredVia(vIn, d2))): Either[Point, (Int, Int)])
          case (_, Search.Src) => sys.error("search returned Src as successor")
        }
        val realized = CostFunctions.segmentCost(model, vk, dist, sim.populationAt(vk, gNow))
        total = total + realized
        tNow += realized.time
        path += n1
        start = nextStart
        if (n1 == Search.Tgt) done = true
      }
    }
    if (done) Search.Result(path.toVector, total, found = true, statsAcc)
    else
      Search.Result(Vector.empty,
        Cost(Double.PositiveInfinity, Double.PositiveInfinity, Double.PositiveInfinity),
        found = false, statsAcc)
  }
}

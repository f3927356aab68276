package repro.core

import repro.estimator.PopulationEstimator
import repro.indoor.Point

/** Baseline `*PQ-GTG`: search over a *general time-dependent graph* where
  * doors are vertices and every intra-partition door-to-door hop is an edge
  * (Section 6.1.1, Appendix A). All doors are treated as bidirectional
  * (GTG cannot express door directionality), so for each partition with k
  * doors there are k·(k−1) directed edges — far more than the crowd model's
  * per-door edges, which is exactly why this baseline is slow.
  *
  * As in the paper, it is Dijkstra without precomputation (the adjacency is
  * materialized per query, and that cost is part of the measured time) and
  * uses the same exact population estimator, so its *results* match the
  * exact searches.
  */
object Gtg {

  def run(
      estimator: PopulationEstimator,
      ps: Point,
      pt: Point,
      tq: Double,
      qt: QueryType,
      maxGrid: Int = 5000,
  ): Search.Result = {
    val t0ns  = System.nanoTime()
    val model = estimator.model
    val space = model.space

    // Materialize the GTG adjacency: door -> (nextDoor, viaPartition, dist).
    val adj = Array.fill(space.numDoors)(Vector.empty[(Int, Int, Double)])
    var gtgEdges = 0L
    for (v <- 0 until space.numPartitions) {
      val ds = space.allDoors(v)
      for (di <- ds; dj <- ds if di != dj) {
        val dist = space.doorDist(v, di, dj)
        if (dist.isFinite) { adj(di) :+= ((dj, v, dist)); gtgEdges += 1 }
      }
    }

    val hostS = space.host(ps)
    val hostT = space.host(pt)

    def seg(vk: Int, dist: Double, g: Int): Option[Cost] = Search.segmentCost(estimator, vk, dist, g)

    // A label carries the partition crossed to reach its node: the next edge
    // must not cross it again (one does not U-turn mid-partition), matching
    // the crowd-model search's "enterable partition minus previous partition".
    val ls = new LabelSetting[Cost](space.numDoors)(Cost.ordering(qt))
    ls.push(ls.src, Cost.Zero, ls.src, -1)
    val reached = ls.run { s =>
      val g = math.min(maxGrid, model.gridStep(tq + s.cost.time))
      if (s.node == ls.src) {
        if (hostS == hostT)
          seg(hostS, ps.dist(pt), g).foreach(c => ls.push(ls.tgt, c, ls.src, hostS))
        space.allDoors(hostS).foreach { dj =>
          seg(hostS, space.pointToDoor(ps, dj), g).foreach(c => ls.push(dj, c, ls.src, hostS))
        }
      } else {
        val di = s.node
        if (space.allDoors(hostT).contains(di))
          seg(hostT, space.doors(di).pos.dist(pt), g).foreach(c => ls.push(ls.tgt, s.cost + c, di, hostT))
        adj(di).foreach { case (dj, v, dist) =>
          if (v != s.aux && !ls.isSettled(dj))
            seg(v, dist, g).foreach(c => ls.push(dj, s.cost + c, di, v))
        }
      }
    }
    // the materialized GTG adjacency is retained for the whole query —
    // charge it to the memory metric alongside the labels
    val stats = Search.Stats((System.nanoTime() - t0ns) / 1e6, estimator.state.popDerivations,
      estimator.state.flowDerivations, ls.pushes + gtgEdges / 3, ls.queuePeak, ls.settled)
    Search.result(ls, reached, stats)
  }
}

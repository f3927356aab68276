package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, ModelState}
import repro.estimator._
import repro.exp.Instances
import repro.indoor.{IndoorSpace, Point, SynthFloorplan}
import repro.sim.{CrowdSim, SimOracleEstimator}
import repro.testutil.TestModels

/** Independent re-computation of a returned path's cost, mirroring the
  * search's expansion and time-alignment rules — catches cost-accounting
  * bugs in the search itself.
  */
object PathReplayer {
  def replay(est: PopulationEstimator, ps: Point, pt: Point, tq: Double,
             doorSeq: Vector[Int], maxGrid: Int = 3000): Cost = {
    val model = est.model
    val space = model.space
    var cost  = Cost.Zero
    var curPart = space.host(ps)
    val hostT   = space.host(pt)
    def g(): Int = math.min(maxGrid, model.gridStep(tq + cost.time))
    if (doorSeq.isEmpty) {
      require(curPart == hostT)
      return CostFunctions.segmentCost(model, curPart, ps.dist(pt), est.populationAt(curPart, g()))
    }
    // first leg: ps -> first door through host(ps)
    cost = cost + CostFunctions.segmentCost(model, curPart, space.pointToDoor(ps, doorSeq.head),
      est.populationAt(curPart, g()))
    var entered = space.linksFrom((curPart, doorSeq.head)).map(_.to).min
    // middle legs
    doorSeq.sliding(2).foreach {
      case Vector(d1, d2) =>
        val v = entered
        cost = cost + CostFunctions.segmentCost(model, v, space.doorDist(v, d1, d2),
          est.populationAt(v, g()))
        entered = space.linksFrom((v, d2)).map(_.to).filter(_ != v) match {
          case Seq()   => space.linksFrom((v, d2)).map(_.to).min
          case nonSelf => nonSelf.min
        }
      case _ => ()
    }
    // last leg: last door -> pt through host(pt)
    cost + CostFunctions.segmentCost(model, hostT, space.doors(doorSeq.last).pos.dist(pt),
      est.populationAt(hostT, g()))
  }

  /** Structural validity: consecutive doors share a traversable partition,
    * the first door leaves host(ps), the last door enters host(pt).
    */
  def valid(space: IndoorSpace, ps: Point, pt: Point, doorSeq: Vector[Int]): Boolean = {
    if (doorSeq.isEmpty) space.host(ps) == space.host(pt)
    else {
      space.leaveDoors(space.host(ps)).contains(doorSeq.head) &&
      space.enterDoors(space.host(pt)).contains(doorSeq.last) &&
      doorSeq.sliding(2).forall {
        case Vector(d1, d2) => TestModels.d2d(space, d1, d2).isFinite
        case _              => true
      }
    }
  }
}

/** Exhaustive enumeration of door paths under the search's expansion rules,
  * for optimality checks against static (frozen) weights.
  */
object BruteForce {
  def best(est: PopulationEstimator, ps: Point, pt: Point, qt: QueryType,
           maxDoors: Int = 8): Option[(Vector[Int], Cost)] = {
    val model = est.model
    val space = model.space
    val ord   = Cost.ordering(qt)
    val hostS = space.host(ps)
    val hostT = space.host(pt)
    var best: Option[(Vector[Int], Cost)] = None
    def consider(path: Vector[Int], c: Cost): Unit =
      if (best.forall(b => ord.lt(c, b._2))) best = Some((path, c))
    def g(c: Cost): Int = model.gridStep(c.time)

    def dfs(door: Int, entered: Int, path: Vector[Int], c: Cost): Unit = {
      if (space.enterDoors(hostT).contains(door)) {
        val cT = c + CostFunctions.segmentCost(model, hostT, space.doors(door).pos.dist(pt),
          est.populationAt(hostT, g(c)))
        consider(path, cT)
      }
      if (path.size < maxDoors) {
        space.leaveDoors(entered).foreach { dj =>
          if (!path.contains(dj)) {
            val dist = space.doorDist(entered, door, dj)
            if (dist.isFinite) {
              val c2 = c + CostFunctions.segmentCost(model, entered, dist, est.populationAt(entered, g(c)))
              val e2 = space.linksFrom((entered, dj)).map(_.to).filter(_ != entered) match {
                case Seq()   => space.linksFrom((entered, dj)).map(_.to).min
                case nonSelf => nonSelf.min
              }
              dfs(dj, e2, path :+ dj, c2)
            }
          }
        }
      }
    }
    if (hostS == hostT)
      consider(Vector.empty,
        CostFunctions.segmentCost(model, hostS, ps.dist(pt), est.populationAt(hostS, 0)))
    space.leaveDoors(hostS).foreach { dj =>
      val c = CostFunctions.segmentCost(model, hostS, space.pointToDoor(ps, dj),
        est.populationAt(hostS, 0))
      val e = space.linksFrom((hostS, dj)).map(_.to).min
      dfs(dj, e, Vector(dj), c)
    }
    best
  }
}

class SearchSpec extends AnyFunSuite {

  private lazy val office     = SynthFloorplan.office(1)
  private lazy val officeModel = CrowdModel.synthetic(office, objScale = 900, seed = 7)
  private lazy val queries     = Instances.generate(office, n = 6, s2t = 600, seed = 21)

  private def localEst(m: CrowdModel)  = new LocalEstimator(new ModelState(m), exactUpstream = true)
  private def ppEst(m: CrowdModel)     = new LocalEstimator(new ModelState(m), exactUpstream = false)
  private def globalEst(m: CrowdModel) = new GlobalEstimator(new ModelState(m))

  test("exact FPQ returns structurally valid paths") {
    queries.foreach { q =>
      val res = Search.run(localEst(officeModel), q.ps, q.pt, 0.0, QueryType.FPQ)
      assert(res.found)
      assert(PathReplayer.valid(office, q.ps, q.pt, res.doorSeq))
    }
  }

  test("exact LCPQ returns structurally valid paths") {
    queries.foreach { q =>
      val res = Search.run(localEst(officeModel), q.ps, q.pt, 0.0, QueryType.LCPQ)
      assert(res.found && PathReplayer.valid(office, q.ps, q.pt, res.doorSeq))
    }
  }

  test("reported cost matches an independent replay of the path (all estimators)") {
    for (q <- queries.take(3); qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      for (mkEst <- Seq(() => localEst(officeModel), () => ppEst(officeModel), () => globalEst(officeModel))) {
        val res      = Search.run(mkEst(), q.ps, q.pt, 0.0, qt)
        val replayed = PathReplayer.replay(mkEst(), q.ps, q.pt, 0.0, res.doorSeq)
        assert(math.abs(res.cost.time - replayed.time) < 1e-6, s"$qt time")
        assert(math.abs(res.cost.dist - replayed.dist) < 1e-6, s"$qt dist")
        assert(math.abs(res.cost.contact - replayed.contact) < 1e-6, s"$qt contact")
      }
    }
  }

  test("crowd-free search reduces to the shortest-distance path") {
    queries.foreach { q =>
      val res = Search.run(new ZeroEstimator(new ModelState(officeModel)), q.ps, q.pt, 0.0, QueryType.FPQ)
      val dd  = Instances.doorDistances(office, q.ps)
      val hostT = office.host(q.pt)
      val viaDoors = office.enterDoors(hostT).map(d => dd(d) + office.doors(d).pos.dist(q.pt))
      val direct   = if (office.host(q.ps) == hostT) q.ps.dist(q.pt) else Double.PositiveInfinity
      val bestDist = (viaDoors :+ direct).min
      assert(math.abs(res.cost.dist - bestDist) < 1e-6)
    }
  }

  test("frozen-weight FPQ equals exhaustive enumeration on the mini space") {
    val model = TestModels.miniModel(objScale = 30)
    val ps    = model.space.partitions(0).rect.interiorPoint(0.4, 0.4, 0)
    val pt    = model.space.partitions(12).rect.interiorPoint(0.6, 0.6, 0)
    for (seedStep <- Seq(0, 2, 5)) {
      val estA = new FrozenEstimator(localEst(model), seedStep)
      val estB = new FrozenEstimator(localEst(model), seedStep)
      val res  = Search.run(estA, ps, pt, 0.0, QueryType.FPQ)
      val bf   = BruteForce.best(estB, ps, pt, QueryType.FPQ).get
      assert(math.abs(res.cost.time - bf._2.time) < 1e-9, s"step $seedStep: ${res.doorSeq} vs ${bf._1}")
    }
  }

  test("frozen-weight LCPQ equals exhaustive enumeration on the mini space") {
    val model = TestModels.miniModel(objScale = 30)
    val ps    = model.space.partitions(1).rect.interiorPoint(0.3, 0.5, 0)
    val pt    = model.space.partitions(11).rect.interiorPoint(0.7, 0.3, 0)
    val estA  = new FrozenEstimator(localEst(model), 1)
    val estB  = new FrozenEstimator(localEst(model), 1)
    val res   = Search.run(estA, ps, pt, 0.0, QueryType.LCPQ)
    val bf    = BruteForce.best(estB, ps, pt, QueryType.LCPQ).get
    assert(math.abs(res.cost.contact - bf._2.contact) < 1e-9)
  }

  test("GTG baseline finds the same-cost result as the exact search") {
    for (q <- queries.take(4); qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val exact = Search.run(localEst(officeModel), q.ps, q.pt, 0.0, qt)
      val gtg   = Gtg.run(localEst(officeModel), q.ps, q.pt, 0.0, qt)
      assert(gtg.found)
      val (pe, pg) = qt match {
        case QueryType.FPQ  => (exact.cost.time, gtg.cost.time)
        case QueryType.LCPQ => (exact.cost.contact, gtg.cost.contact)
      }
      assert(math.abs(pe - pg) < 1e-6, s"$qt exact=$pe gtg=$pg")
    }
  }

  test("deterministic world: exact search equals the gold standard exactly") {
    val sim = new CrowdSim(officeModel, seed = 1, deterministic = true)
    for (q <- queries.take(4); qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val goldRes  = Search.run(new SimOracleEstimator(new ModelState(officeModel), sim), q.ps, q.pt, 0.0, qt)
      val exactRes = Search.run(localEst(officeModel), q.ps, q.pt, 0.0, qt)
      assert(exactRes.doorSeq == goldRes.doorSeq, s"$qt path mismatch")
      assert(math.abs(exactRes.cost.time - goldRes.cost.time) < 1e-9)
      assert(math.abs(exactRes.cost.contact - goldRes.cost.contact) < 1e-9)
    }
  }

  test("adaptive baseline reaches the target and is never better than gold") {
    val sim = new CrowdSim(officeModel, seed = 2, deterministic = true)
    for (q <- queries.take(3); qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val goldRes = Search.run(new SimOracleEstimator(new ModelState(officeModel), sim), q.ps, q.pt, 0.0, qt)
      val ad      = Adaptive.run(officeModel, sim, q.ps, q.pt, 0.0, qt)
      assert(ad.found)
      val (pg, pa) = qt match {
        case QueryType.FPQ  => (goldRes.cost.time, ad.cost.time)
        case QueryType.LCPQ => (goldRes.cost.contact, ad.cost.contact)
      }
      assert(pa >= pg - 1e-6, s"$qt adaptive $pa beat gold $pg")
    }
  }

  test("adaptive path is structurally valid and its stats accumulate") {
    val sim = new CrowdSim(officeModel, seed = 3, deterministic = true)
    val q   = queries.head
    val ad  = Adaptive.run(officeModel, sim, q.ps, q.pt, 0.0, QueryType.FPQ)
    assert(PathReplayer.valid(office, q.ps, q.pt, ad.doorSeq))
    assert(ad.stats.pushes > 0 && ad.stats.millis > 0)
  }

  test("search within a single partition returns the direct segment") {
    val model = TestModels.miniModel()
    val p     = model.space.partitions(5)
    val ps    = p.rect.interiorPoint(0.2, 0.2, p.floor)
    val pt    = p.rect.interiorPoint(0.8, 0.8, p.floor)
    val res   = Search.run(localEst(model), ps, pt, 0.0, QueryType.FPQ)
    assert(res.found)
    assert(res.doorSeq.isEmpty || res.cost.dist <= ps.dist(pt) + 1e-9)
  }

  test("cross-floor query routes through a stairway") {
    val space2 = SynthFloorplan.office(2)
    val model2 = CrowdModel.synthetic(space2, objScale = 400, seed = 8)
    val p0     = space2.partitions.find(p => p.floor == 0 && !p.isStairway).get
    val p1     = space2.partitions.find(p => p.floor == 1 && !p.isStairway).get
    val res = Search.run(localEst(model2),
      p0.rect.interiorPoint(0.5, 0.5, 0), p1.rect.interiorPoint(0.5, 0.5, 1), 0.0, QueryType.FPQ)
    assert(res.found)
    val stairDoors = space2.partitions.filter(_.isStairway).flatMap(s => space2.allDoors(s.id)).toSet
    assert(res.doorSeq.exists(stairDoors.contains), "path must use a stairway")
  }

  test("unreachable targets are reported as not found") {
    // an isolated two-partition space with no link to partition 2
    val parts = IndexedSeq(
      repro.indoor.Partition(0, repro.indoor.Rect(0, 0, 10, 10), 0, repro.indoor.CrowdType.R),
      repro.indoor.Partition(1, repro.indoor.Rect(10, 0, 20, 10), 0, repro.indoor.CrowdType.R),
      repro.indoor.Partition(2, repro.indoor.Rect(20, 0, 30, 10), 0, repro.indoor.CrowdType.R),
    )
    val doors = IndexedSeq(repro.indoor.Door(0, Point(10, 5, 0)))
    val links = IndexedSeq(repro.indoor.DoorLink(0, 0, 1), repro.indoor.DoorLink(0, 1, 0))
    val space = new IndoorSpace(parts, doors, links, Map.empty)
    val model = new CrowdModel(space, Map.empty, IndexedSeq(1), 10, 0.0,
      IndexedSeq(0, 0, 0), IndexedSeq.fill(3)(Vector(0.0)))
    val res = Search.run(localEst(model), Point(5, 5, 0), Point(25, 5, 0), 0.0, QueryType.FPQ)
    assert(!res.found)
  }

  test("NT search completes and returns a valid path") {
    queries.take(3).foreach { q =>
      val nt  = new NTEstimator(new LocalEstimator(new ModelState(officeModel), exactUpstream = false))
      val res = Search.run(nt, q.ps, q.pt, 0.0, QueryType.FPQ)
      assert(res.found && PathReplayer.valid(office, q.ps, q.pt, res.doorSeq))
    }
  }

  test("search stats are populated") {
    val res = Search.run(localEst(officeModel), queries.head.ps, queries.head.pt, 0.0, QueryType.FPQ)
    assert(res.stats.pushes > 0 && res.stats.settled > 0 && res.stats.queuePeak > 0)
    assert(res.stats.popDerivations > 0 && res.stats.memKB > 0)
  }

  test("global- and local-estimator searches return identical results") {
    for (q <- queries.take(4); qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val a = Search.run(localEst(officeModel), q.ps, q.pt, 0.0, qt)
      val b = Search.run(globalEst(officeModel), q.ps, q.pt, 0.0, qt)
      assert(a.doorSeq == b.doorSeq)
      assert(math.abs(a.cost.time - b.cost.time) < 1e-9)
      assert(math.abs(a.cost.contact - b.cost.contact) < 1e-9)
    }
  }
}

package repro.indoor

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestModels
import scala.collection.mutable

class FloorplanSpec extends AnyFunSuite {

  private lazy val office1 = SynthFloorplan.office(1)
  private lazy val office5 = SynthFloorplan.office(5)
  private lazy val mall    = SynthFloorplan.mall()

  /** Tiny space for exhaustive tests elsewhere. */
  def mini(): IndoorSpace = SynthFloorplan.generate(
    Vector(SynthFloorplan.FloorSpec(2, Vector(2, 2, 2, 2), (1, 1))),
    stairsPerPair = Vector.empty, qPerFloor = 2, seed = 3, width = 100, height = 100)

  test("office floor matches the paper: 141 partitions, 216 doors") {
    assert(office1.numPartitions == 141)
    assert(office1.numDoors == 216)
  }

  test("5-floor office: 5x141 partitions + 16 stairways, 5x216 + 32 stair doors") {
    assert(office5.numPartitions == 5 * 141 + 16)
    assert(office5.numDoors == 5 * 216 + 32)
  }

  test("mall matches the paper's real dataset scale: 977 partitions, 1613 doors") {
    assert(mall.numPartitions == 977)
    assert(mall.numDoors == 1613)
  }

  test("mall has 10 stairways, office 4 per adjacent floor pair") {
    assert(mall.partitions.count(_.isStairway) == 10)
    assert(office5.partitions.count(_.isStairway) == 16)
  }

  test("each office floor has exactly 14 Q-partitions, mall has none") {
    for (f <- 0 until 5)
      assert(office5.partitions.count(p => p.floor == f && p.tau == CrowdType.Q && !p.isStairway) == 14)
    assert(mall.partitions.count(_.tau == CrowdType.Q) == 0)
  }

  test("every Q-partition has exactly two doors") {
    office5.partitions.filter(_.tau == CrowdType.Q).foreach { p =>
      assert(office5.allDoors(p.id).size == 2, s"partition ${p.id}")
    }
  }

  test("structural validation passes") {
    office5.validate(); mall.validate(); mini().validate()
  }

  test("a self-loop link is rejected at construction") {
    val l = office1.links.head
    intercept[IllegalArgumentException] {
      new IndoorSpace(office1.partitions, office1.doors, office1.links :+ DoorLink(l.door, l.from, l.from),
        office1.d2dOverride)
    }
  }

  test("enteredVia is the smallest partition other than v that the links from v through d enter") {
    for (space <- Seq(office5, mall); v <- 0 until space.numPartitions; d <- space.leaveDoors(v)) {
      val tos = space.linksFrom((v, d)).map(_.to)
      val expected = tos.filter(_ != v) match {
        case Seq()   => tos.min
        case nonSelf => nonSelf.min
      }
      assert(space.enteredVia(v, d) == expected, s"v=$v d=$d")
    }
  }

  test("all doors are bidirectional in generated spaces") {
    for (space <- Seq(office1, mall)) {
      val byDoor = space.links.groupBy(_.door)
      byDoor.foreach { case (d, ls) =>
        assert(ls.size == 2, s"door $d has ${ls.size} links")
        assert(ls(0).from == ls(1).to && ls(0).to == ls(1).from, s"door $d not symmetric")
      }
    }
  }

  test("every partition is reachable from partition 0 (connectivity)") {
    for (space <- Seq(office5, mall)) {
      val seen  = mutable.HashSet(0)
      val queue = mutable.Queue(0)
      while (queue.nonEmpty) {
        val v = queue.dequeue()
        space.outLinks(v).foreach(l => if (seen.add(l.to)) queue.enqueue(l.to))
      }
      assert(seen.size == space.numPartitions, s"${space.numPartitions - seen.size} unreachable partitions")
    }
  }

  test("stairway door distance equals the stair length of 20m") {
    val stairs = office5.partitions.filter(_.isStairway)
    assert(stairs.nonEmpty)
    stairs.foreach { s =>
      val ds = office5.allDoors(s.id)
      assert(ds.size == 2)
      assert(office5.doorDist(s.id, ds(0), ds(1)) == SynthFloorplan.StairLength)
      assert(office5.doorDist(s.id, ds(1), ds(0)) == SynthFloorplan.StairLength)
    }
  }

  test("stairway doors live on adjacent floors") {
    office5.partitions.filter(_.isStairway).foreach { s =>
      val floors = office5.allDoors(s.id).map(d => office5.doors(d).pos.floor).sorted
      assert(floors(1) == floors(0) + 1)
    }
  }

  test("d2d is finite exactly for door pairs sharing a traversable partition") {
    val space = office1
    val rng   = new scala.util.Random(9)
    (0 until 300).foreach { _ =>
      val di = rng.nextInt(space.numDoors); val dj = rng.nextInt(space.numDoors)
      val share = space.enterableThrough(di).intersect(space.leaveableThrough(dj)).nonEmpty
      assert(TestModels.d2d(space, di, dj).isFinite == share)
    }
  }

  test("d2d through a common partition is the Euclidean door distance") {
    val space = office1
    for (v <- 0 until space.numPartitions if !space.partitions(v).isStairway;
         di <- space.enterDoors(v).take(2); dj <- space.leaveDoors(v).take(2) if di != dj) {
      assert(math.abs(space.doorDist(v, di, dj) - space.doors(di).pos.dist(space.doors(dj).pos)) < 1e-9)
    }
  }

  test("host() finds the containing partition for partition-centre points") {
    for (space <- Seq(office1, mini())) {
      space.partitions.filterNot(_.isStairway).foreach { p =>
        val c = p.rect.interiorPoint(0.5, 0.5, p.floor)
        assert(space.host(c) == p.id)
      }
    }
  }

  test("host() rejects points outside every partition") {
    intercept[IllegalArgumentException](office1.host(Point(-50, -50, 0)))
  }

  test("doors of a partition are on its boundary (within tolerance)") {
    val space = office1
    space.partitions.filterNot(_.isStairway).foreach { p =>
      space.allDoors(p.id).foreach { d =>
        val pos = space.doors(d).pos
        val r   = p.rect
        val onBoundary =
          math.abs(pos.x - r.xMin) < 1e-6 || math.abs(pos.x - r.xMax) < 1e-6 ||
            math.abs(pos.y - r.yMin) < 1e-6 || math.abs(pos.y - r.yMax) < 1e-6
        assert(onBoundary, s"door $d of partition ${p.id} at $pos not on boundary of $r")
      }
    }
  }

  test("enter/leave door sets are consistent with links") {
    val space = mini()
    space.links.foreach { l =>
      assert(space.leaveDoors(l.from).contains(l.door))
      assert(space.enterDoors(l.to).contains(l.door))
      assert(space.enterableThrough(l.door).contains(l.to))
      assert(space.leaveableThrough(l.door).contains(l.from))
    }
  }

  test("per-partition link ids list the partition's links in link order") {
    for (v <- 0 until office1.numPartitions) {
      assert(office1.outLinkIds(v).toSeq == office1.links.indices.filter(office1.links(_).from == v))
      assert(office1.inLinkIds(v).toSeq == office1.links.indices.filter(office1.links(_).to == v))
    }
  }

  test("generation is deterministic in the seed") {
    val a = SynthFloorplan.office(2, seed = 123)
    val b = SynthFloorplan.office(2, seed = 123)
    assert(a.partitions.map(_.tau) == b.partitions.map(_.tau))
    assert(a.links == b.links)
  }

  test("different seeds change the Q-partition selection") {
    val a = SynthFloorplan.office(2, seed = 1)
    val b = SynthFloorplan.office(2, seed = 2)
    assert(a.partitions.map(_.tau) != b.partitions.map(_.tau))
  }

  test("partition areas are positive and stairways use the override") {
    (office5.partitions ++ mall.partitions).foreach { p =>
      assert(p.area > 0)
      if (p.isStairway) assert(p.area == SynthFloorplan.StairArea)
    }
  }

  test("mini space has the expected scale for exhaustive search tests") {
    val m = mini()
    assert(m.numPartitions == 14)
    assert(m.numDoors == 17)
  }
}

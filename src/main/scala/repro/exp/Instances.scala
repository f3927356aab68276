package repro.exp

import repro.core.LabelSetting
import repro.indoor.{IndoorSpace, Point}
import scala.util.Random

/** Query-instance generation (Section 6.1.1): pairs (p_s, p_t) whose
  * crowd-free indoor shortest distance approximates the control parameter
  * `s2t`. Deterministic in the seed.
  */
object Instances {

  final case class Query(ps: Point, pt: Point)

  /** Crowd-free single-source door distances from an indoor point —
    * Dijkstra over the crowd model's door expansion (same topology the
    * crowd-aware search uses, with ρ ≡ const).
    */
  def doorDistances(space: IndoorSpace, ps: Point): Array[Double] = {
    // labels are ordered by distance alone and carry the partition entered
    val ls    = new LabelSetting[Double](space.numDoors)
    val hostS = space.host(ps)
    ls.push(ls.src, 0.0, ls.src, hostS)
    ls.run { s =>
      if (s.node == ls.src)
        space.leaveDoors(hostS).foreach { dj =>
          ls.push(dj, space.pointToDoor(ps, dj), ls.src, space.enteredVia(hostS, dj))
        }
      else
        space.leaveDoors(s.aux).foreach { dj =>
          if (!ls.isSettled(dj)) {
            val nd = s.cost + space.doorDist(s.aux, s.node, dj)
            if (nd.isFinite) ls.push(dj, nd, s.node, space.enteredVia(s.aux, dj))
          }
        }
    }
    Array.tabulate(space.numDoors)(ls.best(_).getOrElse(Double.PositiveInfinity))
  }

  /** Generate `n` query instances with source-target distance ≈ s2t. */
  def generate(space: IndoorSpace, n: Int, s2t: Double, seed: Long): Vector[Query] = {
    val rng     = new Random(seed)
    val rooms   = space.partitions.filterNot(_.isStairway)
    val out     = Vector.newBuilder[Query]
    var made    = 0
    var guard   = 0
    while (made < n && guard < n * 200) {
      guard += 1
      val pPart = rooms(rng.nextInt(rooms.size))
      val ps    = pPart.rect.interiorPoint(0.2 + rng.nextDouble() * 0.6, 0.2 + rng.nextDouble() * 0.6, pPart.floor)
      val dd    = doorDistances(space, ps)
      // doors whose distance leaves room for the last in-partition leg
      val cands = (0 until space.numDoors).filter { d =>
        dd(d).isFinite && dd(d) >= 0.55 * s2t && dd(d) <= 0.98 * s2t &&
        space.enterableThrough(d).exists(v => !space.partitions(v).isStairway)
      }
      if (cands.nonEmpty) {
        val d      = cands(rng.nextInt(cands.size))
        val vtCand = space.enterableThrough(d).filter(v => !space.partitions(v).isStairway)
        val vt     = space.partitions(vtCand.min)
        val rem    = s2t - dd(d)
        // pick the interior point whose distance from the door best matches rem
        val door = space.doors(d)
        val pt = (0 until 24).map { _ =>
          vt.rect.interiorPoint(0.05 + rng.nextDouble() * 0.9, 0.05 + rng.nextDouble() * 0.9, vt.floor)
        }.minBy(p => math.abs(p.dist(door.pos) - rem))
        if (space.host(pt) == vt.id && pt.dist(door.pos).isFinite) {
          // accept only if the true crowd-free shortest distance is close to s2t
          val hostT = space.host(pt)
          val short = space.enterDoors(hostT)
            .map(dk => dd(dk) + space.doors(dk).pos.dist(pt))
            .foldLeft(if (space.host(ps) == hostT) ps.dist(pt) else Double.PositiveInfinity)(math.min)
          if (short.isFinite && math.abs(short - s2t) / s2t <= 0.2) {
            out += Query(ps, pt)
            made += 1
          }
        }
      }
    }
    val res = out.result()
    require(res.size == n, s"could only generate ${res.size}/$n instances for s2t=$s2t")
    res
  }
}

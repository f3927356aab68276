package repro.indoor

import scala.collection.mutable

/** Crowd type of a partition: Q-partitions force FIFO queueing, R-partitions
  * let objects move freely (Definition 1 in the paper).
  */
sealed abstract class CrowdType(val code: String)
object CrowdType {
  case object Q extends CrowdType("Q")
  case object R extends CrowdType("R")
}

/** A door. Its position is where the d2d (door-to-door) Euclidean distances
  * are measured from. Directionality is *not* a door attribute here — it is
  * captured by the set of [[DoorLink]]s referencing the door.
  */
final case class Door(id: Int, pos: Point)

/** An indoor partition (room, hallway cell, or stairway).
  *
  * @param areaOverride stairways span two floors, so their footprint `rect`
  *                     is not meaningful; the override carries their area.
  */
final case class Partition(
    id: Int,
    rect: Rect,
    floor: Int,
    tau: CrowdType,
    isStairway: Boolean = false,
    areaOverride: Option[Double] = None,
) {
  def area: Double = areaOverride.getOrElse(rect.area)
}

/** One traversable direction of a door: an object in partition `from` may
  * pass through door `door` into partition `to`. A bidirectional door between
  * u and v yields two links; a unidirectional one (e.g. a security gate)
  * yields one.
  */
final case class DoorLink(door: Int, from: Int, to: Int)

/** The static indoor space: partitions, doors, directed door links, and
  * distance overrides (stairway lengths). All of the paper's topology
  * operators (`D2P⊢`, `D2P⊣`, `P2D⊢`, `P2D⊣`) and the intra-partition door
  * distances are derived here and precomputed for O(1) lookup during search.
  */
final class IndoorSpace(
    val partitions: IndexedSeq[Partition],
    val doors: IndexedSeq[Door],
    val links: IndexedSeq[DoorLink],
    /** (doorA, doorB) -> walking distance, overriding Euclidean (stairs). */
    val d2dOverride: Map[(Int, Int), Double],
) extends Serializable {
  require(partitions.zipWithIndex.forall { case (p, i) => p.id == i }, "partition ids must be dense 0..n-1")
  require(doors.zipWithIndex.forall { case (d, i) => d.id == i }, "door ids must be dense 0..n-1")

  val numPartitions: Int = partitions.size
  val numDoors: Int      = doors.size

  /** The two ends of each link, by link index. */
  val linkFrom: Array[Int] = new Array[Int](links.size)
  val linkTo: Array[Int]   = new Array[Int](links.size)

  { // a duplicate (from, to, door) would silently share one λ
    val seen = mutable.HashSet.empty[DoorLink]
    var i    = 0
    links.foreach { l =>
      require(l.from >= 0 && l.from < numPartitions, s"bad link from ${l.from}")
      require(l.to >= 0 && l.to < numPartitions, s"bad link to ${l.to}")
      require(l.door >= 0 && l.door < numDoors, s"bad link door ${l.door}")
      require(l.from != l.to, s"self-loop link $l")
      require(seen.add(l), s"duplicate link $l")
      linkFrom(i) = l.from
      linkTo(i) = l.to
      i += 1
    }
  }

  /** D2P⊢(d): partitions one can ENTER through door d. */
  val enterableThrough: IndexedSeq[Set[Int]] = {
    val a = Array.fill(numDoors)(Set.empty[Int])
    links.foreach(l => a(l.door) += l.to)
    a.toIndexedSeq
  }

  /** D2P⊣(d): partitions one can LEAVE through door d. */
  val leaveableThrough: IndexedSeq[Set[Int]] = {
    val a = Array.fill(numDoors)(Set.empty[Int])
    links.foreach(l => a(l.door) += l.from)
    a.toIndexedSeq
  }

  /** P2D⊢(v): doors through which one can leave partition v. */
  val leaveDoors: IndexedSeq[Vector[Int]] = {
    val a = Array.fill(numPartitions)(Vector.empty[Int])
    links.foreach(l => if (!a(l.from).contains(l.door)) a(l.from) :+= l.door)
    a.toIndexedSeq
  }

  /** P2D⊣(v): doors through which one can enter partition v. */
  val enterDoors: IndexedSeq[Vector[Int]] = {
    val a = Array.fill(numPartitions)(Vector.empty[Int])
    links.foreach(l => if (!a(l.to).contains(l.door)) a(l.to) :+= l.door)
    a.toIndexedSeq
  }

  /** All doors of partition v (P2D(v) = enterable ∪ leaveable). */
  val allDoors: IndexedSeq[Vector[Int]] =
    (0 until numPartitions).map(v => (leaveDoors(v) ++ enterDoors(v)).distinct)

  /** Links grouped by (fromPartition, door) — the expansion step needs the
    * partition a door leads into given the side we are on.
    */
  val linksFrom: Map[(Int, Int), Vector[DoorLink]] =
    links.groupBy(l => (l.from, l.door)).view.mapValues(_.toVector).toMap

  // keyed by from · numDoors + door
  private val entered: mutable.LongMap[Int] = {
    val m = mutable.LongMap.empty[Int]
    links.foreach { l =>
      val k = l.from.toLong * numDoors + l.door
      m(k) = math.min(m.getOrElse(k, l.to), l.to)
    }
    m
  }

  /** The partition entered when leaving partition v through door d: the
    * smallest `to` among the links leaving v through d. Links are never
    * self-loops, so this is never v itself.
    */
  def enteredVia(v: Int, d: Int): Int = entered(v.toLong * numDoors + d)

  /** Outgoing links per partition: edges e(v_i, v_j, d_k) of the crowd model. */
  val outLinks: IndexedSeq[Vector[DoorLink]] = {
    val a = Array.fill(numPartitions)(Vector.empty[DoorLink])
    links.foreach(l => a(l.from) :+= l)
    a.toIndexedSeq
  }

  /** Indices into `links` of each partition's outgoing / incoming links, in
    * link order. A link's index is its crowd-model edge index.
    */
  val outLinkIds: Array[Array[Int]] = linkIdsBy(_.from)
  val inLinkIds: Array[Array[Int]]  = linkIdsBy(_.to)

  private def linkIdsBy(end: DoorLink => Int): Array[Array[Int]] = {
    val b = Array.fill(numPartitions)(Array.newBuilder[Int])
    links.indices.foreach(i => b(end(links(i))) += i)
    b.map(_.result())
  }

  /** Intra-partition walking distance between two doors of partition v
    * (entry `M_d2d` of the vertex label). Euclidean unless overridden
    * (stairways).
    */
  def doorDist(v: Int, di: Int, dj: Int): Double =
    d2dOverride.getOrElse(
      (di, dj),
      doors(di).pos.dist(doors(dj).pos),
    )

  /** Distance from an indoor point to a door of its host partition. */
  def pointToDoor(p: Point, d: Int): Double = p.dist(doors(d).pos)

  /** Host partition of an indoor point: the non-stairway partition on the
    * point's floor whose footprint contains it.
    */
  def host(p: Point): Int =
    partitions
      .find(part => !part.isStairway && part.floor == p.floor && part.rect.contains(p.x, p.y))
      .map(_.id)
      .getOrElse(throw new IllegalArgumentException(s"point $p is in no partition"))

  /** Structural sanity beyond the constructor's link checks: no orphan
    * doors. Used by tests and at generator boundaries.
    */
  def validate(): Unit =
    (0 until numDoors).foreach { d =>
      require(enterableThrough(d).nonEmpty || leaveableThrough(d).nonEmpty, s"orphan door $d")
    }
}

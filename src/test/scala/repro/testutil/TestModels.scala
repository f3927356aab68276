package repro.testutil

import repro.crowd.{CrowdModel, EdgeKey}
import repro.indoor._
import repro.sim.CrowdSim

/** Shared hand-built fixtures for numeric tests. */
object TestModels {

  /** Tiny generated space (14 partitions / 17 doors) for exhaustive tests. */
  def mini(seed: Long = 3): IndoorSpace = SynthFloorplan.generate(
    Vector(SynthFloorplan.FloorSpec(2, Vector(2, 2, 2, 2), (1, 1))),
    stairsPerPair = Vector.empty, qPerFloor = 2, seed = seed, width = 100, height = 100)

  /** The Figure-4 triangle: three pairwise-connected partitions with
    * populations (3, 7, 4) and flows chosen so the paper's rectification
    * example plays out exactly: v1's outflows (4, 2) scale to (2, 1) and
    * the new populations are (2, 8, 4).
    */
  def figure4(): (IndoorSpace, CrowdModel) = {
    val partitions = IndexedSeq(
      Partition(0, Rect(0, 0, 10, 10), 0, CrowdType.R),
      Partition(1, Rect(10, 0, 20, 10), 0, CrowdType.R),
      Partition(2, Rect(0, 10, 20, 20), 0, CrowdType.R),
    )
    val doors = IndexedSeq(
      Door(0, Point(10, 5, 0)),  // v1 <-> v2
      Door(1, Point(5, 10, 0)),  // v1 <-> v3
      Door(2, Point(15, 10, 0)), // v2 <-> v3
    )
    val links = IndexedSeq(
      DoorLink(0, 0, 1), DoorLink(0, 1, 0),
      DoorLink(1, 0, 2), DoorLink(1, 2, 0),
      DoorLink(2, 1, 2), DoorLink(2, 2, 1),
    )
    val space = new IndoorSpace(partitions, doors, links, Map.empty)
    space.validate()
    val lambda = Map(
      EdgeKey(0, 1, 0) -> 4.0, // v1 -> v2
      EdgeKey(0, 2, 1) -> 2.0, // v1 -> v3
      EdgeKey(1, 0, 0) -> 2.0, // v2 -> v1
      EdgeKey(2, 1, 2) -> 1.0, // v3 -> v2
      EdgeKey(2, 0, 1) -> 0.0, // v3 -> v1
      EdgeKey(1, 2, 2) -> 0.0, // v2 -> v3
    )
    val model = new CrowdModel(
      space, lambda,
      reportEvery = IndexedSeq(1, 1, 1), ti = 10, t0 = 0.0,
      initialPop = IndexedSeq(3.0, 7.0, 4.0),
      historyNet = IndexedSeq.fill(3)(Vector.fill(5)(0.0)),
    )
    (space, model)
  }

  /** Eq. 1: door-to-door distance — finite iff some partition can be entered
    * via di and left via dj; then the intra-partition distance applies.
    */
  def d2d(space: IndoorSpace, di: Int, dj: Int): Double = {
    val common = space.enterableThrough(di).intersect(space.leaveableThrough(dj))
    if (common.isEmpty) Double.PositiveInfinity
    else common.iterator.map(v => space.doorDist(v, di, dj)).min
  }

  /** `model` re-synchronized to step `gNow` of a stochastic world (seed 7):
    * its `gridOffset` is gNow, so its report phases are shifted from its
    * grid origin.
    */
  def resynced(model: CrowdModel, gNow: Int): CrowdModel =
    model.withObservation(new CrowdSim(model, seed = 7, deterministic = false).snapshot(gNow), gNow)

  /** Synthetic model over the mini space with adjustable population scale —
    * large scale means rectification never triggers (PP ≡ exact), tiny
    * scale forces rectification everywhere.
    */
  def miniModel(objScale: Int = 50, seed: Long = 5, ti: Int = 10): CrowdModel =
    CrowdModel.synthetic(mini(), objScale = objScale, ti = ti, seed = seed)
}

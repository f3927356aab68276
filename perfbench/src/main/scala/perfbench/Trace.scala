package perfbench

import repro.core.{Cost, CostFunctions, Gtg, QueryType, Search}
import repro.crowd.{CrowdModel, ModelState}
import repro.estimator.{GlobalEstimator, LocalEstimator, NTEstimator, PopulationEstimator}
import repro.exp.{Instances, Params, Variant}
import repro.indoor.Point
import repro.sim.CrowdSim
import scala.collection.mutable

/** Times and counts every population lookup of the estimator it wraps:
  * lookups, the largest grid step read, and lookups at the `maxGrid`
  * horizon, where the search clamps its arrival step.
  */
final class TracedEstimator(inner: PopulationEstimator, maxGrid: Int) extends PopulationEstimator {
  val state: ModelState = inner.state
  val name: String      = inner.name
  var nanos             = 0L
  var lookups           = 0L
  var horizonLookups    = 0L
  var maxStep           = 0

  def populationAt(v: Int, g: Int): Double = {
    lookups += 1
    if (g > maxStep) maxStep = g
    if (g >= maxGrid) horizonLookups += 1
    val t0 = System.nanoTime()
    val p  = inner.populationAt(v, g)
    nanos += System.nanoTime() - t0
    p
  }
}

/** Layer breakdown of one traced query. Crowd time is building estimator
  * state (`stateInitNs`) plus, for the adaptive column, re-synchronizing the
  * model to observed populations (`observeNs`); the search's own time is
  * what remains after crowd and estimator time.
  */
final class QueryTrace {
  var totalNs        = 0L
  var estimatorNs    = 0L
  var stateInitNs    = 0L
  var observeNs      = 0L
  var lookups        = 0L
  var horizonLookups = 0L
  var maxStep        = 0
  var replans        = 0

  def crowdNs: Long = stateInitNs + observeNs
  /** Re-synchronization of the adaptive column: new model plus fresh state. */
  def resyncNs: Long = if (replans > 0) observeNs + stateInitNs else 0L
  def coreNs: Long  = totalNs - estimatorNs - crowdNs

  def add(e: TracedEstimator): Unit = {
    estimatorNs += e.nanos
    lookups += e.lookups
    horizonLookups += e.horizonLookups
    maxStep = math.max(maxStep, e.maxStep)
  }
}

/** Traced twins of `Harness.runOnce`: each column's estimator is built
  * exactly as `Harness.runOnce` builds it, then wrapped in a
  * [[TracedEstimator]] before the search runs. The traced run compares every
  * result with its untraced twin, so the wrapping is checked on each query.
  */
object Trace {

  def estimatorFor(model: CrowdModel, variant: Variant): PopulationEstimator = variant match {
    case Variant.Exact  => new LocalEstimator(new ModelState(model), exactUpstream = true)
    case Variant.Global => new GlobalEstimator(new ModelState(model))
    case Variant.PP     => new LocalEstimator(new ModelState(model), exactUpstream = false)
    case Variant.NT     => new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false), Params.eta)
    case Variant.GTG    => new GlobalEstimator(new ModelState(model))
    case Variant.Adapt  => sys.error("the adaptive column builds one estimator per re-plan")
  }

  def run(
      model: CrowdModel,
      sim: CrowdSim,
      variant: Variant,
      q: Instances.Query,
      tq: Double,
      qt: QueryType,
      maxGrid: Int,
  ): (Search.Result, QueryTrace) = {
    val tr = new QueryTrace
    val t0 = System.nanoTime()
    val res = variant match {
      case Variant.Adapt => adaptive(model, sim, q.ps, q.pt, tq, qt, maxGrid, tr)
      case _ =>
        val s0  = System.nanoTime()
        val est = new TracedEstimator(estimatorFor(model, variant), maxGrid)
        tr.stateInitNs += System.nanoTime() - s0
        val r =
          if (variant == Variant.GTG) Gtg.run(est, q.ps, q.pt, tq, qt, maxGrid)
          else Search.run(est, q.ps, q.pt, tq, qt, maxGrid)
        tr.add(est)
        r
    }
    tr.totalNs = System.nanoTime() - t0
    (res, tr)
  }

  /** `Adaptive.run` step for step, with each re-plan's re-synchronization
    * timed and its estimator wrapped. Its results must equal
    * `Adaptive.run`'s; the traced run checks that on every query.
    */
  private def adaptive(
      model: CrowdModel,
      sim: CrowdSim,
      ps: Point,
      pt: Point,
      tq: Double,
      qt: QueryType,
      maxGrid: Int,
      tr: QueryTrace,
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
      val observed = sim.snapshot(gNow)
      val r0       = System.nanoTime()
      val obsModel = model.withObservation(observed, gNow)
      val r1       = System.nanoTime()
      val est      = new TracedEstimator(new LocalEstimator(new ModelState(obsModel), exactUpstream = false), maxGrid)
      val r2       = System.nanoTime()
      tr.observeNs += r1 - r0
      tr.stateInitNs += r2 - r1
      tr.replans += 1
      val res = Search.runFrom(est, start, pt, tNow, qt, maxGrid)
      tr.add(est)
      statsAcc = statsAcc + res.stats
      val hopIdx = if (start.isLeft) 1 else 2
      if (!res.found || res.path.size <= hopIdx) failed = true
      else {
        val n1 = res.path(hopIdx)
        val (vk, dist, nextStart) = (start, n1) match {
          case (Left(p), Search.Tgt) =>
            (space.host(p), p.dist(pt), start)
          case (Left(p), Search.D(d)) =>
            val h       = space.host(p)
            val entered = space.linksFrom((h, d)).map(_.to).min
            (h, space.pointToDoor(p, d), Right((d, entered)): Either[Point, (Int, Int)])
          case (Right((dCur, _)), Search.Tgt) =>
            (hostT, space.doors(dCur).pos.dist(pt), start)
          case (Right((dCur, vIn)), Search.D(d2)) =>
            val entered = space.linksFrom((vIn, d2)).map(_.to).filter(_ != vIn) match {
              case Seq()   => space.linksFrom((vIn, d2)).map(_.to).min
              case nonSelf => nonSelf.min
            }
            (vIn, space.doorDist(vIn, dCur, d2), Right((d2, entered)): Either[Point, (Int, Int)])
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
      Search.Result(Vector.empty, Cost(Double.PositiveInfinity, Double.PositiveInfinity, Double.PositiveInfinity),
        found = false, statsAcc)
  }
}

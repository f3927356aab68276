package repro.exp

import repro.core.{Adaptive, Cost, Gtg, QueryType, Search}
import repro.crowd.{CrowdModel, ModelState}
import repro.estimator._
import repro.sim.{CrowdSim, SimOracleEstimator}

/** The paper's Table 2 parameter grid (defaults in bold there). */
object Params {
  val floors: Seq[Int]    = Seq(3, 5, 7, 9)
  val floorsDefault       = 5
  val objs: Seq[Int]      = Seq(300, 600, 900, 1200, 1500)
  val objsDefault         = 900
  val tis: Seq[Int]       = Seq(5, 10, 15, 20)
  val tiDefault           = 10
  val s2ts: Seq[Double]   = Seq(900, 1100, 1300, 1500, 1700)
  val s2tDefault          = 1300.0
  val eta                 = 3.0
  val qPerFloor           = 14
}

/** The six algorithm columns of Tables 3–4, per query type. */
sealed abstract class Variant(val label: String)
object Variant {
  case object Exact    extends Variant("")     // *PQ   — Alg. 3 + local Alg. 2
  case object Global   extends Variant("-G")   // *PQ-G — Alg. 3 + global Alg. 1
  case object PP       extends Variant("-PP")  // Strategy PP
  case object NT       extends Variant("-NT")  // Strategy NT (on PP)
  case object GTG      extends Variant("-GTG") // general time-dependent graph baseline
  case object Adapt    extends Variant("-A")   // adaptive baseline
  val all: Seq[Variant] = Seq(Exact, Global, PP, NT, GTG, Adapt)
}

/** Runs query variants against a model + simulated world and aggregates the
  * paper's four metrics (running time, memory, hit rate, relative error).
  */
object Harness {

  final case class Metrics(timeMs: Double, memKB: Double, hitRate: Double, relErr: Double)

  def primary(qt: QueryType, c: Cost): Double = qt match {
    case QueryType.FPQ  => c.time
    case QueryType.LCPQ => c.contact
  }

  /** One algorithm run on one instance. A fresh [[ModelState]] per run keeps
    * runs independent, exactly like the paper's per-query measurements.
    */
  def runOnce(
      model: CrowdModel,
      sim: CrowdSim,
      variant: Variant,
      q: Instances.Query,
      tq: Double,
      qt: QueryType,
      maxGrid: Int,
  ): Search.Result = variant match {
    case Variant.Exact =>
      Search.run(new LocalEstimator(new ModelState(model), exactUpstream = true), q.ps, q.pt, tq, qt, maxGrid)
    case Variant.Global =>
      Search.run(new GlobalEstimator(new ModelState(model)), q.ps, q.pt, tq, qt, maxGrid)
    case Variant.PP =>
      Search.run(new LocalEstimator(new ModelState(model), exactUpstream = false), q.ps, q.pt, tq, qt, maxGrid)
    case Variant.NT =>
      Search.run(new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false), Params.eta),
        q.ps, q.pt, tq, qt, maxGrid)
    case Variant.GTG =>
      Gtg.run(new GlobalEstimator(new ModelState(model)), q.ps, q.pt, tq, qt, maxGrid)
    case Variant.Adapt =>
      Adaptive.run(model, sim, q.ps, q.pt, tq, qt, maxGrid)
  }

  /** Gold-standard result: exact search over the simulator's actual
    * populations ("searching over the detailed simulated trajectories").
    */
  def gold(model: CrowdModel, sim: CrowdSim, q: Instances.Query, tq: Double, qt: QueryType, maxGrid: Int): Search.Result =
    Search.run(new SimOracleEstimator(new ModelState(model), sim), q.ps, q.pt, tq, qt, maxGrid)

  /** Evaluate one variant over a set of instances: `reps` timed repetitions
    * per instance (paper: 10), accuracy from the last repetition (runs are
    * deterministic, so every repetition returns the same path).
    */
  def evaluate(
      model: CrowdModel,
      sim: CrowdSim,
      variant: Variant,
      qt: QueryType,
      queries: Seq[Instances.Query],
      tq: Double = 0.0,
      maxGrid: Int = 720,
      reps: Int = 3,
  ): Metrics = {
    var timeSum = 0.0
    var memSum  = 0.0
    var hits    = 0
    var errSum  = 0.0
    var errCnt  = 0
    // JIT warmup: one untimed run (the paper averages 10 warm repetitions)
    runOnce(model, sim, variant, queries.head, tq, qt, maxGrid)
    for (q <- queries) {
      val goldRes = gold(model, sim, q, tq, qt, maxGrid)
      var res: Search.Result = null
      for (_ <- 0 until reps) {
        res = runOnce(model, sim, variant, q, tq, qt, maxGrid)
        timeSum += res.stats.millis
        memSum += res.stats.memKB
      }
      if (res.found && goldRes.found) {
        if (res.doorSeq == goldRes.doorSeq) hits += 1
        val pg = primary(qt, goldRes.cost)
        if (pg > 0) { errSum += math.abs(primary(qt, res.cost) - pg) / pg; errCnt += 1 }
      }
    }
    val n = queries.size.toDouble
    Metrics(timeSum / (n * reps), memSum / (n * reps), 100.0 * hits / n, if (errCnt == 0) 0.0 else errSum / errCnt)
  }

  /** Render a Table-3/4-style comparison: 12 columns (FPQ then LCPQ, six
    * variants each), 4 metric rows.
    */
  def renderTable(title: String, cols: Seq[(String, Metrics)]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(("" +: cols.map(_._1)).mkString("| ", " | ", " |\n"))
    sb.append(("Running Time (ms)" +: cols.map(c => f"${c._2.timeMs}%.1f")).mkString("| ", " | ", " |\n"))
    sb.append(("Memory (KB)" +: cols.map(c => f"${c._2.memKB}%.1f")).mkString("| ", " | ", " |\n"))
    sb.append(("Hit Rate (%)" +: cols.map(c => f"${c._2.hitRate}%.0f")).mkString("| ", " | ", " |\n"))
    sb.append(("Relative Error" +: cols.map(c => f"${c._2.relErr}%.4g")).mkString("| ", " | ", " |\n"))
    sb.toString
  }
}

package perfbench

import java.nio.file.Path
import org.apache.spark.sql.SparkSession
import repro.core.QueryType
import repro.crowd.{CrowdModel, EdgeKey}
import repro.exp.{Instances, Params, Variant}
import repro.indoor.{IndoorSpace, SynthFloorplan}
import repro.sim.{CrowdSim, FlowCounting, RealDataPipeline, TrajectoryGen}

/** One algorithm column of Tables 3/4: a query type run with one variant. */
final case class Column(qt: QueryType, variant: Variant) {
  val label: String = (if (qt == QueryType.FPQ) "FPQ" else "LCPQ") + variant.label
  /** Columns that must return the gold path in the deterministic world. */
  def exactFamily: Boolean = variant == Variant.Exact || variant == Variant.Global || variant == Variant.GTG
}

/** A workload: a model built one way, a fixed pool of query instances, and
  * the columns every instance runs as. Every workload uses the paper's
  * default setting (TI = 10 s, s2t = 1300 m, tq = t0), the `maxGrid` = 720
  * horizon, and the deterministic gold world.
  */
final case class Workload(
    name: String,
    /** the mall model, built through the Spark pipeline; else the office */
    usesSpark: Boolean,
    columns: Seq[Column],
    poolSize: Int,
    /** passes every run makes; more start only while another fits the budget */
    minPasses: Int,
    setupReps: Int,
    instanceSeed: Long,
) {
  def queryTypes: Seq[QueryType] = columns.map(_.qt).distinct
}

/** The model and world queries run on, with the set-up timings. */
final class Loaded(
    val model: CrowdModel,
    val sim: CrowdSim,
    val pool: Vector[Instances.Query],
    /** seconds of each set-up repetition, in order */
    val setupSeconds: Seq[Double],
    /** per-layer figures measured while loading (name -> value) */
    val layers: Map[String, Double],
    /** set-up problems that make the run incorrect */
    val problems: Seq[String],
)

object Workloads {
  val MaxGrid   = 720
  val Ti        = Params.tiDefault
  val S2t       = Params.s2tDefault
  /** Seeds of the Table-3/4 runs (`TableRunner.Opts().seed` = 1). */
  val OfficeSeed = 1L
  val MallSeed   = 11L
  val WorldSeed  = 1L

  private def columns(vs: Variant*): Seq[Column] =
    for (qt <- Seq(QueryType.FPQ, QueryType.LCPQ); v <- vs) yield Column(qt, v)

  val all: Seq[Workload] = Seq(
    Workload("office-exact", usesSpark = false, columns(Variant.Exact, Variant.GTG), poolSize = 9, minPasses = 1, setupReps = 15, instanceSeed = 101),
    Workload("mall-approx", usesSpark = true, columns(Variant.PP, Variant.NT), poolSize = 44, minPasses = 2, setupReps = 3, instanceSeed = 201),
    Workload("office-adaptive", usesSpark = false, columns(Variant.Adapt), poolSize = 10, minPasses = 1, setupReps = 15, instanceSeed = 101),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  private def seconds(ns: Long): Double = ns / 1e9
  private def millis(ns: Long): Double  = ns / 1e6

  /** Builds the workload's model `setupReps` times (set-up time is the
    * median), then the inputs: the gold world evolved to the horizon and the
    * instance pool.
    */
  def load(w: Workload, traced: Boolean, scratch: Path): Loaded = {
    val (space, model, setupSec, layers, problems) =
      if (w.usesSpark) loadMall(w, traced, scratch) else loadOffice(w)
    val sim = new CrowdSim(model, seed = WorldSeed, deterministic = true)
    val e0  = System.nanoTime()
    sim.snapshot(MaxGrid)
    val e1   = System.nanoTime()
    val pool = Instances.generate(space, w.poolSize, S2t, seed = w.instanceSeed)
    val e2   = System.nanoTime()
    new Loaded(model, sim, pool, setupSec,
      layers ++ Map("sim.evolve_ms" -> millis(e1 - e0), "exp.instances_ms" -> millis(e2 - e1)), problems)
  }

  private def loadOffice(w: Workload) = {
    val reps = (1 to w.setupReps).map { _ =>
      val t0    = System.nanoTime()
      val space = SynthFloorplan.office(Params.floorsDefault, seed = OfficeSeed)
      val t1    = System.nanoTime()
      val model = CrowdModel.synthetic(space, objScale = Params.objsDefault, ti = Ti, seed = OfficeSeed)
      val t2    = System.nanoTime()
      (space, model, t1 - t0, t2 - t1)
    }
    val (space, model, _, _) = reps.last
    val layers = Map(
      "indoor.space_build_ms" -> Quantiles.median(reps.map(r => millis(r._3))),
      "crowd.model_build_ms"  -> Quantiles.median(reps.map(r => millis(r._4))),
    )
    (space, model, reps.map(r => seconds(r._3 + r._4)), layers, Seq.empty[String])
  }

  /** A local-mode session as the tests configure it, with one shuffle
    * partition per core and all scratch files kept under `scratch`.
    */
  private def startSpark(scratch: Path): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", Runtime.getRuntime.availableProcessors().toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", scratch.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("spark-warehouse").toString)
      .getOrCreate()

  private def loadMall(w: Workload, traced: Boolean, scratch: Path) = {
    var spark: SparkSession = null
    val reps = (1 to w.setupReps).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = startSpark(scratch)
      val t1    = System.nanoTime()
      val built = RealDataPipeline.build(spark, seed = MallSeed)
      val t2    = System.nanoTime()
      (built, t1 - t0, t2 - t0)
    }
    val built = reps.last._1
    var layers = Map("sim.pipeline.spark_start_s" -> Quantiles.median(reps.map(r => seconds(r._2))))
    var problems = Seq.empty[String]
    try {
      if (traced) {
        val s0    = System.nanoTime()
        val space = SynthFloorplan.mall(MallSeed)
        layers += "indoor.space_build_ms" -> millis(System.nanoTime() - s0)
        val (stages, lambda) = stagedPipeline(spark, space)
        layers ++= stages.map { case (k, v) => s"sim.pipeline.${k}_s" -> v }
        if (!sameLambda(lambda, built.model.lambda))
          problems :+= "stage-by-stage λ differs from RealDataPipeline.build's"
      }
    } finally spark.stop()
    (built.space, built.model, reps.map(r => seconds(r._3)), layers, problems)
  }

  /** `RealDataPipeline.build`'s Spark stages called one at a time with its
    * default arguments, each materialized before the next starts. Returns
    * the seconds per stage and the fitted λ.
    */
  private def stagedPipeline(spark: SparkSession, space: IndoorSpace): (Seq[(String, Double)], Map[EdgeKey, Double]) = {
    val nObjects = 1598
    val span     = 3600.0
    val scale    = 25.0
    var times    = Seq.empty[(String, Double)]
    def stage[A](name: String)(body: => A): A = {
      val t0 = System.nanoTime()
      val a  = body
      times :+= name -> seconds(System.nanoTime() - t0)
      a
    }
    val traj = stage("traj") {
      val t = TrajectoryGen.generate(spark, space, nObjects, span, seed = MallSeed).cache(); t.count(); t
    }
    val pairs = stage("pairs") {
      val p = FlowCounting.consecutivePairs(traj).cache(); FlowCounting.disconnectedFraction(spark, space, p); p
    }
    val cross = stage("crossings") {
      val c = FlowCounting.crossings(spark, space, pairs).cache(); c.count(); c
    }
    val flows = stage("windows") {
      val f = FlowCounting.windowedFlows(cross).cache(); f.count(); f
    }
    val lambda = stage("lambda_fit") {
      FlowCounting.fitLambdas(flows, math.max(1L, (span / 10.0).toLong), scale)
    }
    traj.unpersist(); pairs.unpersist(); cross.unpersist(); flows.unpersist()
    (times, lambda)
  }

  /** Same edges and rates; rates may differ in the last bits because Spark's
    * summation order depends on task scheduling.
    */
  private def sameLambda(a: Map[EdgeKey, Double], b: Map[EdgeKey, Double]): Boolean =
    a.keySet == b.keySet && a.forall { case (k, x) => Check.close(x, b(k)) }
}

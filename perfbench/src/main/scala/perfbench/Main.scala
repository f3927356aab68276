package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{QueryType, Search}
import repro.exp.Harness
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Benchmark entry point: one workload, one seed, one process.
  *
  * `--trace 0` measures end-to-end metrics through the entry points the
  * tables use (`Harness.runOnce`, hence `Search.run`, `Gtg.run` and
  * `Adaptive.run`). `--trace 1` runs every query traced (see [[Trace]]), the
  * queries of a few instances untraced as well, and reports per-layer metrics
  * plus the tracing overhead.
  * Both print a context line and then the result line on standard output.
  */
object Main {

  final case class Opts(
      workload: String = "",
      seed: Long = 0L,
      seconds: Int = 10,
      trace: Boolean = false,
      reference: Path = Paths.get("reference.tsv"),
      scratch: Path = Paths.get("."),
      commit: String = "unknown",
      record: Boolean = false,
  )

  @annotation.tailrec
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest  => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest      => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest   => parse(rest, o.copy(seconds = v.toInt))
    case "--trace" :: v :: rest     => parse(rest, o.copy(trace = v.toInt != 0))
    case "--reference" :: v :: rest => parse(rest, o.copy(reference = Paths.get(v)))
    case "--scratch" :: v :: rest   => parse(rest, o.copy(scratch = Paths.get(v)))
    case "--commit" :: v :: rest    => parse(rest, o.copy(commit = v))
    case "--record" :: rest         => parse(rest, o.copy(record = true))
    case Nil                        => o
    case other                      => sys.error(s"unexpected arguments: ${other.mkString(" ")}")
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val o = parse(argv.toList)
        new Runner(Workloads.byName(o.workload), o).run()
        0
      } catch { case e: Throwable => e.printStackTrace(); 2 }
    System.exit(code)
  }
}

/** One traced execution: its layer breakdown and the result's search counters. */
final case class Traced(trace: QueryTrace, stats: Search.Stats)

object Runner {
  /** Pool instances whose queries a traced run also runs untraced. */
  val TwinInstances = 3
}

final class Runner(w: Workload, o: Main.Opts) {
  import Workloads.MaxGrid

  private val loaded   = Workloads.load(w, o.trace, o.scratch)
  private val model    = loaded.model
  private val sim      = loaded.sim
  private val pool     = loaded.pool
  private val tq       = model.t0
  private val problems = ArrayBuffer[String](loaded.problems: _*)
  private val items    = for (i <- pool.indices; c <- w.columns) yield (i, c)

  private def qtName(qt: QueryType): String    = if (qt == QueryType.FPQ) "fpq" else "lcpq"
  private def goldLabel(qt: QueryType): String = "gold-" + qtName(qt).toUpperCase

  /** Gold paths, computed once per (instance, query type). */
  private val goldNs = mutable.Map.empty[QueryType, Long].withDefaultValue(0L)
  private val gold: Map[(Int, QueryType), Search.Result] =
    (for (i <- pool.indices; qt <- w.queryTypes) yield {
      val t0 = System.nanoTime()
      val g  = Harness.gold(model, sim, pool(i), tq, qt, MaxGrid)
      goldNs(qt) += System.nanoTime() - t0
      (i, qt) -> g
    }).toMap

  private def runPlain(i: Int, c: Column): (Search.Result, Long) = {
    val t0 = System.nanoTime()
    val r  = Harness.runOnce(model, sim, c.variant, pool(i), tq, c.qt, MaxGrid)
    (r, System.nanoTime() - t0)
  }

  def run(): Unit = if (o.record) record() else measure()

  private def record(): Unit = {
    val golds = for (i <- pool.indices; qt <- w.queryTypes) yield (i, goldLabel(qt), gold((i, qt)))
    val runs  = items.map { case (i, c) => (i, c.label, runPlain(i, c)._1) }
    Reference.write(o.reference,
      s"${w.name}: ${pool.size} instances (seed ${w.instanceSeed}), maxGrid $MaxGrid, deterministic world",
      golds ++ runs)
    Console.err.println(s"[perfbench] wrote ${golds.size + runs.size} reference entries to ${o.reference}")
  }

  private def measure(): Unit = {
    val ref = Reference.load(o.reference)
    for (((i, qt), g) <- gold.toSeq.sortBy(_._1._1))
      if (!ref.matches(i, goldLabel(qt), g))
        problems += s"gold path of instance $i (${qtName(qt)}) differs from the reference"

    var attempted = 0L
    var failed    = 0L
    def check(i: Int, c: Column, r: Search.Result): Unit = {
      attempted += 1
      val ok = r.found && ref.matches(i, c.label, r) && (!c.exactFamily || Check.same(r, gold((i, c.qt))))
      if (!ok) failed += 1
    }

    // warm-up: every column once on the first instance, untimed
    w.columns.foreach { c =>
      runPlain(0, c)
      if (o.trace) Trace.run(model, sim, c.variant, pool(0), tq, c.qt, MaxGrid)
    }
    System.gc()

    val latencies = mutable.Map.empty[QueryType, ArrayBuffer[Double]]
    val traced    = mutable.Map.empty[QueryType, ArrayBuffer[Traced]]
    val overheads = mutable.Map.empty[QueryType, ArrayBuffer[Double]]
    val firstPass = mutable.Map.empty[(Int, Column), Search.Result]
    val records   = ArrayBuffer.empty[String]
    val rng       = new Random(o.seed)
    val budgetNs  = o.seconds * 1000000000L

    val gc0    = Jvm.gcMillis()
    val alloc0 = Jvm.allocatedBytes()
    val wall0  = System.nanoTime()
    var passes = 0
    var passNs = 0L
    // closed loop, one client: whole passes over the pool in seeded order;
    // past the workload's minimum, a pass starts only if one as long as the
    // last still fits the budget
    while (passes < w.minPasses || System.nanoTime() - wall0 + passNs <= budgetNs) {
      val p0 = System.nanoTime()
      for ((i, c) <- rng.shuffle(items)) {
        val r =
          if (!o.trace) {
            val (r, ns) = runPlain(i, c)
            latencies.getOrElseUpdate(c.qt, ArrayBuffer.empty) += ns / 1e6
            records += Json.render(Json.obj("instance" -> i, "column" -> c.label, "ms" -> ns / 1e6))
            r
          } else {
            // the first TwinInstances also run untraced, alternating which
            // twin goes first: the self-test of the wrapping, and the overhead
            val twin         = i < Runner.TwinInstances
            val plainFirst   = twin && overheads.values.map(_.size).sum % 2 == 0
            val early        = if (plainFirst) runPlain(i, c) else null
            val (tr, qtrace) = Trace.run(model, sim, c.variant, pool(i), tq, c.qt, MaxGrid)
            if (twin) {
              val (plain, ns) = if (plainFirst) early else runPlain(i, c)
              check(i, c, plain)
              if (!Check.same(plain, tr)) problems += s"traced ${c.label} on instance $i differs from the untraced run"
              overheads.getOrElseUpdate(c.qt, ArrayBuffer.empty) += (qtrace.totalNs - ns) / 1e6
            }
            latencies.getOrElseUpdate(c.qt, ArrayBuffer.empty) += qtrace.totalNs / 1e6
            traced.getOrElseUpdate(c.qt, ArrayBuffer.empty) += Traced(qtrace, tr.stats)
            records += traceRecord(i, c, qtrace, tr.stats)
            tr
          }
        check(i, c, r)
        if (passes == 0) firstPass((i, c)) = r
      }
      passNs = System.nanoTime() - p0
      passes += 1
    }
    val wallNs     = System.nanoTime() - wall0
    val allocBytes = Jvm.allocatedBytes(alloc0)
    val gcMs       = Jvm.gcMillis() - gc0

    if (!w.usesSpark && SparkSession.getDefaultSession.isDefined)
      problems += "an office workload started a SparkSession"

    // accuracy over the first pass, as Harness.evaluate scores it
    def accuracy(entries: Iterable[((Int, Column), Search.Result)]): (Double, Double) = {
      var hits = 0; var errSum = 0.0; var errCnt = 0
      for (((i, c), r) <- entries) {
        val g = gold((i, c.qt))
        if (r.found && g.found) {
          if (r.doorSeq == g.doorSeq) hits += 1
          val pg = Harness.primary(c.qt, g.cost)
          if (pg > 0) { errSum += math.abs(Harness.primary(c.qt, r.cost) - pg) / pg; errCnt += 1 }
        }
      }
      (100.0 * hits / entries.size, if (errCnt == 0) 0.0 else errSum / errCnt)
    }
    val (hitPct, relErr) = accuracy(firstPass)
    val perColumn = Json.obj(w.columns.map { c =>
      val (h, e) = accuracy(firstPass.filter(_._1._2 == c))
      c.label -> Json.obj("hit_pct" -> h, "rel_err" -> e)
    }: _*)
    val failedPct = 100.0 * failed / attempted

    val tails = Json.obj(w.queryTypes.map { qt =>
      val xs = latencies(qt)
      qtName(qt) -> Json.obj("percentile" -> Quantiles.tail(xs.toSeq)._2, "samples" -> xs.size)
    }: _*)

    val metrics =
      if (!o.trace) {
        def lat(qt: QueryType) = latencies(qt).toSeq
        Seq(
          ("setup_s", Quantiles.median(loaded.setupSeconds), "s"),
          ("fpq_ms_p50", Quantiles.hd(lat(QueryType.FPQ), 0.5), "ms"),
          ("fpq_ms_tail", Quantiles.tail(lat(QueryType.FPQ))._1, "ms"),
          ("lcpq_ms_p50", Quantiles.hd(lat(QueryType.LCPQ), 0.5), "ms"),
          ("lcpq_ms_tail", Quantiles.tail(lat(QueryType.LCPQ))._1, "ms"),
          ("queries_per_s", attempted / (wallNs / 1e9), "1/s"),
          ("alloc_mb_per_query", allocBytes / 1e6 / attempted, "MB"),
          ("hit_pct", hitPct, "%"),
        )
      } else layerMetrics(traced, overheads, gcMs / attempted.toDouble)

    val context = Json.obj(
      "workload" -> w.name,
      "seed"     -> o.seed,
      "seconds"  -> o.seconds,
      "trace"    -> o.trace,
      "commit"   -> o.commit,
      "machine" -> Json.obj(
        "nproc"       -> Runtime.getRuntime.availableProcessors(),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory() / (1L << 20),
        "jdk"         -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark"       -> org.apache.spark.SPARK_VERSION,
        "os"          -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}",
      ),
      "inputs" -> Json.obj(
        "instances"     -> pool.size,
        "instance_seed" -> w.instanceSeed,
        "model_seed"    -> (if (w.usesSpark) Workloads.MallSeed else Workloads.OfficeSeed),
        "world_seed"    -> Workloads.WorldSeed,
        "world"         -> "deterministic",
        "columns"       -> w.columns.map(_.label),
        "max_grid"      -> MaxGrid,
        "ti_s"          -> Workloads.Ti,
        "s2t_m"         -> Workloads.S2t,
        "tq"            -> "t0",
      ),
      "run" -> Json.obj(
        "passes"        -> passes,
        "executions"    -> attempted,
        "setup_reps_s"  -> loaded.setupSeconds,
        "spark"         -> (if (w.usesSpark) "set-up only, stopped before queries" else "never started"),
        "tail"          -> tails,
      ),
      "quality" -> Json.obj("hit_pct" -> hitPct, "rel_err" -> relErr, "failed_pct" -> failedPct, "columns" -> perColumn),
      "problems" -> problems.toSeq,
    )

    val file = o.scratch.resolve("queries").resolve(s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.jsonl")
    Files.createDirectories(file.getParent)
    Files.write(file, records.map(_ + "\n").mkString.getBytes(UTF_8))
    report(metrics, failedPct, relErr, tails)
    println(Json.render(Json.obj("context" -> context)))
    println(Json.render(Json.obj(
      "correct"   -> (failed == 0 && problems.isEmpty),
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> Json.obj(metrics.map { case (k, v, u) => k -> Json.obj("value" -> v, "unit" -> u) }: _*),
    )))
  }

  private def traceRecord(i: Int, c: Column, t: QueryTrace, s: Search.Stats): String =
    Json.render(Json.obj(
      "instance" -> i, "column" -> c.label, "ms" -> t.totalNs / 1e6,
      "estimator_ms" -> t.estimatorNs / 1e6, "crowd_ms" -> t.crowdNs / 1e6, "core_ms" -> t.coreNs / 1e6,
      "lookups" -> t.lookups, "pop_derivations" -> s.popDerivations, "flow_writes" -> s.flowDerivations,
      "pushes" -> s.pushes, "settled" -> s.settled, "queue_peak" -> s.queuePeak, "max_step" -> t.maxStep,
      "horizon_lookups" -> t.horizonLookups, "replans" -> t.replans))

  /** Per-layer metrics of a traced run; a layer the workload does not
    * exercise reads 0.
    */
  private def layerMetrics(
      traced: collection.Map[QueryType, ArrayBuffer[Traced]],
      overheads: collection.Map[QueryType, ArrayBuffer[Double]],
      gcMsPerQuery: Double,
  ): Seq[(String, Double, String)] = {
    val out = ArrayBuffer.empty[(String, Double, String)]
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    for (qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val xs = traced.getOrElse(qt, ArrayBuffer.empty[Traced])
      val n  = xs.size.toDouble
      def mean(f: Traced => Double) = ratio(xs.map(f).sum, n)
      def sum(f: Traced => Double)  = xs.map(f).sum
      val q = qtName(qt)
      out ++= Seq(
        (s"estimator.self_ms.$q", mean(_.trace.estimatorNs / 1e6), "ms"),
        (s"estimator.share.$q", ratio(sum(_.trace.estimatorNs.toDouble), sum(_.trace.totalNs.toDouble)), "ratio"),
        (s"estimator.lookups.$q", mean(_.trace.lookups.toDouble), "count/query"),
        (s"estimator.pop_derivations.$q", mean(_.stats.popDerivations.toDouble), "count/query"),
        (s"estimator.flow_writes.$q", mean(_.stats.flowDerivations.toDouble), "count/query"),
        (s"estimator.derived_per_lookup.$q", ratio(sum(_.stats.popDerivations.toDouble), sum(_.trace.lookups.toDouble)), "derived/lookup"),
        (s"estimator.max_step.$q", xs.map(_.trace.maxStep.toDouble).maxOption.getOrElse(0.0), "step"),
        (s"estimator.horizon_lookups.$q", mean(_.trace.horizonLookups.toDouble), "count/query"),
        (s"core.self_ms.$q", mean(_.trace.coreNs / 1e6), "ms"),
        (s"core.pushes.$q", mean(_.stats.pushes.toDouble), "count/query"),
        (s"core.settled.$q", mean(_.stats.settled.toDouble), "count/query"),
        (s"core.queue_peak.$q", mean(_.stats.queuePeak.toDouble), "count/query"),
        (s"core.settled_per_push.$q", ratio(sum(_.stats.settled.toDouble), sum(_.stats.pushes.toDouble)), "settled/push"),
        (s"core.gold_ms.$q", if (w.queryTypes.contains(qt)) goldNs(qt) / 1e6 / pool.size else 0.0, "ms"),
        (s"core.replans.$q", mean(_.trace.replans.toDouble), "count/query"),
        (s"trace.overhead_ms.$q", overheads.get(qt).map(d => Quantiles.median(d.toSeq)).getOrElse(0.0), "ms"),
      )
    }
    val all = traced.values.flatten.toSeq
    val n   = all.size.toDouble
    out ++= Seq(
      ("crowd.state_init_ms", ratio(all.map(_.trace.stateInitNs / 1e6).sum, n), "ms"),
      ("crowd.resync_ms", ratio(all.map(_.trace.resyncNs / 1e6).sum, n), "ms"),
      ("jvm.gc_ms_per_query", gcMsPerQuery, "ms"),
    )
    val layerNames = Seq("crowd.model_build_ms", "indoor.space_build_ms", "sim.evolve_ms", "exp.instances_ms") ++
      Seq("spark_start", "traj", "pairs", "crossings", "windows", "lambda_fit").map(s => s"sim.pipeline.${s}_s")
    out ++= layerNames.map(k => (k, loaded.layers.getOrElse(k, 0.0), if (k.endsWith("_s")) "s" else "ms"))
    out.toSeq
  }

  /** Human-readable summary on standard error. */
  private def report(metrics: Seq[(String, Double, String)], failedPct: Double, relErr: Double, tails: Map[String, Any]): Unit = {
    val err = Console.err
    err.println(s"[perfbench] ${w.name} seed=${o.seed} trace=${o.trace}: failed_pct=$failedPct rel_err=$relErr tail=${Json.render(tails)}")
    metrics.foreach { case (k, v, u) => err.println(f"[perfbench]   $k%-36s $v%14.4f $u") }
    problems.foreach(p => err.println(s"[perfbench] PROBLEM: $p"))
  }
}

/** JVM-wide counters read around the query phase. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Bytes allocated so far by each live thread. */
  def allocatedBytes(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).toMap
  }

  /** Bytes allocated by all threads since `before`. */
  def allocatedBytes(before: Map[Long, Long]): Long =
    allocatedBytes().iterator.map { case (id, b) => if (b < 0) 0L else b - before.getOrElse(id, 0L) }.sum
}

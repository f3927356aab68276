package repro.graphx

import org.apache.spark.graphx.{Graph, TripletFields}
import org.apache.spark.sql.SparkSession
import repro.crowd.{CrowdModel, ModelState}

/** Algorithm 1 (PopulationGlobal) as a distributed GraphX dataflow.
  *
  * Each grid step is two `aggregateMessages` rounds over the crowd graph:
  *
  *  1. every edge whose door reports at step g sends its expected flow λ to
  *     its *source* vertex; the sums give each partition's un-rectified
  *     outflow, from which Figure 4's scale ([[ModelState.scale]]) is
  *     derived per partition;
  *  2. every edge sends its rectified flow (λ · scale(src)) to both
  *     endpoints as an (out, in) pair, and Eq. 6 ([[ModelState.next]])
  *     updates every vertex population at once.
  *
  * Verified against the sequential [[repro.estimator.GlobalEstimator]] in
  * tests: identical populations (up to 1e-9) at every step.
  */
object GraphXEstimator {

  /** Evolve populations `steps` grid steps forward; returns the dense
    * timeline `pops(g)(v)` (g = 0 is the initial population) — the input to
    * the Pregel search's time-dependent weights.
    */
  def derive(spark: SparkSession, model: CrowdModel, steps: Int): Array[Array[Double]] = {
    var graph    = CrowdGraph.build(spark, model).cache()
    val offset   = model.gridOffset
    val timeline = Array.newBuilder[Array[Double]]
    def collectPops(): Unit = {
      val pops = new Array[Double](model.space.numPartitions)
      graph.vertices.collect().foreach { case (id, a) => pops(id.toInt) = a.pop }
      timeline += pops
    }
    collectPops()

    for (g <- 1 to steps) {
      // round 1: expected outflow sums -> rectification scale per vertex
      val outSums = graph.aggregateMessages[Double](
        ctx => if ((g + offset) % ctx.attr.reportEvery == 0) ctx.sendToSrc(ctx.attr.lambda),
        _ + _,
        TripletFields.EdgeOnly,
      )
      val withScale: Graph[(CrowdGraph.VAttr, Double), CrowdGraph.EAttr] =
        graph.outerJoinVertices(outSums)((_, attr, out) => (attr, ModelState.scale(attr.pop, out.getOrElse(0.0))))
      // round 2: rectified flows as (out, in) pairs -> Eq. 6
      val flows = withScale.aggregateMessages[(Double, Double)](
        ctx =>
          if ((g + offset) % ctx.attr.reportEvery == 0) {
            val f = ctx.attr.lambda * ctx.srcAttr._2
            ctx.sendToSrc((f, 0.0))
            ctx.sendToDst((0.0, f))
          },
        (a, b) => (a._1 + b._1, a._2 + b._2),
        TripletFields.Src,
      )
      val next = withScale.outerJoinVertices(flows) { (_, va, f) =>
        val (out, in) = f.getOrElse((0.0, 0.0))
        va._1.copy(pop = ModelState.next(va._1.pop, out, in))
      }
      val old = graph
      graph = next.cache()
      graph.vertices.count() // materialize before unpersisting the parent
      old.unpersist(blocking = false)
      collectPops()
    }
    graph.unpersist(blocking = false)
    timeline.result()
  }
}

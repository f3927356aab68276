package repro.graphx

import org.apache.spark.graphx.{Edge, Graph, VertexId}
import org.apache.spark.sql.SparkSession
import repro.crowd.CrowdModel
import repro.indoor.CrowdType

/** GraphX materialization of the indoor crowd model G(V, E, L_V, L_E):
  * vertices = partitions (carrying the vertex-label fields), edges = the
  * directed door links (carrying the edge-label fields λ and report period).
  * This is the distributed-dataflow substrate the reproduction hint asks
  * for; the distributed estimator and Pregel search run over it.
  */
object CrowdGraph {

  /** Vertex label: the (v_i, Area, τ, P_{t_l}) parts of L_V. M_d2d stays on
    * the driver-side space (it is per-partition static geometry used by the
    * search expansions, not by population evolution).
    */
  final case class VAttr(area: Double, isQ: Boolean, pop: Double)

  /** Edge label: flow function parameter λ and the door's report period
    * (grid steps) + door id.
    */
  final case class EAttr(lambda: Double, reportEvery: Int, door: Int)

  def build(spark: SparkSession, model: CrowdModel): Graph[VAttr, EAttr] = {
    val sc = spark.sparkContext
    val vertices = sc.parallelize(
      (0 until model.space.numPartitions).map { v =>
        (v.toLong: VertexId, VAttr(model.area(v), model.tau(v) == CrowdType.Q, model.initialPop(v)))
      }
    )
    val edges = sc.parallelize(
      model.edges.zipWithIndex.map { case (e, ei) =>
        Edge(e.from.toLong, e.to.toLong, EAttr(model.rate(ei), model.reportEvery(e.door), e.door))
      }
    )
    Graph(vertices, edges)
  }
}

package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core.{KVCCEnumerator, KvccStats, Variant}
import repro.graph.AdjGraph

/** Distributed KVCC-ENUM driver (DESIGN.md §4).
  *
  * Bulk phases run as distributed dataflow — k-core as iterative DataFrame
  * joins, connected components via GraphX — and each resulting component is
  * shipped to an executor as one RDD element, where the recursive
  * cut-and-partition kernel (`KVCCEnumerator`) enumerates its k-VCCs. The
  * post-k-core components are orders of magnitude smaller than the input
  * graph (that is the point of Algorithm 1's pre-pruning), so this mirrors
  * the paper's partition-then-solve structure at cluster scale.
  */
object KVCCSpark {

  /** All k-VCCs of the graph in `edges` (any (src,dst) table), as sorted
    * vertex-id vectors. Each component's task counts into its own
    * `KvccStats`; the driver adds them all into `stats`.
    */
  def enumerate(
      edges: DataFrame,
      k: Int,
      variant: Variant = Variant.Star,
      stats: KvccStats = new KvccStats): Vector[Vector[Long]] = {
    val core = KCoreSpark.kCore(edges, k)
    val labels = ConnectedComponentsSpark.viaGraphX(core)
    val perComponent = core
      .join(labels.withColumnRenamed("vertex", "src"), "src")
      .select("component", "src", "dst")
      .rdd
      .map(r => (r.getLong(0), (r.getLong(1), r.getLong(2))))
      .groupByKey()
      .map { case (_, es) =>
        val s = new KvccStats
        val kvccs = KVCCEnumerator.enumerate(AdjGraph.fromEdges(es), k, variant, s)
        (kvccs.map(_.sortedIds.toVector), s)
      }
      .collect()
    perComponent.foreach { case (_, s) => stats.add(s) }
    perComponent.toVector.flatMap(_._1).sortBy(v => (v.length, v.mkString(",")))
  }
}

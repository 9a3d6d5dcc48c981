package repro.spark

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.DataFrame

/** Distributed connected components (Algorithm 1, line 3) via the GraphX
  * `ConnectedComponents` Pregel program: each vertex is labeled by the
  * minimum vertex id of its component. Tests check it against the local
  * kernel and against a DuckDB recursive-CTE oracle.
  */
object ConnectedComponentsSpark {

  /** (vertex: long, component: long) via GraphX. */
  def viaGraphX(canonicalEdges: DataFrame): DataFrame = {
    val spark = canonicalEdges.sparkSession
    val edgeRdd = canonicalEdges.rdd.map(r => Edge(r.getLong(0), r.getLong(1), 1))
    val graph = Graph.fromEdges(edgeRdd, defaultValue = 1)
    val cc = graph.connectedComponents().vertices // (vid, lowest id in component)
    spark.createDataFrame(cc.map { case (v, c) => (v, c) })
      .toDF("vertex", "component")
  }
}

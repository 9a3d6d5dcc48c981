package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}

class CCSparkSpec extends SparkSpec {

  /** Local reference labeling: vertex -> min vertex id of its component. */
  private def localLabels(edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val g = AdjGraph.fromEdges(edges)
    GraphOps.connectedComponents(g).flatMap { comp =>
      val ids = comp.map(g.ids(_))
      val label = ids.min
      ids.map(_ -> label)
    }.toMap
  }

  private def collectLabels(df: org.apache.spark.sql.DataFrame): Map[Long, Long] =
    df.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  private def sparseEdges(seed: Long) =
    GraphGen.erdosRenyi(40, 0.04, seed) ++ Seq((100L, 101L), (102L, 103L), (102L, 104L))

  for (seed <- (1 to 5) ++ (51 to 55) :+ 99) {
    test(s"GraphX CC matches the local kernel (seed=$seed)") {
      val edges = sparseEdges(seed)
      val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
      assert(collectLabels(ConnectedComponentsSpark.viaGraphX(canon)) == localLabels(edges))
    }
  }

  test("CC labels match a DuckDB recursive-CTE oracle") {
    val edges = Seq((1L, 2L), (2L, 3L), (5L, 6L), (7L, 8L), (8L, 9L), (9L, 7L))
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val labels = ConnectedComponentsSpark.viaGraphX(canon)
      .select(col("vertex").cast("string").as("vertex"),
        col("component").cast("string").as("component"))
    Oracle.assertEquivalent(
      labels,
      """WITH RECURSIVE sym AS (
        |  SELECT CAST(src AS BIGINT) AS a, CAST(dst AS BIGINT) AS b FROM edges
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) AS a, CAST(src AS BIGINT) AS b FROM edges
        |), reach(v, r) AS (
        |  SELECT a, a FROM sym
        |  UNION
        |  SELECT sym.a, reach.r FROM sym JOIN reach ON sym.b = reach.v
        |)
        |SELECT CAST(v AS VARCHAR) AS vertex, CAST(MIN(r) AS VARCHAR) AS component
        |FROM reach GROUP BY v""".stripMargin,
      "edges" -> canon)
  }

  test("single component graph gets one label") {
    val edges = (0 until 20).map(i => (i.toLong, (i + 1).toLong))
    val canon = EdgeOps.canonicalize(EdgeOps.toDF(spark, edges))
    val labels = collectLabels(ConnectedComponentsSpark.viaGraphX(canon))
    assert(labels.values.toSet == Set(0L))
    assert(labels.keySet == (0L to 20L).toSet)
  }
}

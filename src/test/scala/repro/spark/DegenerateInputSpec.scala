package repro.spark

import repro.SparkSpec
import repro.core.{KVCCEnumerator, Variant}
import repro.graph.AdjGraph

/** Edge cases for both entry points, the local kernel and `KVCCSpark`, under
  * every variant: each case lists its input, k and the exact k-VCC sets.
  */
class DegenerateInputSpec extends SparkSpec {

  private def clique(ids: Long*): Seq[(Long, Long)] =
    for (i <- ids.indices; j <- i + 1 until ids.length) yield (ids(i), ids(j))

  private val sharedPair = Seq(-3L, 0L)
  private val negativeA = Seq(-1000000007L, 42L, 1000000000000L) ++ sharedPair
  private val negativeB = Seq(7L, 99999L, 123456789012L) ++ sharedPair
  private val extremes = Seq(Long.MinValue, Long.MinValue + 1, Long.MaxValue - 1, Long.MaxValue)

  // (name, edges, k, expected k-VCC vertex sets)
  private val cases: Seq[(String, Seq[(Long, Long)], Int, Set[Set[Long]])] = Seq(
    ("empty edge table", Seq.empty, 2, Set.empty),
    ("k=1 gives each component with an edge",
      Seq((0L, 1L), (1L, 2L), (5L, 6L)), 1, Set(Set(0L, 1L, 2L), Set(5L, 6L))),
    ("k above the max degree", clique(1, 2, 3, 4, 5), 5, Set.empty),
    ("self-loops and duplicate edges in both directions",
      clique(1, 2, 3, 4).flatMap { case (a, b) => Seq((a, b), (b, a), (a, b)) } ++
        Seq((1L, 1L), (3L, 3L), (9L, 9L)),
      3, Set(Set(1L, 2L, 3L, 4L))),
    ("negative and sparse ids", clique(negativeA: _*) ++ clique(negativeB: _*), 3,
      Set(negativeA.toSet, negativeB.toSet)),
    ("ids at Long.MinValue and Long.MaxValue", clique(extremes: _*), 3, Set(extremes.toSet)),
  )

  for ((name, edges, k, expected) <- cases) {
    test(s"$name: kernel and KVCCSpark give the expected k-VCCs under every variant") {
      for (variant <- Variant.all) {
        val local = KVCCEnumerator.canonical(KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), k, variant))
        assert(local.map(_.toSet).toSet == expected, s"kernel, ${variant.name}")
        assert(local.length == expected.size, s"kernel, ${variant.name}")
        val distributed = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, variant)
        assert(distributed == local, s"KVCCSpark, ${variant.name}")
      }
    }
  }

  test("k=0 is rejected by both paths") {
    val edges = clique(1, 2, 3)
    for (variant <- Variant.all) {
      intercept[IllegalArgumentException](KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), 0, variant))
      intercept[IllegalArgumentException](KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), 0, variant))
    }
  }
}

package repro.spark

import repro.SparkSpec
import repro.core.{KVCCEnumerator, KvccStats, Variant}
import repro.gen.{Datasets, GraphGen}
import repro.graph.AdjGraph
import scala.util.Random

class KVCCSparkSpec extends SparkSpec {

  private def localReference(edges: Seq[(Long, Long)], k: Int): Vector[Vector[Long]] =
    KVCCEnumerator.canonical(KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), k, Variant.Star))

  private def plantedEdges(seed: Long, blocks: Int, k: Int): Vector[(Long, Long)] = {
    val rnd = new Random(seed)
    val specs = Vector.fill(blocks)(
      GraphGen.BlockSpec(k + 4 + rnd.nextInt(4), 0.85, overlap = 1 + rnd.nextInt(k - 1)))
    GraphGen.plantedBlocks(specs, rnd).edges
  }

  /** Two disconnected planted clusters with disjoint id ranges, so the
    * pipeline ships more than one post-core component.
    */
  private def twoClusters(seedA: Long, seedB: Long, k: Int): Vector[(Long, Long)] = {
    val a = plantedEdges(seedA, blocks = 2, k = k)
    val shift = a.flatMap(e => Seq(e._1, e._2)).max + 100
    a ++ plantedEdges(seedB, blocks = 2, k = k).map { case (x, y) => (x + shift, y + shift) }
  }

  for (seed <- 1 to 4) {
    test(s"distributed pipeline equals local enumeration on planted graphs (seed=$seed)") {
      val k = 4
      val edges = plantedEdges(seed, blocks = 4, k = k)
      val df = EdgeOps.toDF(spark, edges)
      val got = KVCCSpark.enumerate(df, k, Variant.Star)
      assert(got == localReference(edges, k))
    }
  }

  test("distributed pipeline handles multiple post-core components") {
    val k = 3
    val edges = twoClusters(7, 8, k)
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got == localReference(edges, k))
    assert(got.nonEmpty)
  }

  test("enumerateWithStats returns the same result plus counters") {
    val k = 4
    val edges = plantedEdges(11, blocks = 3, k = k)
    val stats = new KvccStats
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star, stats)
    assert(got == localReference(edges, k))
    assert(stats.globalCutCalls > 0)
  }

  private def counters(s: KvccStats): Map[String, Long] = Map(
    "globalCutCalls" -> s.globalCutCalls, "partitions" -> s.partitions, "flowTests" -> s.flowTests,
    "phase1Processed" -> s.phase1Processed, "phase1Tested" -> s.phase1Tested,
    "prunedNs1" -> s.prunedNs1, "prunedNs2" -> s.prunedNs2, "prunedGs" -> s.prunedGs,
    "flowPhases" -> s.flowPhases, "augmentingPaths" -> s.augmentingPaths, "maxDepth" -> s.maxDepth,
    "certArcsScanned" -> s.certArcsScanned)

  private val statsInputs = Seq(
    ("two planted clusters, k=4", () => twoClusters(11, 12, k = 4), 4),
    ("Stanford at scale 1/1024, k=20",
      () => Datasets.generate(Datasets.byName("Stanford"), scale = 1.0 / 1024), 20))

  for ((name, input, k) <- statsInputs; variant <- Seq(Variant.Star, Variant.Basic)) {
    test(s"merged stats equal the local kernel's, field for field (${variant.name}, $name)") {
      val edges = input()
      val local = new KvccStats
      val expected = KVCCEnumerator.enumerate(AdjGraph.fromEdges(edges), k, variant, local)
      val distributed = new KvccStats
      val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, variant, distributed)
      assert(got == KVCCEnumerator.canonical(expected))
      assert(local.globalCutCalls > 0)
      assert(counters(distributed) == counters(local))
    }
  }

  test("empty result when k exceeds every block's connectivity") {
    val edges = plantedEdges(13, blocks = 2, k = 3)
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), 30, Variant.Star)
    assert(got.isEmpty)
  }

  test("dataset substitute end-to-end at tiny scale") {
    val edges = Datasets.generate(Datasets.byName("Stanford"), scale = 1.0 / 1024)
    val k = 20
    val got = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Star)
    assert(got == localReference(edges, k))
    // Structural sanity on whatever was found.
    got.foreach(v => assert(v.length > k))
    assert(got == got.sortBy(v => (v.length, v.mkString(","))))
    for (i <- got.indices; j <- i + 1 until got.length)
      assert(got(i).toSet.intersect(got(j).toSet).size < k)
    // All variants agree through the distributed path too.
    val basic = KVCCSpark.enumerate(EdgeOps.toDF(spark, edges), k, Variant.Basic)
    assert(basic == got)
  }
}

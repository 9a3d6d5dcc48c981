package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.SparkSpec
import repro.gen.{Datasets, GraphGen}
import repro.graph.AdjGraph
import scala.util.Random

/** Answers and Table 2 counters pinned to recorded literals.
  *
  * The counters depend on which minimum cut LOC-CUT returns (it drives the
  * partition tree), so a change to the flow kernel that keeps the canonical
  * cut must leave every value here unchanged. The planted graph has
  * non-unique minimum cuts: returning the minimum cut closest to v instead of
  * u moves its VCCE-N, VCCE-G and VCCE* counters.
  */
class PinnedCountersSpec extends SparkSpec {

  /** First 16 hex digits of SHA-256 over the canonical answer, one k-VCC per line. */
  private def digest(answer: Vector[Vector[Long]]): String =
    MessageDigest.getInstance("SHA-256")
      .digest(answer.map(_.mkString(",")).mkString("\n").getBytes(UTF_8))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  private def counters(s: KvccStats): Vector[Long] = Vector(
    s.globalCutCalls, s.partitions, s.flowTests, s.phase1Processed,
    s.phase1Tested, s.prunedNs1, s.prunedNs2, s.prunedGs)

  private def planted: Vector[(Long, Long)] = {
    val rnd = new Random(2024)
    val specs = Vector.fill(6)(
      GraphGen.BlockSpec(16 + rnd.nextInt(9), 0.5, overlap = 1 + rnd.nextInt(5)))
    GraphGen.plantedBlocks(specs, rnd).edges
  }

  private val inputs = Seq(
    ("Stanford at scale 1/1024", () => Datasets.generate(Datasets.byName("Stanford"), scale = 1.0 / 1024), 20),
    ("planted blocks (seed 2024)", () => planted, 6))

  // (input, variant) -> (digest, globalCutCalls, partitions, flowTests,
  // phase1Processed, phase1Tested, prunedNs1, prunedNs2, prunedGs)
  private val expected: Map[(String, String), (String, Vector[Long])] = {
    val stanford = "Stanford at scale 1/1024"
    val planted = "planted blocks (seed 2024)"
    Map(
      (stanford, "VCCE") -> ("4fcd157a15e7d4ca", Vector(3, 1, 160, 143, 143, 0, 0, 0)),
      (stanford, "VCCE-N") -> ("4fcd157a15e7d4ca", Vector(3, 1, 3, 90, 3, 46, 41, 0)),
      (stanford, "VCCE-G") -> ("4fcd157a15e7d4ca", Vector(3, 1, 23, 90, 59, 0, 0, 31)),
      (stanford, "VCCE*") -> ("4fcd157a15e7d4ca", Vector(3, 1, 2, 90, 2, 48, 13, 27)),
      (planted, "VCCE") -> ("9b6d0055c9c84cf0", Vector(10, 5, 139, 174, 174, 0, 0, 0)),
      (planted, "VCCE-N") -> ("9b6d0055c9c84cf0", Vector(10, 5, 38, 90, 24, 18, 48, 0)),
      (planted, "VCCE-G") -> ("9b6d0055c9c84cf0", Vector(10, 5, 57, 90, 71, 0, 0, 19)),
      (planted, "VCCE*") -> ("9b6d0055c9c84cf0", Vector(10, 5, 33, 90, 22, 18, 34, 16)))
  }

  for ((name, input, k) <- inputs; variant <- Variant.all) {
    test(s"answer and counters are pinned (${variant.name}, $name, k=$k)") {
      val stats = new KvccStats
      val answer = KVCCEnumerator.canonical(
        KVCCEnumerator.enumerate(AdjGraph.fromEdges(input()), k, variant, stats))
      val got = (digest(answer), counters(stats))
      assert(got == expected((name, variant.name)))
    }
  }
}

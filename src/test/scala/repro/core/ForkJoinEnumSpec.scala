package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import repro.SparkSpec
import repro.gen.{Datasets, GraphGen}
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable
import scala.util.Random

/** `KVCCEnumerator.enumerate` runs the partition tree on a fork-join pool;
  * these specs hold it to the sequential work-stack loop it replaced: the
  * same answer in the same order, the same counters, no stack growth with
  * partition depth, no state shared between concurrent calls, and failures
  * that reach the caller unchanged.
  */
class ForkJoinEnumSpec extends SparkSpec {

  /** The sequential loop, kept as the oracle. `maxDepth` is the depth of the
    * deepest subgraph popped (the input is depth 0).
    */
  private def sequential(g0: AdjGraph, k: Int, variant: Variant, stats: KvccStats): Vector[AdjGraph] = {
    val out = Vector.newBuilder[AdjGraph]
    val seen = mutable.HashSet.empty[Seq[Long]]
    val work = mutable.Stack[(AdjGraph, Int)]((g0, 0))
    while (work.nonEmpty) {
      val (g, depth) = work.pop()
      stats.maxDepth = math.max(stats.maxDepth, depth)
      val h = GraphOps.kCore(g, k)
      if (h.n > 0) {
        for (comp <- GraphOps.componentSubgraphs(h)) {
          stats.globalCutCalls += 1
          val cut = variant match {
            case Variant.Basic => GlobalCut.find(comp, k, stats)
            case v             => GlobalCutStar.find(comp, k, v, stats)
          }
          cut match {
            case None =>
              require(seen.add(comp.sortedIds.toSeq),
                s"k-VCC of ${comp.n} vertices emitted twice at k=$k (contradicts Lemma 3)")
              out += comp
            case Some(s) =>
              stats.partitions += 1
              Overlap.partition(comp, s).foreach(p => work.push((p, depth + 1)))
          }
        }
      }
    }
    out.result()
  }

  private def fields(s: KvccStats): Map[String, Long] = Map(
    "globalCutCalls" -> s.globalCutCalls, "partitions" -> s.partitions, "flowTests" -> s.flowTests,
    "phase1Processed" -> s.phase1Processed, "phase1Tested" -> s.phase1Tested,
    "prunedNs1" -> s.prunedNs1, "prunedNs2" -> s.prunedNs2, "prunedGs" -> s.prunedGs,
    "flowPhases" -> s.flowPhases, "augmentingPaths" -> s.augmentingPaths, "maxDepth" -> s.maxDepth)

  /** The answer in result order, one sorted id list per k-VCC. */
  private def ordered(result: Vector[AdjGraph]): Vector[Vector[Long]] = result.map(_.sortedIds.toVector)

  /** Runs both implementations; returns (answer, counters) of each. */
  private def both(g: AdjGraph, k: Int, variant: Variant) = {
    val (seqStats, fjStats) = (new KvccStats, new KvccStats)
    val expected = ordered(sequential(g, k, variant, seqStats))
    val got = ordered(KVCCEnumerator.enumerate(g, k, variant, fjStats))
    ((got, fields(fjStats)), (expected, fields(seqStats)))
  }

  /** The planted graph of `PinnedCountersSpec` (6 blocks, seed 2024, p=0.5). */
  private def planted: AdjGraph = {
    val rnd = new Random(2024)
    val specs = Vector.fill(6)(GraphGen.BlockSpec(16 + rnd.nextInt(9), 0.5, overlap = 1 + rnd.nextInt(5)))
    AdjGraph.fromEdges(GraphGen.plantedBlocks(specs, rnd).edges)
  }

  private def dataset(name: String, scale: Double): AdjGraph =
    AdjGraph.fromEdges(Datasets.generate(Datasets.byName(name), scale))

  /** `blocks` copies of K4 in a row, consecutive ones sharing two vertices:
    * block i is {2i, 2i+1, 2i+2, 2i+3}. At k=3 each block is a 3-VCC and
    * each shared pair a 2-cut, so the partition tree is a path.
    */
  private def k4Chain(blocks: Int): AdjGraph =
    AdjGraph.fromEdges(for (i <- 0 until blocks; a <- 0 to 3; b <- a + 1 to 3) yield ((2 * i + a).toLong, (2 * i + b).toLong))

  private lazy val inputs: Seq[(String, () => AdjGraph, Int)] = Seq(
    ("Stanford at scale 1/1024", () => dataset("Stanford", 1.0 / 1024), 20),
    ("planted blocks (seed 2024)", () => planted, 6),
    ("Cnr at scale 1/32", () => dataset("Cnr", 1.0 / 32), 30))

  for ((name, input, k) <- inputs; variant <- Variant.all) {
    test(s"same answer, order and counters as the sequential loop (${variant.name}, $name, k=$k)") {
      val ((got, gotStats), (expected, expectedStats)) = both(input(), k, variant)
      assert(expected.nonEmpty)
      assert(got == expected)
      assert(gotStats == expectedStats)
    }
  }

  test("20 repeated calls on one input return identical vectors and counters") {
    val g = planted
    val first = new KvccStats
    val reference = ordered(KVCCEnumerator.enumerate(g, 6, Variant.Star, first))
    for (_ <- 1 to 20) {
      val stats = new KvccStats
      assert(ordered(KVCCEnumerator.enumerate(g, 6, Variant.Star, stats)) == reference)
      assert(fields(stats) == fields(first))
    }
  }

  test("a chain of 1,000 K4 blocks (partition depth 999) enumerates on a 256 KB thread stack") {
    val g = k4Chain(1000)
    val stats = new KvccStats
    var result: Either[Throwable, Vector[AdjGraph]] = null
    val t = new Thread(null, () => {
      result = try Right(KVCCEnumerator.enumerate(g, 3, Variant.Star, stats)) catch { case e: Throwable => Left(e) }
    }, "enumerate-256k", 256L * 1024)
    t.start()
    t.join()
    val answer = result.fold(e => fail(e), identity)
    assert(answer.map(_.sortedIds.toVector).toSet == (0 until 1000).map(i => (2L * i to 2L * i + 3).toVector).toSet)
    assert(answer.length == 1000)
    assert(stats.maxDepth == 999)
    val seqStats = new KvccStats
    assert(ordered(answer) == ordered(sequential(g, 3, Variant.Star, seqStats)))
    assert(fields(stats) == fields(seqStats))
  }

  test("4 threads enumerating different inputs at once each match the sequential loop") {
    val jobs = Vector(
      (dataset("Stanford", 1.0 / 1024), 20, Variant.Star),
      (planted, 6, Variant.Basic),
      (planted, 6, Variant.GroupSweep),
      (k4Chain(300), 3, Variant.NeighborSweep))
    val expected = jobs.map { case (g, k, v) => val s = new KvccStats; (ordered(sequential(g, k, v, s)), fields(s)) }
    val results = new Array[Any](jobs.length)
    val start = new CountDownLatch(1)
    val threads = jobs.indices.map { i =>
      new Thread(() => {
        start.await()
        val (g, k, v) = jobs(i)
        results(i) = try { val s = new KvccStats; (ordered(KVCCEnumerator.enumerate(g, k, v, s)), fields(s)) }
        catch { case e: Throwable => e }
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join(TimeUnit.MINUTES.toMillis(5)))
    jobs.indices.foreach(i => assert(results(i) == expected(i), s"job $i"))
  }

  private def clique(vs: Seq[Int]): Seq[(Int, Int)] = for (a <- vs; b <- vs if a < b) yield (a, b)

  /** A graph straight from CSR arrays, so the tests below can build inputs
    * `AdjGraph.fromEdges` would refuse. `oneSided` edges are listed by their
    * first vertex only.
    */
  private def csr(ids: Array[Long], edges: Seq[(Int, Int)], oneSided: Seq[(Int, Int)] = Nil): AdjGraph = {
    val lists = Array.fill(ids.length)(mutable.SortedSet.empty[Int])
    for ((a, b) <- edges) { lists(a) += b; lists(b) += a }
    for ((a, b) <- oneSided) lists(a) += b
    AdjGraph.unsafe(ids, lists.scanLeft(0)(_ + _.size), lists.flatMap(_.toSeq))
  }

  /** K5 blocks 0..len-1 in a chain sharing one vertex each, then two K5s
    * P and Q joined only by an edge that P's vertex lists and Q's does not.
    * The flow network sees no P–Q edge, so GLOBAL-CUT returns the empty cut,
    * but the component BFS crosses the edge from P's side, so
    * OVERLAP-PARTITION's "not a cut" check fails at depth `len`.
    */
  private def brokenChain(len: Int): AdjGraph = {
    val base = 4 * len
    val edges = (0 until len).flatMap(i => clique(4 * i to 4 * i + 4)) ++
      clique((base to base + 3) :+ (base + 9)) ++ clique(base + 4 to base + 8)
    csr(Array.tabulate(base + 10)(_.toLong), edges, oneSided = Seq((base + 9, base + 4)))
  }

  test("an exception in a task below the root reaches the caller with its type and message") {
    val g = brokenChain(40)
    val expected = intercept[IllegalArgumentException](sequential(g, 4, Variant.Star, new KvccStats))
    assert(expected.getMessage.contains("not a cut"))
    // Which thread runs the failing task varies from call to call (12 to 23
    // of 100 calls failed on a pool worker on 4 cores), so the call repeats.
    for (_ <- 1 to 100) {
      val e = intercept[IllegalArgumentException](KVCCEnumerator.enumerate(g, 4, Variant.Star))
      assert(e.getMessage == expected.getMessage)
    }
  }

  test("the Lemma 3 duplicate check runs over the final result with the sequential loop's message") {
    // Two K5s sharing vertex 4, with ids chosen so both have ids {1..5}: the
    // 1-cut puts them in different tasks, and the caller's check rejects the pair.
    val g = csr(Array(1L, 2L, 3L, 4L, 5L, 1L, 2L, 3L, 4L), clique(0 to 4) ++ clique(4 to 8))
    val expected = intercept[IllegalArgumentException](sequential(g, 4, Variant.Star, new KvccStats))
    val got = intercept[IllegalArgumentException](KVCCEnumerator.enumerate(g, 4, Variant.Star))
    assert(got.getMessage == expected.getMessage)
    assert(got.getMessage.contains("k-VCC of 5 vertices emitted twice at k=4"))
  }
}

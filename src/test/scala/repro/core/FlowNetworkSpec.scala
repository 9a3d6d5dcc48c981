package repro.core

import repro.SparkSpec
import repro.gen.GraphGen
import repro.graph.{AdjGraph, GraphOps}
import scala.util.Random

class FlowNetworkSpec extends SparkSpec {

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph = {
    // ER + a spanning path to guarantee connectivity.
    val rnd = new Random(seed)
    val er = GraphGen.erdosRenyi(n, p, seed)
    val path = (0 until n - 1).map(i => (i.toLong, (i + 1).toLong))
    AdjGraph.fromEdges(er ++ path)
  }

  test("flow equals local connectivity on a 4-cycle") {
    // 0-1-2-3-0: κ(0,2) = 2 (cut {1,3})
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L)))
    val fn = new FlowNetwork(g)
    fn.reset()
    assert(fn.maxFlowUpTo(0, 2, 10) == 2)
    fn.reset()
    val f = fn.maxFlowUpTo(0, 2, 10)
    assert(f == 2)
    val cut = fn.minCutVertices()
    assert(cut.toSet == Set(1, 3))
  }

  test("early termination caps the flow value") {
    val g = AdjGraph.fromEdges(GraphGen.erdosRenyi(8, 1.0, 1)) // K8
    val fn = new FlowNetwork(g)
    fn.reset()
    assert(fn.maxFlowUpTo(0, 1, 3) == 3) // true κ is larger; cap respected
  }

  for (seed <- 1 to 20) {
    test(s"max flow equals naive κ(u,v) on random graphs (seed=$seed)") {
      val n = 6 + seed % 5
      val g = randomConnected(n, 0.35, seed)
      val fn = new FlowNetwork(g)
      val rnd = new Random(seed + 1000)
      for (_ <- 0 until 6) {
        val u = rnd.nextInt(g.n)
        val v = rnd.nextInt(g.n)
        if (u != v && !g.hasEdge(u, v)) {
          val naive = BruteForce.localConnectivityNaive(g, u, v)
          fn.reset()
          val flow = fn.maxFlowUpTo(u, v, g.n)
          assert(flow == naive, s"u=$u v=$v flow=$flow naive=$naive")
        }
      }
    }
  }

  for (seed <- 1 to 20) {
    test(s"min cut is a valid minimum u-v separator (seed=$seed)") {
      val n = 7 + seed % 6
      val g = randomConnected(n, 0.3, seed * 31)
      val fn = new FlowNetwork(g)
      val rnd = new Random(seed)
      for (_ <- 0 until 6) {
        val u = rnd.nextInt(g.n)
        val v = rnd.nextInt(g.n)
        if (u != v && !g.hasEdge(u, v)) {
          fn.reset()
          val flow = fn.maxFlowUpTo(u, v, g.n) // uncapped: true max flow
          val cut = fn.minCutVertices()
          assert(cut.length == flow, s"cut size ${cut.length} != flow $flow")
          assert(!cut.contains(u) && !cut.contains(v))
          // Removing the cut must separate u from v.
          val rest = (0 until g.n).filter(w => !cut.contains(w)).toArray
          val sub = g.induced(rest)
          val ui = rest.indexOf(u); val vi = rest.indexOf(v)
          assert(GraphOps.bfsDistances(sub, ui)(vi) == -1, "cut does not separate")
        }
      }
    }
  }

  test("locCut returns None for adjacent vertices and for the same vertex") {
    val g = AdjGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L)))
    val fn = new FlowNetwork(g)
    assert(LocalConnectivity.locCut(fn, g, 0, 1, 5).isEmpty)
    assert(LocalConnectivity.locCut(fn, g, 2, 2, 5).isEmpty)
  }

  for (seed <- 1 to 15) {
    test(s"locCut agrees with naive κ threshold (seed=$seed)") {
      val g = randomConnected(8, 0.3, seed * 7)
      val fn = new FlowNetwork(g)
      for (u <- 0 until g.n; v <- u + 1 until g.n if !g.hasEdge(u, v); k <- 1 to 4) {
        val naive = BruteForce.localConnectivityNaive(g, u, v)
        val cut = LocalConnectivity.locCut(fn, g, u, v, k)
        if (naive >= k) assert(cut.isEmpty, s"u=$u v=$v k=$k naive=$naive")
        else {
          assert(cut.isDefined)
          assert(cut.get.length == naive) // the minimum u-v cut
        }
      }
    }
  }

  /** The u-side vertex set of G − cut that contains u. */
  private def uSide(g: AdjGraph, cut: Set[Int], u: Int): Set[Int] = {
    val rest = (0 until g.n).filterNot(cut).toArray
    val dist = GraphOps.bfsDistances(g.induced(rest), rest.indexOf(u))
    rest.indices.filter(dist(_) >= 0).map(rest(_)).toSet
  }

  for (seed <- 1 to 15) {
    test(s"min cut is the minimum u-v cut with the smallest u side (seed=$seed)") {
      val n = 6 + seed % 5
      val g = randomConnected(n, 0.3, seed * 17)
      val fn = new FlowNetwork(g)
      for (u <- 0 until n; v <- 0 until n if u != v && !g.hasEdge(u, v)) {
        val kappa = BruteForce.localConnectivityNaive(g, u, v)
        val separators = (0 until n).filter(w => w != u && w != v).combinations(kappa)
          .map(_.toSet).filter(s => !uSide(g, s, u).contains(v)).toVector
        val expected = separators.minBy(s => uSide(g, s, u).size)
        fn.reset()
        assert(fn.maxFlowUpTo(u, v, n) == kappa)
        assert(fn.minCutVertices().toSet == expected, s"u=$u v=$v")
      }
    }
  }

  test("a reused network answers 200 mixed locCut calls like a fresh one") {
    val g = randomConnected(30, 0.15, 77)
    val fn = new FlowNetwork(g)
    val rnd = new Random(78)
    for (_ <- 0 until 200) {
      val u = rnd.nextInt(g.n); val v = rnd.nextInt(g.n); val k = 1 + rnd.nextInt(g.n)
      val reused = LocalConnectivity.locCut(fn, g, u, v, k).map(_.toVector)
      val fresh = LocalConnectivity.locCut(new FlowNetwork(g), g, u, v, k).map(_.toVector)
      assert(reused == fresh, s"u=$u v=$v k=$k")
    }
  }

  test("max flow on a 20,000-vertex cycle runs on a 256 KB thread stack") {
    val n = 20000
    val g = AdjGraph.fromEdges((0 until n).map(i => (i.toLong, ((i + 1) % n).toLong)))
    var result: Option[Array[Int]] = None
    var failure: Throwable = null
    val worker = new Thread(null, () =>
      try result = LocalConnectivity.locCut(new FlowNetwork(g), g, 0, n / 2, 3)
      catch { case e: Throwable => failure = e },
      "small-stack", 256 * 1024)
    worker.start()
    worker.join()
    assert(failure == null, s"max flow failed: $failure")
    assert(result.map(_.toSet) == Some(Set(1, n - 1)))
  }
}

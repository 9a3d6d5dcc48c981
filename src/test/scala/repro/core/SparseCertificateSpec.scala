package repro.core

import repro.SparkSpec
import repro.gen.GraphGen
import repro.gen.Datasets
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable
import scala.util.Random

class SparseCertificateSpec extends SparkSpec {

  /** The k-pass scan-first certificate over edge ids that the compacting
    * passes replaced, kept as the oracle. Also returns the adjacency slots a
    * scan of only the remaining edges reads: Σ_p 2·|E(G_p)|.
    */
  private def oracle(g: AdjGraph, k: Int): (SparseCertificate.Cert, Long) = {
    require(k >= 1, s"k must be >= 1, got $k")
    val n = g.n
    if (n == 0) return (SparseCertificate.Cert(g, Vector.empty), 0L)

    // Edge-id view of the graph: edge e = (edgeU(e), edgeV(e)).
    val m = g.m
    val edgeU = new Array[Int](m)
    val edgeV = new Array[Int](m)
    // Incident edge ids per vertex, CSR.
    val incOffsets = new Array[Int](n + 1)
    var v = 0
    while (v < n) { incOffsets(v + 1) = incOffsets(v) + g.degree(v); v += 1 }
    val incEdge = new Array[Int](incOffsets(n))
    val cursor = incOffsets.clone()
    var eid = 0
    v = 0
    while (v < n) {
      g.foreachNeighbor(v) { w =>
        if (v < w) {
          edgeU(eid) = v; edgeV(eid) = w
          incEdge(cursor(v)) = eid; cursor(v) += 1
          incEdge(cursor(w)) = eid; cursor(w) += 1
          eid += 1
        }
      }
      v += 1
    }
    val numEdges = eid // below m when some edges are listed by their upper end only

    val inCert = new Array[Boolean](m) // edge assigned to some forest F_i
    var taken = 0L
    var slots = 0L
    val visited = new Array[Int](n)    // pass stamp, 0 = never
    val queue = new Array[Int](n)
    var lastForestComp: Array[Int] = null

    var pass = 1
    while (pass <= k) {
      slots += 2 * (numEdges - taken)
      java.util.Arrays.fill(visited, 0)
      val comp = if (pass == k) new Array[Int](n) else null
      var root = 0
      var compId = 0
      while (root < n) {
        if (visited(root) == 0) {
          visited(root) = pass
          if (comp != null) comp(root) = compId
          var qh = 0; var qt = 0
          queue(qt) = root; qt += 1
          while (qh < qt) {
            val x = queue(qh); qh += 1
            var i = incOffsets(x)
            val end = incOffsets(x + 1)
            while (i < end) {
              val e = incEdge(i)
              if (!inCert(e)) {
                val y = if (edgeU(e) == x) edgeV(e) else edgeU(e)
                if (visited(y) == 0) {
                  visited(y) = pass
                  inCert(e) = true // tree edge of F_pass — removed from G_pass
                  taken += 1
                  if (comp != null) comp(y) = compId
                  queue(qt) = y; qt += 1
                }
              }
              i += 1
            }
          }
          compId += 1
        }
        root += 1
      }
      if (comp != null) lastForestComp = comp
      pass += 1
    }

    // Certificate adjacency from the union of forests.
    val certDeg = new Array[Int](n)
    eid = 0
    while (eid < m) {
      if (inCert(eid)) { certDeg(edgeU(eid)) += 1; certDeg(edgeV(eid)) += 1 }
      eid += 1
    }
    val certOffsets = new Array[Int](n + 1)
    v = 0
    while (v < n) { certOffsets(v + 1) = certOffsets(v) + certDeg(v); v += 1 }
    val certAdj = new Array[Int](certOffsets(n))
    val ccur = certOffsets.clone()
    eid = 0
    while (eid < m) {
      if (inCert(eid)) {
        val a = edgeU(eid); val b = edgeV(eid)
        certAdj(ccur(a)) = b; ccur(a) += 1
        certAdj(ccur(b)) = a; ccur(b) += 1
      }
      eid += 1
    }
    v = 0
    while (v < n) { java.util.Arrays.sort(certAdj, certOffsets(v), certOffsets(v + 1)); v += 1 }
    val cert = AdjGraph.unsafe(g.ids, certOffsets, certAdj)

    // Side-groups: components of F_k with more than k members.
    val groups: Vector[Array[Int]] =
      if (lastForestComp == null) Vector.empty
      else {
        val byComp = new mutable.HashMap[Int, mutable.ArrayBuilder.ofInt]()
        var i = 0
        while (i < n) {
          byComp.getOrElseUpdate(lastForestComp(i), new mutable.ArrayBuilder.ofInt) += i
          i += 1
        }
        byComp.valuesIterator.map(_.result()).filter(_.length > k).toVector
      }
    (SparseCertificate.Cert(cert, groups), slots)
  }

  /** The certificate's CSR arrays, its side-group set and the slots it
    * scanned all equal the oracle's.
    */
  private def assertMatchesOracle(g: AdjGraph, k: Int, clue: String): Unit = {
    val stats = new KvccStats
    val got = SparseCertificate.compute(g, k, stats)
    val (want, slots) = oracle(g, k)
    assert(got.graph.ids eq g.ids, clue)
    assert(got.graph.offsets.sameElements(want.graph.offsets), s"offsets differ: $clue")
    assert(got.graph.adj.sameElements(want.graph.adj), s"adj differs: $clue")
    assert(got.sideGroups.length == want.sideGroups.length, s"side-group count differs: $clue")
    assert(got.sideGroups.map(_.toVector).toSet == want.sideGroups.map(_.toVector).toSet,
      s"side-groups differ: $clue")
    assert(stats.certArcsScanned == slots, s"certArcsScanned differs: $clue")
  }

  test("certificate and side-groups equal the oracle's on 60 random graphs") {
    for (seed <- 1 to 60) {
      val rnd = new Random(seed)
      val n = if (seed <= 2) 1 else 2 + rnd.nextInt(40)
      val p = Seq(0.05, 0.15, 0.4, 0.8)(seed % 4)
      // Every third graph has a second, disjoint part; most get isolated vertices.
      val second = if (seed % 3 == 0) GraphGen.erdosRenyi(n, p, seed + 1000, offset = n) else Vector.empty
      val isolated = (2L * n until 2L * n + rnd.nextInt(3))
      val g = AdjGraph.fromEdges(GraphGen.erdosRenyi(n, p, seed) ++ second, (0L until n) ++ isolated)
      val k = seed % 5 match {
        case 0 => 1
        case 1 => g.maxDegree + 1 + rnd.nextInt(3)
        case _ => 1 + rnd.nextInt(8)
      }
      assertMatchesOracle(g, k, s"seed=$seed n=${g.n} m=${g.m} k=$k")
    }
  }

  test("certificate and side-groups equal the oracle's on CSR inputs that list some edges by their upper end only") {
    // Both read the edge set FlowNetwork reads, {v, w} with v < w listed by
    // v, so an edge only w lists is absent (as in ForkJoinEnumSpec's broken chain).
    for (seed <- 1 to 10) {
      val rnd = new Random(seed)
      val g = randomConnected(20 + rnd.nextInt(20), 0.3, seed + 500)
      val lists = Array.tabulate(g.n)(v =>
        g.adj.slice(g.offsets(v), g.offsets(v + 1)).filter(w => w < v || rnd.nextInt(8) != 0))
      val oneSided = AdjGraph.unsafe(g.ids, lists.scanLeft(0)(_ + _.length), lists.flatten)
      assertMatchesOracle(oneSided, 1 + rnd.nextInt(6), s"seed=$seed n=${g.n}")
    }
  }

  private val postCoreInputs = Seq(
    ("Stanford at scale 1/1024", () => Datasets.generate(Datasets.byName("Stanford"), scale = 1.0 / 1024), 20),
    ("planted blocks (seed 2024)", () => {
      // The planted graph of PinnedCountersSpec.
      val rnd = new Random(2024)
      val specs = Vector.fill(6)(
        GraphGen.BlockSpec(16 + rnd.nextInt(9), 0.5, overlap = 1 + rnd.nextInt(5)))
      GraphGen.plantedBlocks(specs, rnd).edges
    }, 6))

  for ((name, input, k) <- postCoreInputs) {
    test(s"certificate and side-groups equal the oracle's on every post-core component ($name, k=$k)") {
      val comps = GraphOps.componentSubgraphs(GraphOps.kCore(AdjGraph.fromEdges(input()), k))
      assert(comps.nonEmpty)
      comps.zipWithIndex.foreach { case (c, i) =>
        assertMatchesOracle(c, k, s"component $i n=${c.n} m=${c.m}")
      }
    }
  }

  private def randomConnected(n: Int, p: Double, seed: Long): AdjGraph =
    AdjGraph.fromEdges(
      GraphGen.erdosRenyi(n, p, seed) ++ (0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  test("certificate is a subgraph with at most k(n-1) edges") {
    for (seed <- 1 to 10; k <- Seq(1, 2, 3, 5)) {
      val g = randomConnected(15, 0.4, seed)
      val cert = SparseCertificate.compute(g, k).graph
      assert(cert.n == g.n)
      assert(cert.m <= k * (g.n - 1), s"seed=$seed k=$k m=${cert.m}")
      assert(cert.m <= g.m)
      val edges = g.edgeList.toSet
      cert.edgeList.foreach(e => assert(edges.contains(e)))
    }
  }

  test("certificate of a sparse graph is the graph itself") {
    val tree = AdjGraph.fromEdges((0 until 9).map(i => (i.toLong, (i + 1).toLong)))
    val cert = SparseCertificate.compute(tree, 3).graph
    assert(cert.m == tree.m)
  }

  test("certificate min degree is min(k, original degree)") {
    for (seed <- 1 to 5; k <- Seq(2, 3, 4)) {
      val g = randomConnected(14, 0.6, seed)
      val cert = SparseCertificate.compute(g, k).graph
      (0 until g.n).foreach { v =>
        assert(cert.degree(v) >= math.min(k, g.degree(v)), s"v=$v seed=$seed k=$k")
      }
    }
  }

  for (seed <- 1 to 15; k <- Seq(2, 3)) {
    test(s"certificate preserves k-vertex connectivity (seed=$seed, k=$k)") {
      val g = randomConnected(9, 0.45, seed * 13)
      val cert = SparseCertificate.compute(g, k).graph
      val kg = BruteForce.kappaNaive(g)
      val kc = BruteForce.kappaNaive(cert)
      assert(math.min(kg, k) == math.min(kc, k), s"κ(G)=$kg κ(cert)=$kc")
    }
  }

  for (seed <- 1 to 12) {
    test(s"STRONG certificate: G-S and SC-S have identical components for |S|<k (seed=$seed)") {
      val k = 3
      val g = randomConnected(10, 0.4, seed * 17)
      val cert = SparseCertificate.compute(g, k).graph
      val rnd = new Random(seed)
      // All subsets of size < k on a small graph.
      for (size <- 0 until k; s <- (0 until g.n).combinations(size)) {
        val keep = (0 until g.n).filter(v => !s.contains(v)).toArray
        val gComps = GraphOps.connectedComponents(g.induced(keep))
          .map(_.map(keep(_)).toSet).toSet
        val cComps = GraphOps.connectedComponents(cert.induced(keep))
          .map(_.map(keep(_)).toSet).toSet
        assert(gComps == cComps, s"S=${s.toList}")
      }
      rnd.nextInt() // silence unused warning
    }
  }

  for (seed <- 1 to 10) {
    test(s"side-groups: all members pairwise k-local-connected in the certificate (seed=$seed)") {
      val k = 3
      val g = randomConnected(12, 0.5, seed * 29)
      val SparseCertificate.Cert(cert, groups) = SparseCertificate.compute(g, k)
      groups.foreach { grp =>
        assert(grp.length > k)
        val fn = new FlowNetwork(cert)
        for (i <- grp.indices; j <- i + 1 until grp.length) {
          val c = LocalConnectivity.connectivityUpTo(fn, cert, grp(i), grp(j), k)
          assert(c >= k, s"pair (${grp(i)},${grp(j)}) has κ=$c < $k in certificate")
        }
      }
    }
  }

  test("side-groups only contain groups larger than k") {
    for (seed <- 1 to 5; k <- Seq(2, 3, 4)) {
      val g = randomConnected(14, 0.5, seed)
      val groups = SparseCertificate.compute(g, k).sideGroups
      groups.foreach(grp => assert(grp.length > k))
      // Groups are disjoint.
      val all = groups.flatten
      assert(all.distinct.length == all.length)
    }
  }
}

package repro.core

import repro.graph.AdjGraph

/** Basic GLOBAL-CUT (Algorithm 2): find a vertex cut of size < k, or prove
  * the graph k-connected.
  *
  * Phase 1 tests the source u against every other vertex (covers every cut
  * avoiding u); phase 2 tests every pair of neighbors of u (covers cuts
  * containing u, Lemma 4). All testing happens on the sparse certificate;
  * because the certificate is strong, a returned cut is a cut of the input
  * graph too.
  */
object GlobalCut {

  /** Returns Some(cut local indices) with |cut| < k, or None if k-connected.
    * `stats`, when provided, tallies the certificate's scanned arcs and
    * LOC-CUT invocations (flow tests) with their max-flow phases and
    * augmenting paths.
    */
  def find(g: AdjGraph, k: Int, stats: KvccStats = new KvccStats): Option[Array[Int]] = {
    val cert = SparseCertificate.compute(g, k, stats).graph
    val fn = new FlowNetwork(cert, stats)
    val u = cert.minDegreeVertex
    val n = cert.n
    // Phase 1: u against all other vertices.
    var v = 0
    while (v < n) {
      if (v != u) {
        if (!cert.hasEdge(u, v)) stats.flowTests += 1
        stats.phase1Processed += 1
        stats.phase1Tested += 1
        val cut = LocalConnectivity.locCut(fn, cert, u, v, k)
        if (cut.isDefined) return cut
      }
      v += 1
    }
    // Phase 2: pairs of neighbors of u.
    val adj = cert.adj
    val end = cert.offsets(u + 1)
    var i = cert.offsets(u)
    while (i < end) {
      var j = i + 1
      while (j < end) {
        val a = adj(i); val b = adj(j)
        if (!cert.hasEdge(a, b)) stats.flowTests += 1
        val cut = LocalConnectivity.locCut(fn, cert, a, b, k)
        if (cut.isDefined) return cut
        j += 1
      }
      i += 1
    }
    None
  }
}

package repro.core

import repro.graph.AdjGraph

/** Sparse certificate of k-vertex connectivity (Section 4.2, Theorem 5).
  *
  * Runs scan-first search (we use BFS, a special case as the paper notes)
  * k times; pass i extracts a spanning forest `F_i` of the edges not taken
  * by earlier passes. `F_1 ∪ … ∪ F_k` is a *strong* certificate
  * (Cheriyan–Kao–Thurimella): for any vertex set S with |S| < k, the
  * certificate minus S has the same connected components as G minus S — so a
  * small vertex cut found on the certificate is a cut of G.
  *
  * Side-groups (Section 5.2, Theorem 10): the connected components of the
  * last forest `F_k`. Any two vertices in the same component of `F_k` are
  * local-k-connected, so each component is a side-group; only groups with
  * more than k vertices are useful for sweeping and are returned.
  *
  * Compacting passes: pass p reads only the edges of
  * G_p = G − (F_1 ∪ … ∪ F_{p−1}). A working copy of the adjacency keeps a
  * live end per vertex; while x is scanned it writes back, in their original
  * order, the neighbours it keeps, and drops the edges that join F_p: its
  * parent edge and the tree edges it adds. When x is scanned its parent edge
  * is the only F_p edge in its list (children are added during the scan, and
  * nobody adds an edge to x once x is visited), so after the pass x's list is
  * exactly its G_{p+1} list in sorted order, and every pass visits and
  * parents the vertices as a scan that skips taken edges would. The
  * certificate is then G − G_{k+1}, list by list.
  *
  * G is the edge set `FlowNetwork` reads: {v, w} with v < w listed by v. On
  * an `AdjGraph` built by `fromEdges` or `induced` that is every edge.
  */
object SparseCertificate {

  /** `graph` shares the local index space (and `ids`) of the input graph;
    * `sideGroups` holds local-index groups (components of F_k, size > k),
    * each sorted, in component order.
    */
  final case class Cert(graph: AdjGraph, sideGroups: Vector[Array[Int]])

  /** `stats.certArcsScanned` receives the adjacency slots the passes read. */
  def compute(g: AdjGraph, k: Int, stats: KvccStats = new KvccStats): Cert = {
    require(k >= 1, s"k must be >= 1, got $k")
    val n = g.n
    if (n == 0) return Cert(g, Vector.empty)

    // The edges {v, w} with v < w that v lists (the edges FlowNetwork builds
    // arcs from), as sorted lists: each v appends itself to its upper
    // neighbours' lists in ascending order, then copies its own upper part.
    val gOff = g.offsets
    val gAdj = g.adj
    val start = new Array[Int](n + 1)
    val upper = new Array[Int](n) // first entry of v's list above v
    var v = 0
    while (v < n) {
      var i = gOff(v)
      val e = gOff(v + 1)
      while (i < e && gAdj(i) <= v) i += 1
      upper(v) = i
      start(v + 1) += e - i
      while (i < e) { start(gAdj(i) + 1) += 1; i += 1 }
      v += 1
    }
    v = 0
    while (v < n) { start(v + 1) += start(v); v += 1 }
    val full = new Array[Int](start(n))
    val end = java.util.Arrays.copyOf(start, n) // live end of each working list
    v = 0
    while (v < n) {
      var i = upper(v)
      while (i < gOff(v + 1)) {
        val w = gAdj(i)
        full(end(v)) = w; end(v) += 1
        full(end(w)) = v; end(w) += 1
        i += 1
      }
      v += 1
    }
    val work = full.clone()

    val visited = new Array[Int](n) // pass stamp, 0 = never
    val parent = new Array[Int](n)
    val queue = new Array[Int](n)
    val comp = new Array[Int](n)    // component of x in the current forest
    var numComps = 0
    var scanned = 0L

    var pass = 1
    while (pass <= k) {
      numComps = 0
      var root = 0
      while (root < n) {
        if (visited(root) != pass) {
          visited(root) = pass
          parent(root) = -1
          comp(root) = numComps
          var qh = 0; var qt = 0
          queue(qt) = root; qt += 1
          while (qh < qt) {
            val x = queue(qh); qh += 1
            val px = parent(x)
            var r = start(x)
            var w = r
            val e = end(x)
            scanned += e - r
            while (r < e) {
              val y = work(r)
              if (y != px) {
                if (visited(y) != pass) { // tree edge of F_pass: dropped
                  visited(y) = pass
                  parent(y) = x
                  comp(y) = numComps
                  queue(qt) = y; qt += 1
                } else {
                  work(w) = y; w += 1
                }
              }
              r += 1
            }
            end(x) = w
          }
          numComps += 1
        }
        root += 1
      }
      pass += 1
    }
    stats.certArcsScanned += scanned

    // The certificate is G − G_{k+1}: each full list minus the sorted
    // subsequence the passes left in the working list.
    val certOffsets = new Array[Int](n + 1)
    v = 0
    while (v < n) { certOffsets(v + 1) = certOffsets(v) + (start(v + 1) - end(v)); v += 1 }
    val certAdj = new Array[Int](certOffsets(n))
    var p = 0
    v = 0
    while (v < n) {
      var j = start(v)
      val e = end(v)
      var i = start(v)
      while (i < start(v + 1)) {
        val y = full(i)
        if (j < e && work(j) == y) j += 1
        else { certAdj(p) = y; p += 1 }
        i += 1
      }
      v += 1
    }
    val cert = AdjGraph.unsafe(g.ids, certOffsets, certAdj)

    // Side-groups: components of F_k with more than k members, filled by a
    // counting sort of the component labels (`size` is then each fill cursor).
    val size = new Array[Int](numComps)
    v = 0
    while (v < n) { size(comp(v)) += 1; v += 1 }
    val members = new Array[Array[Int]](numComps)
    var c = 0
    while (c < numComps) {
      if (size(c) > k) members(c) = new Array[Int](size(c))
      size(c) = 0
      c += 1
    }
    v = 0
    while (v < n) {
      val cv = comp(v)
      if (members(cv) != null) { members(cv)(size(cv)) = v; size(cv) += 1 }
      v += 1
    }
    Cert(cert, members.iterator.filter(_ != null).toVector)
  }
}

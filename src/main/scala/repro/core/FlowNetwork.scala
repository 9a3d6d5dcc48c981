package repro.core

import repro.graph.AdjGraph
import scala.collection.mutable

/** Directed flow graph for local vertex-connectivity testing (Section 4.1).
  *
  * Every vertex `v` of the input graph splits into `v_in = 2v` and
  * `v_out = 2v+1` joined by an arc of capacity 1; every undirected edge
  * `(u,v)` becomes arcs `u_out→v_in` and `v_out→u_in`. Adjacency arcs get
  * capacity `n` (≫ any cut of interest) so every minimum cut consists solely
  * of vertex-split arcs and therefore maps 1:1 to a vertex cut — Even's
  * classic construction; the cut *value* is identical to the paper's
  * all-capacity-1 variant.
  *
  * Max-flow is Dinic's algorithm with early termination at a caller-supplied
  * bound `k`, the blocking-flow scheme of Even & Tarjan (1975) that the paper
  * prices LOC-CUT with: O(min(√n, k)·m) per test. Each phase runs one
  * residual BFS that assigns levels, then an iterative DFS with current-arc
  * pointers pushes unit paths (every path crosses a capacity-1 vertex arc)
  * along the level graph until the phase is blocked or the flow reaches `k`.
  * A level is valid only while its node's stamp equals the current epoch, so
  * no per-BFS clearing is needed. The network is built once per GLOBAL-CUT
  * invocation and reset between flow computations; `stats` receives one
  * `flowPhases` tick per BFS and one `augmentingPaths` tick per unit pushed.
  */
final class FlowNetwork(g: AdjGraph, stats: KvccStats = new KvccStats) {
  private val numNodes = 2 * g.n
  private val numArcs = 2 * (g.n + 2 * g.m) // forward + residual twins

  // Arc storage: paired arcs (i, i^1); arc i^1 is the residual twin of i.
  private val arcTo = new Array[Int](numArcs)
  private val arcCap = new Array[Int](numArcs)
  private val arcFlow = new Array[Int](numArcs)
  private val head = Array.fill(numNodes)(-1) // head of per-node arc list
  private val next = new Array[Int](numArcs)

  private var arcCount = 0
  private val bigCap = math.max(2, g.n)

  private def addArc(from: Int, to: Int, cap: Int): Unit = {
    arcTo(arcCount) = to; arcCap(arcCount) = cap
    next(arcCount) = head(from); head(from) = arcCount; arcCount += 1
    arcTo(arcCount) = from; arcCap(arcCount) = 0
    next(arcCount) = head(to); head(to) = arcCount; arcCount += 1
  }

  locally {
    var v = 0
    while (v < g.n) {
      addArc(2 * v, 2 * v + 1, 1) // vertex-split arc, capacity 1
      v += 1
    }
    v = 0
    while (v < g.n) {
      g.foreachNeighbor(v) { w =>
        // Add each undirected edge once; it contributes two directed arcs.
        if (v < w) {
          addArc(2 * v + 1, 2 * w, bigCap)
          addArc(2 * w + 1, 2 * v, bigCap)
        }
      }
      v += 1
    }
  }

  // Scratch space reused across flow computations. `level(x)` and
  // `curArc(x)` are meaningful only while `stamp(x) == epoch`.
  private val level = new Array[Int](numNodes)
  private val curArc = new Array[Int](numNodes)
  private val stamp = new Array[Int](numNodes)
  private var epoch = 0
  private val bfsQueue = new Array[Int](numNodes)
  private val pathArc = new Array[Int](numNodes) // DFS stack of arcs from s

  /** Zero all flow (start a fresh computation). */
  def reset(): Unit = java.util.Arrays.fill(arcFlow, 0)

  /** Residual BFS from `s` that levels the nodes it reaches; returns true as
    * soon as `t` is levelled. A failed search stamps exactly the nodes
    * reachable from `s` in the residual graph.
    */
  private def bfs(s: Int, t: Int): Boolean = {
    stats.flowPhases += 1
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(stamp, 0); epoch = 0 }
    epoch += 1
    stamp(s) = epoch; level(s) = 0; curArc(s) = head(s)
    var qh = 0; var qt = 0
    bfsQueue(qt) = s; qt += 1
    while (qh < qt) {
      val x = bfsQueue(qh); qh += 1
      var a = head(x)
      while (a != -1) {
        val y = arcTo(a)
        if (stamp(y) != epoch && arcCap(a) - arcFlow(a) > 0) {
          stamp(y) = epoch; level(y) = level(x) + 1; curArc(y) = head(y)
          if (y == t) return true
          bfsQueue(qt) = y; qt += 1
        }
        a = next(a)
      }
    }
    false
  }

  /** Pushes unit paths along the level graph of the last `bfs` until no
    * s–t path is left in it or `flow` reaches `limit`; returns the new flow.
    */
  private def blockingFlow(s: Int, t: Int, flow0: Int, limit: Int): Int = {
    val lt = level(t)
    var flow = flow0
    var depth = 0 // pathArc(0 until depth) leads from s to x
    var x = s
    while (flow < limit && depth >= 0) {
      if (x == t) {
        var i = 0
        while (i < depth) {
          val a = pathArc(i)
          arcFlow(a) += 1
          arcFlow(a ^ 1) -= 1
          i += 1
        }
        stats.augmentingPaths += 1
        flow += 1
        depth = 0; x = s
      } else {
        // Advance x's current arc to the next admissible one. An arc into a
        // level-lt node other than t cannot lead to t in this phase.
        val nextLevel = level(x) + 1
        var a = curArc(x)
        while (a != -1 && {
            val y = arcTo(a)
            stamp(y) != epoch || level(y) != nextLevel || (nextLevel == lt && y != t) ||
              arcCap(a) - arcFlow(a) <= 0
          }) a = next(a)
        curArc(x) = a
        if (a != -1) {
          pathArc(depth) = a; depth += 1; x = arcTo(a)
        } else {
          // x is a dead end: retreat and skip the arc that led into it.
          depth -= 1
          if (depth >= 0) {
            x = arcTo(pathArc(depth) ^ 1)
            curArc(x) = next(curArc(x))
          }
        }
      }
    }
    flow
  }

  /** Max flow from `u_out` to `v_in` for original vertices u≠v, stopping early
    * once the flow reaches `limit`. Callers must `reset()` first.
    */
  def maxFlowUpTo(u: Int, v: Int, limit: Int): Int = {
    val s = 2 * u + 1
    val t = 2 * v
    var flow = 0
    while (flow < limit && bfs(s, t)) flow = blockingFlow(s, t, flow, limit)
    flow
  }

  /** Vertices whose split arcs cross the residual min cut. Only valid right
    * after `maxFlowUpTo` returned a value < its limit: the flow is then
    * maximum and its last, failed BFS stamped exactly the residual-reachable
    * set, which is the same for every maximum flow — so the cut is the
    * unique minimum cut closest to the source.
    */
  def minCutVertices(): Array[Int] = {
    // Adjacency arcs have capacity n and can never be saturated by a flow
    // < n, so every crossing arc is a vertex-split arc w_in→w_out.
    val cut = mutable.ArrayBuilder.make[Int]
    var w = 0
    while (w < g.n) {
      if (stamp(2 * w) == epoch && stamp(2 * w + 1) != epoch) cut += w
      w += 1
    }
    cut.result()
  }
}

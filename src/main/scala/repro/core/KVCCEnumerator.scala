package repro.core

import java.util.concurrent.CountedCompleter
import java.util.concurrent.atomic.AtomicReference
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

/** KVCC-ENUM (Algorithm 1): enumerate all k-vertex connected components of a
  * graph by recursive overlapped partitioning.
  *
  * Each node of the partition tree is one fork-join task on the JVM's common
  * pool: shrink its subgraph to the k-core, split into connected components,
  * and for each component either keep it (no cut of size < k exists ⇒ it is
  * a k-VCC) or partition it by the found cut and fork one task per
  * overlapped part. Parts are independent subproblems (Lemma 3), so tasks
  * share only their read-only parameters and a slot for the first failure;
  * each counts into its own `KvccStats`. Tasks complete through `CountedCompleter` pending counts and
  * never wait on their children, so no thread's stack grows with the depth of
  * the tree. Once the whole tree is done, the caller walks it in the order of
  * a sequential work stack to collect the answer and the counters.
  */
object KVCCEnumerator {

  /** All k-VCCs of `g0`, as induced subgraphs carrying original vertex ids.
    * `variant` selects the GLOBAL-CUT implementation (Section 6.2's VCCE,
    * VCCE-N, VCCE-G, VCCE*); `stats` aggregates counters across the run.
    *
    * The result order is that of a depth-first work stack: a subgraph's own
    * k-VCCs in component order, then its parts' results, last component and
    * last part first. An exception thrown by any task is rethrown here as is.
    */
  def enumerate(
      g0: AdjGraph,
      k: Int,
      variant: Variant = Variant.Star,
      stats: KvccStats = new KvccStats): Vector[AdjGraph] = {
    require(k >= 1, s"k must be >= 1, got $k")
    val query = new Query(k, variant)
    val root = new Node(null, query, g0, 0)
    root.quietlyInvoke()
    val failure = query.failure.get
    if (failure != null) throw failure

    val out = Vector.newBuilder[AdjGraph]
    val seen = mutable.HashSet.empty[Seq[Long]] // Lemma 3: no k-VCC is found twice
    val todo = mutable.Stack[Node](root)
    while (todo.nonEmpty) {
      val node = todo.pop()
      stats.add(node.stats)
      for (comp <- node.found) {
        require(seen.add(comp.sortedIds.toSeq),
          s"k-VCC of ${comp.n} vertices emitted twice at k=$k (contradicts Lemma 3)")
        out += comp
      }
      node.parts.foreach(todo.push)
    }
    out.result()
  }

  /** Canonical form: sorted vertex-id list per k-VCC, sorted lexicographically
    * — used to compare results across variants / implementations.
    */
  def canonical(result: Seq[AdjGraph]): Vector[Vector[Long]] =
    result.map(_.sortedIds.toVector).sortBy(v => (v.length, v.mkString(","))).toVector

  /** What every task of one call shares: its read-only parameters and the
    * first exception any task threw.
    */
  private final class Query(val k: Int, val variant: Variant) {
    val failure = new AtomicReference[Throwable]
  }

  /** One partition-tree node. `found` and `parts` are written by `compute`
    * and read by the caller only after the root has completed.
    */
  private final class Node(parent: Node, query: Query, private var input: AdjGraph, depth: Int)
      extends CountedCompleter[Void](parent) {
    val stats = new KvccStats
    val found = mutable.ArrayBuffer.empty[AdjGraph]
    val parts = mutable.ArrayBuffer.empty[Node] // in creation order

    override def compute(): Unit =
      try {
        if (query.failure.get == null) { // after a failure, the rest of the tree is skipped
          stats.maxDepth = depth
          val h = GraphOps.kCore(input, query.k)
          input = null
          if (h.n > 0) split(h)
          tryComplete()
        }
      } catch {
        case e: Throwable =>
          query.failure.compareAndSet(null, e)
          throw e
      }

    private def split(h: AdjGraph): Unit =
      for (comp <- GraphOps.componentSubgraphs(h)) {
        // k-core ⇒ min degree ≥ k ⇒ |V| ≥ k+1, so Definition 2's size
        // requirement holds for every emitted component.
        stats.globalCutCalls += 1
        val cut = query.variant match {
          case Variant.Basic => GlobalCut.find(comp, query.k, stats)
          case v             => GlobalCutStar.find(comp, query.k, v, stats)
        }
        cut match {
          case None => found += comp
          case Some(s) =>
            stats.partitions += 1
            for (p <- Overlap.partition(comp, s)) {
              val child = new Node(this, query, p, depth + 1)
              parts += child
              addToPendingCount(1)
              child.fork()
            }
        }
      }
  }
}

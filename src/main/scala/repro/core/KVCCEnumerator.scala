package repro.core

import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

/** KVCC-ENUM (Algorithm 1): enumerate all k-vertex connected components of a
  * graph by recursive overlapped partitioning.
  *
  * The recursion is an explicit work stack: pop a subgraph, shrink it to its
  * k-core, split into connected components, and for each component either
  * emit it (no cut of size < k exists ⇒ it is a k-VCC) or partition it by the
  * found cut and push the overlapped parts.
  */
object KVCCEnumerator {

  /** All k-VCCs of `g0`, as induced subgraphs carrying original vertex ids.
    * `variant` selects the GLOBAL-CUT implementation (Section 6.2's VCCE,
    * VCCE-N, VCCE-G, VCCE*); `stats` aggregates counters across the run.
    */
  def enumerate(
      g0: AdjGraph,
      k: Int,
      variant: Variant = Variant.Star,
      stats: KvccStats = new KvccStats): Vector[AdjGraph] = {
    require(k >= 1, s"k must be >= 1, got $k")
    val out = Vector.newBuilder[AdjGraph]
    val seen = mutable.HashSet.empty[Seq[Long]] // Lemma 3: no k-VCC is found twice
    val work = mutable.Stack[AdjGraph](g0)
    while (work.nonEmpty) {
      val h = GraphOps.kCore(work.pop(), k)
      if (h.n > 0) {
        for (comp <- GraphOps.componentSubgraphs(h)) {
          // k-core ⇒ min degree ≥ k ⇒ |V| ≥ k+1, so Definition 2's size
          // requirement holds for every emitted component.
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
              Overlap.partition(comp, s).foreach(work.push)
          }
        }
      }
    }
    out.result()
  }

  /** Canonical form: sorted vertex-id list per k-VCC, sorted lexicographically
    * — used to compare results across variants / implementations.
    */
  def canonical(result: Seq[AdjGraph]): Vector[Vector[Long]] =
    result.map(_.sortedIds.toVector).sortBy(v => (v.length, v.mkString(","))).toVector
}

package repro.core

import repro.graph.{AdjGraph, GraphOps}

/** OVERLAP-PARTITION (Algorithm 1, lines 13–18): remove the cut S, take the
  * connected components of the remainder, and return the induced subgraph of
  * each component *plus a duplicated copy of S* — the cut vertices are the
  * only vertices k-VCCs may share, so they must survive in every part.
  */
object Overlap {

  /** Partition `g` by vertex cut `cut` (local indices). The caller guarantees
    * `cut` is a genuine vertex cut of `g`; this is re-validated (a violation
    * would make the enumeration loop forever on an unsplittable graph).
    */
  def partition(g: AdjGraph, cut: Array[Int]): Vector[AdjGraph] = {
    val comps = GraphOps.connectedComponents(g, exclude = cut)
    require(
      comps.length >= 2,
      s"OVERLAP-PARTITION: removing ${cut.length} vertices left ${comps.length} component(s) — not a cut")
    g.inducedAll(comps.map(Array.concat(_, cut)))
  }
}

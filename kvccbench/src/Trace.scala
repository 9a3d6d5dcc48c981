package kvccbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import repro.core.{GlobalCut, GlobalCutStar, FlowNetwork, KvccStats, Overlap, SparseCertificate, Variant}
import repro.graph.{AdjGraph, GraphOps}
import scala.collection.mutable

/** One timed interval. `parent` is -1 for a query root; `root` is the
  * post-core component the work belongs to (-1 before the first CC split).
  */
final class Span(val id: Int, val name: String, val start: Long, val parent: Int, val query: Int, val root: Int) {
  var end: Long = start
  def dur: Long = end - start
}

/** In-memory span log; written out once, after the measurement. */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]

  def open(name: String, parent: Int, query: Int, root: Int): Int = {
    spans += new Span(spans.length, name, System.nanoTime(), parent, query, root)
    spans.length - 1
  }

  def close(id: Int): Unit = spans(id).end = System.nanoTime()

  /** Runs `f` inside a span and returns its result with the span id. */
  def timed[A](name: String, parent: Int, query: Int, root: Int)(f: => A): (A, Int) = {
    val id = open(name, parent, query, root)
    val a = f
    close(id)
    (a, id)
  }

  def span[A](name: String, parent: Int, query: Int, root: Int)(f: => A): A =
    timed(name, parent, query, root)(f)._1

  /** Self time of every span of `query`, summed by name: duration minus the
    * part of it that child spans cover.
    */
  def selfTimes(query: Int): Map[String, Long] = {
    val mine = spans.filter(_.query == query)
    val children = mine.groupBy(_.parent)
    mine.groupMapReduce(_.name) { s =>
      val covered = children.getOrElse(s.id, Nil).iterator
        .map(c => math.max(0L, math.min(s.end, c.end) - math.max(s.start, c.start))).sum
      s.dur - covered
    }(_ + _)
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      out.println("id\tname\tstart_ns\tend_ns\tparent\tquery\troot")
      spans.foreach(s => out.println(s"${s.id}\t${s.name}\t${s.start}\t${s.end}\t${s.parent}\t${s.query}\t${s.root}"))
    } finally out.close()
  }
}

/** What one traced run of Algorithm 1 did, besides the spans it recorded. */
final case class TracedQuery(
    result: Vector[AdjGraph],
    rootSpan: Int,
    calls: Long,
    partitions: Long,
    stats: KvccStats,
    depthMax: Int,
    rootSizes: Vector[Int],
    coreEdges: Long)

/** KVCC-ENUM re-driven through the public layer calls, one span per call.
  *
  * The loop mirrors `KVCCEnumerator.enumerate` step for step (same work
  * stack order, same dedup) so its output and counters must equal the
  * library's; the benchmark checks that on every traced query.
  */
object TracedEnum {

  def run(g0: AdjGraph, k: Int, variant: Variant, tr: Tracer, q: Int): TracedQuery = {
    val stats = new KvccStats
    val out = Vector.newBuilder[AdjGraph]
    val seen = mutable.HashSet.empty[Seq[Long]]
    val rootSizes = mutable.ArrayBuffer.empty[Int]
    val probes = mutable.ArrayBuffer.empty[(Array[Long], Int, Int)] // (component ids, GLOBAL-CUT span, root)
    var calls, partitions = 0L
    var depthMax = 0
    var coreEdges = -1L
    val top = tr.open("query", -1, q, -1)
    val work = mutable.Stack[(AdjGraph, Int, Int)]((g0, 0, -1)) // (graph, depth, root)
    while (work.nonEmpty) {
      val (g, depth, root) = work.pop()
      depthMax = math.max(depthMax, depth)
      val h = tr.span("graph.kcore", top, q, root)(GraphOps.kCore(g, k))
      if (coreEdges < 0) coreEdges = h.m
      if (h.n > 0) {
        val comps = tr.span("graph.cc", top, q, root)(GraphOps.componentSubgraphs(h))
        for (comp <- comps) {
          val r = if (root >= 0) root else { rootSizes += comp.n; rootSizes.length - 1 }
          calls += 1
          val (cut, sid) = tr.timed("core.globalcut", top, q, r) {
            variant match {
              case Variant.Basic => GlobalCut.find(comp, k, stats)
              case v             => GlobalCutStar.find(comp, k, v, stats)
            }
          }
          probes += ((comp.ids, sid, r))
          cut match {
            case None =>
              if (seen.add(comp.sortedIds.toSeq)) out += comp
            case Some(s) =>
              partitions += 1
              tr.span("core.overlap", top, q, r)(Overlap.partition(comp, s))
                .foreach(p => work.push((p, depth + 1, r)))
          }
        }
      }
    }
    tr.close(top)
    // Probes: extra work after the query, parented to the GLOBAL-CUT call
    // they estimate, so they stay out of the top-level span sum. Only ids are
    // kept during the query (holding the subgraphs slowed it by ~10%); every
    // component is an induced subgraph of g0, so it is rebuilt exactly.
    for ((ids, sid, r) <- probes) {
      val comp = g0.induced(ids.map(id => java.util.Arrays.binarySearch(g0.ids, id)))
      val cert = tr.span("core.cert", sid, q, r)(SparseCertificate.compute(comp, k))
      tr.span("core.flowbuild", sid, q, r)(new FlowNetwork(cert.graph))
    }
    TracedQuery(out.result(), top, calls, partitions, stats, depthMax, rootSizes.toVector, coreEdges)
  }
}

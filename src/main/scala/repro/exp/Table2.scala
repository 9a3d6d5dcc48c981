package repro.exp

import repro.core.{KVCCEnumerator, KvccStats, Variant}
import repro.gen.Datasets
import repro.graph.AdjGraph

/** Reproduces paper Table 2 (PROPORTION FOR DIFFERENT RULES): the fraction of
  * phase-1 vertices of GLOBAL-CUT* that were pruned by neighbor sweep rule 1
  * (strong side-vertex), neighbor sweep rule 2 (vertex deposit), group sweep,
  * or not pruned at all — averaged over k ∈ {20,25,30,35,40} per dataset,
  * running VCCE*.
  */
object Table2 {

  /** Paper values (Table 2; Youtube is not reported there). */
  val paper: Map[String, (Int, Int, Int, Int)] = Map(
    // name -> (NS_1 %, NS_2 %, GS %, Non-Pru %)
    "Stanford" -> (14, 40, 13, 33),
    "DBLP"     -> (67, 21, 4, 8),
    "ND"       -> (1, 42, 1, 56),
    "Google"   -> (29, 36, 9, 26),
    "Cit"      -> (12, 68, 12, 8),
    "Cnr"      -> (11, 32, 48, 9),
  )

  final case class Row(name: String, ns1: Double, ns2: Double, gs: Double, nonPru: Double)

  /** Per-dataset averages of the per-k rule proportions. The counters live in
    * the per-component recursion, so the local kernel gives the same values
    * as `KVCCSpark.enumerate` (KVCCSparkSpec checks this).
    */
  def run(scale: Double = ExpConfig.scale): Vector[Row] =
    ExpConfig.datasets.map { spec =>
      val g = AdjGraph.fromEdges(Datasets.generate(spec, scale))
      val props = ExpConfig.kValues.map { k =>
        val stats = new KvccStats
        KVCCEnumerator.enumerate(g, k, Variant.Star, stats)
        (stats.proportionNs1, stats.proportionNs2, stats.proportionGs, stats.proportionNonPruned)
      }
      val n = props.length.toDouble
      Row(
        spec.name,
        props.map(_._1).sum / n,
        props.map(_._2).sum / n,
        props.map(_._3).sum / n,
        props.map(_._4).sum / n)
    }

  def render(rows: Seq[Row], scale: Double): String = {
    val header = Seq("Rule") ++ rows.map(_.name)
    def paperCell(name: String, pick: ((Int, Int, Int, Int)) => Int): String =
      paper.get(name).map(t => s"${pick(t)}%").getOrElse("-")
    val body = Seq(
      Seq("NS_1 (ours)") ++ rows.map(r => Tables.pct(r.ns1)),
      Seq("NS_1 (paper)") ++ rows.map(r => paperCell(r.name, _._1)),
      Seq("NS_2 (ours)") ++ rows.map(r => Tables.pct(r.ns2)),
      Seq("NS_2 (paper)") ++ rows.map(r => paperCell(r.name, _._2)),
      Seq("GS (ours)") ++ rows.map(r => Tables.pct(r.gs)),
      Seq("GS (paper)") ++ rows.map(r => paperCell(r.name, _._3)),
      Seq("Non-Pru (ours)") ++ rows.map(r => Tables.pct(r.nonPru)),
      Seq("Non-Pru (paper)") ++ rows.map(r => paperCell(r.name, _._4)),
    )
    Tables.render(
      f"Table 2: proportion of phase-1 vertices per sweep rule, VCCE*, avg over k=20..40 (scale=$scale%.5f)",
      header, body)
  }

  def runAndEmit(): Vector[Row] = {
    val scale = ExpConfig.scale
    val rows = run(scale)
    Tables.emit("table2_sweep_rules.txt", render(rows, scale))
    rows
  }
}

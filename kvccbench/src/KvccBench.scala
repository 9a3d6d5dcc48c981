package kvccbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import java.util.concurrent.Executors
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{KVCCEnumerator, KvccStats, Variant, VertexConnectivity}
import repro.gen.Datasets
import repro.graph.{AdjGraph, GraphOps}
import repro.spark.{ConnectedComponentsSpark, EdgeOps, KCoreSpark, KVCCSpark}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal

/** A Table-1 dataset substitute (scale 1/32, Table-1 generator seed) queried
  * at `k` with `variant`, through the local kernel or the Spark pipeline.
  */
final case class Workload(name: String, dataset: String, k: Int, variant: Variant, spark: Boolean)

/** The dataset under one seeded vertex relabelling. `back(id)` is the
  * generator's id for relabelled vertex `id`.
  */
final class Input(val graph: AdjGraph, val back: Array[Long], val frame: DataFrame) {

  /** k-VCCs as sorted generator-id vectors, in `KVCCEnumerator.canonical` order. */
  def canonical(sets: Seq[Seq[Long]]): Vector[Vector[Long]] =
    sets.map(_.map(id => back(id.toInt)).sorted.toVector)
      .sortBy(v => (v.length, v.mkString(","))).toVector
}

/** Process-wide resource counters, read around each timed call. */
final case class Usage(wallNs: Long, cpuNs: Long, allocBytes: Long, gcMs: Long, gcCount: Long)

object Usage {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  private def allocated(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).toMap
  }

  /** Runs `f` and returns what it cost. Allocation is summed per thread over
    * the threads alive at the end, so a thread that exits mid-call cannot
    * make the total negative.
    */
  def of[A](f: => A): (A, Usage) = {
    val alloc0 = allocated()
    val gcMs0 = gcs.map(_.getCollectionTime).sum
    val gcN0 = gcs.map(_.getCollectionCount).sum
    val cpu0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    val a = f
    val wall = System.nanoTime() - t0
    val cpu = os.getProcessCpuTime - cpu0
    val alloc = allocated().iterator.map { case (t, b) => math.max(0L, b - alloc0.getOrElse(t, 0L)) }.sum
    (a, Usage(wall, cpu, alloc, gcs.map(_.getCollectionTime).sum - gcMs0, gcs.map(_.getCollectionCount).sum - gcN0))
  }
}

/** Every query a run issues, and what its checks found. The first answer is
  * the reference; every later one must equal it in generator ids.
  */
final class Ledger {
  var attempted, failed = 0L
  val problems = mutable.ArrayBuffer.empty[String]
  /** The first answer, in the relabelled ids of the input it came from. */
  var first: Option[(Input, Vector[Vector[Long]])] = None
  private var reference: Vector[Vector[Long]] = null

  def record(in: Input, sets: Seq[Seq[Long]]): Unit = {
    attempted += 1
    if (reference == null) {
      first = Some((in, sets.map(_.toVector).toVector))
      reference = in.canonical(sets)
    } else if (in.canonical(sets) != reference) {
      failed += 1
      problems += s"query $attempted returned a different k-VCC set"
    }
  }

  /** Runs one query; a throw counts as an attempted, failed query. */
  def attempt[A](f: => A): Option[A] =
    try Some(f)
    catch {
      case NonFatal(e) =>
        attempted += 1; failed += 1
        problems += s"query $attempted threw $e"
        e.printStackTrace()
        None
    }
}

/** kvcc-bench: times `KVCCEnumerator.enumerate` or `KVCCSpark.enumerate` on
  * one workload, checks every answer, and prints one JSON result line.
  *
  * Usage: KvccBench --workload W --seed S --seconds T --trace 0|1
  *        --work-dir DIR --expected FILE
  *
  * `--trace 0` reports the end-to-end metrics; `--trace 1` re-drives the
  * kernel through `TracedEnum` and reports per-layer metrics.
  */
object KvccBench {

  val workloads: Vector[Workload] = Vector(
    Workload("local-cit-k20", "Cit", 20, Variant.Star, spark = false),
    Workload("local-cnr-k30", "Cnr", 30, Variant.Star, spark = false),
    Workload("local-cnr-k30-vcce", "Cnr", 30, Variant.Basic, spark = false),
    Workload("spark-cnr-k30", "Cnr", 30, Variant.Star, spark = true),
  )

  /** Relabellings per run. The timed calls cycle through them, so a run's
    * median spans several vertex orders instead of one.
    */
  val Labellings = 8
  /** Untimed calls on the generator's labelling before the measurement; the
    * first yields the reference answer. Warming up on one fixed input gives
    * every seed the same JIT profile: warming on the seed's own relabellings
    * left whole runs up to 30% slower or faster, depending on the seed.
    */
  val WarmUpCalls = 2
  /** k-VCCs per run whose k-connectivity is checked exactly. */
  val KConnectedSample = 4

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(key: String): String = opt.getOrElse(key, fail(s"missing --$key"))
    val w = workloads.find(_.name == need("workload"))
      .getOrElse(fail(s"unknown workload '${need("workload")}'; known: ${workloads.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => fail(s"--trace must be 0 or 1, got $t")
    }
    val workDir = Paths.get(need("work-dir"))
    val expected = readExpected(need("expected"))
    val cores = Runtime.getRuntime.availableProcessors()

    // ---- set-up: generation, SparkSession, relabelled inputs, warm-up.
    val (edges, genNs) = timed(Datasets.generate(Datasets.byName(w.dataset)))
    val (spark, sessionNs) = timed(if (w.spark) startSpark(cores, workDir) else null)
    val rnd = new Random(seed)
    // The generator's own labelling first, then the seeded ones. Built on
    // `cores` threads; setup_s counts the median build.
    val pool = Executors.newFixedThreadPool(cores)
    val built = (None +: Vector.fill(Labellings)(Some(new Random(rnd.nextLong()))))
      .map(r => pool.submit(() => timed(relabel(edges, r, spark))))
      .map(_.get)
    pool.shutdown()
    val base = built.head._1
    val inputs = built.tail.map(_._1)

    val ledger = new Ledger
    def enumerate(in: Input): Option[(Vector[Vector[Long]], Usage)] = ledger.attempt {
      if (w.spark) Usage.of(KVCCSpark.enumerate(in.frame, w.k, w.variant))
      else {
        val (gs, use) = Usage.of(KVCCEnumerator.enumerate(in.graph, w.k, w.variant))
        (gs.map(_.sortedIds.toVector), use)
      }
    }

    val (_, warmNs) = timed {
      for (_ <- 0 until WarmUpCalls; (sets, _) <- enumerate(base)) ledger.record(base, sets)
    }
    val setupS = (genNs + sessionNs + median(built.map(_._2.toDouble)) + warmNs) / 1e9

    // ---- untimed checks of the reference answer.
    val (_, checkNs) = timed {
      for ((in, sets) <- ledger.first) {
        ledger.problems ++= validate(in.graph, sets, w.k, rnd)
        ledger.problems ++= checkShape(w, in.graph, in.canonical(sets), expected)
      }
    }
    val refBad = ledger.first.isEmpty || ledger.problems.nonEmpty

    // ---- measurement.
    val (metrics, measureNs) = timed {
      if (trace) traced(w, inputs, seconds, ledger, workDir.resolve("spans").resolve(s"${w.name}-seed$seed.tsv"))
      else {
        val uses = mutable.ArrayBuffer.empty[Usage]
        val t0 = System.nanoTime()
        var i = 0
        while (i == 0 || System.nanoTime() - t0 < seconds * 1e9) {
          val in = inputs(i % Labellings)
          for ((sets, use) <- enumerate(in)) { ledger.record(in, sets); uses += use }
          i += 1
        }
        println(uses.map(u => f"${u.wallNs / 1e9}%.3f").mkString(s"query_s of ${uses.length} timed calls: ", " ", ""))
        Vector(
          ("query_s.p50", median(uses.map(_.wallNs / 1e9)), "s"),
          ("setup_s", setupS, "s"),
          ("cpu_s.per_query", median(uses.map(_.cpuNs / 1e9)), "s"),
        )
      }
    }
    if (refBad) ledger.failed = ledger.attempted
    import ledger.{attempted, failed, problems}

    if (spark != null) spark.stop()

    // ---- report.
    val rt = Runtime.getRuntime
    println(s"workload ${w.name}: ${w.dataset} k=${w.k} ${w.variant.name} ${if (w.spark) "spark" else "local"}; " +
      s"seed $seed relabels $Labellings copies; trace=${if (trace) 1 else 0}")
    println(s"jvm ${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}, " +
      s"heap max ${rt.maxMemory() >> 20} MiB, nproc $cores" +
      (if (w.spark) s", spark local[$cores], shuffle partitions $cores" else ""))
    println(f"phases: generate ${genNs / 1e9}%.2f s, session ${sessionNs / 1e9}%.2f s, " +
      f"build ${median(built.map(_._2 / 1e9))}%.2f s (median of ${built.length}), warm-up ${warmNs / 1e9}%.2f s, " +
      f"checks ${checkNs / 1e9}%.2f s, measurement ${measureNs / 1e9}%.2f s, " +
      f"JVM up ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.2f s")
    problems.foreach(p => println(s"CHECK FAILED: $p"))
    println(f"queries attempted $attempted, failed $failed, failed_frac ${failed.toDouble / math.max(1L, attempted)}%.3f")
    metrics.foreach { case (name, v, unit) => println(f"  $name%-28s $v%14.6f $unit") }
    val json = metrics.map { case (name, v, unit) =>
      s""""$name": {"value": ${if (v.isNaN || v.isInfinite) 0.0 else v}, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""RESULT {"correct": ${failed == 0 && problems.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {$json}}""")
    System.out.flush()
    sys.exit(0)
  }

  /** The traced run: per-layer metrics, medians over the traced iterations. */
  private def traced(
      w: Workload,
      inputs: Vector[Input],
      seconds: Double,
      ledger: Ledger,
      spansFile: java.nio.file.Path): Vector[(String, Double, String)] = {
    val tr = new Tracer
    val perQuery = mutable.ArrayBuffer.empty[Map[String, Double]]
    val untracedNs = mutable.ArrayBuffer.empty[Double]
    val attempted0 = ledger.attempted
    val (_, use) = Usage.of {
      var q = 0
      val t0 = System.nanoTime()
      while (q == 0 || System.nanoTime() - t0 < seconds * 1e9) {
        perQuery += iteration(w, inputs(q % Labellings), tr, q, ledger, untracedNs)
        q += 1
      }
    }
    tr.write(spansFile)

    def med(key: String): Double = median(perQuery.flatMap(_.get(key)))
    val queries = math.max(1L, ledger.attempted - attempted0)
    Vector(
      ("graph.kcore_s", med("graph.kcore") / 1e9, "s"),
      ("graph.kcore.calls", med("graph.kcore.calls"), "count"),
      ("graph.cc_s", med("graph.cc") / 1e9, "s"),
      ("graph.cc.calls", med("graph.cc.calls"), "count"),
      ("core.globalcut_s", med("core.globalcut") / 1e9, "s"),
      ("core.globalcut.calls", med("core.globalcut.calls"), "count"),
      ("core.cert_s", med("core.cert") / 1e9, "s"),
      ("core.flowbuild_s", med("core.flowbuild") / 1e9, "s"),
      ("core.search_s", med("core.search") / 1e9, "s"),
      ("core.flow.tests", med("core.flow.tests"), "count"),
      ("core.sweep.pruned_frac", med("core.sweep.pruned_frac"), "frac"),
      ("core.sweep.ns1_frac", med("core.sweep.ns1_frac"), "frac"),
      ("core.sweep.ns2_frac", med("core.sweep.ns2_frac"), "frac"),
      ("core.sweep.gs_frac", med("core.sweep.gs_frac"), "frac"),
      ("core.overlap_s", med("core.overlap") / 1e9, "s"),
      ("core.overlap.calls", med("core.overlap.calls"), "count"),
      ("core.globalcut.cut_ratio", med("core.globalcut.cut_ratio"), "frac"),
      ("core.enum.depth_max", med("core.enum.depth_max"), "count"),
      ("core.enum.comp_n_max", med("core.enum.comp_n_max"), "count"),
      ("core.enum.largest_comp_share", med("core.enum.largest_comp_share"), "frac"),
      ("pipeline.kcore_s", med("pipeline.kcore") / 1e9, "s"),
      ("pipeline.cc_s", med("pipeline.cc") / 1e9, "s"),
      ("pipeline.enum_s", med("pipeline.enum") / 1e9, "s"),
      ("pipeline.core_edges", med("pipeline.core_edges"), "count"),
      ("alloc_mb.per_query", med("alloc") / 1e6, "MB"),
      ("jvm.gc_s", use.gcMs / 1e3 / queries, "s"),
      ("jvm.gc.count", use.gcCount.toDouble / queries, "count"),
      ("trace.overhead_frac", med("query") / median(untracedNs) - 1, "frac"),
      ("trace.coverage_frac", med("trace.coverage_frac"), "frac"),
    )
  }

  /** One traced iteration on `in`: the Spark layers (Spark workload only),
    * then the traced kernel loop, then one untraced `KVCCEnumerator.enumerate`
    * call for the overhead ratio. On the Spark workload the `pipeline.*`
    * figures come from Spark; elsewhere from the kernel's bulk k-core and CC.
    */
  private def iteration(
      w: Workload,
      in: Input,
      tr: Tracer,
      q: Int,
      ledger: Ledger,
      untracedNs: mutable.ArrayBuffer[Double]): Map[String, Double] = {
    import ledger.{attempt, record}
    val row = mutable.Map.empty[String, Double]
    val spark = mutable.Map.empty[String, Double]
    if (w.spark) attempt {
      val ((core, edges), kcoreNs) = timed { val c = KCoreSpark.kCore(in.frame, w.k); (c, c.count()) }
      val (_, ccNs) = timed(ConnectedComponentsSpark.viaGraphX(core).count())
      val (sets, enumNs) = timed(KVCCSpark.enumerate(in.frame, w.k, w.variant))
      record(in, sets)
      spark ++= Seq("pipeline.kcore" -> kcoreNs.toDouble, "pipeline.cc" -> ccNs.toDouble,
        "pipeline.enum" -> (enumNs - kcoreNs - ccNs).toDouble, "pipeline.core_edges" -> edges.toDouble)
    }
    attempt {
      val tq = TracedEnum.run(in.graph, w.k, w.variant, tr, q)
      record(in, tq.result.map(_.sortedIds.toSeq))
      val stats = new KvccStats
      val (plain, use) = Usage.of(KVCCEnumerator.enumerate(in.graph, w.k, w.variant, stats))
      record(in, plain.map(_.sortedIds.toSeq))
      untracedNs += use.wallNs.toDouble
      row("alloc") = use.allocBytes.toDouble
      val s = tq.stats
      if (tq.calls != stats.globalCutCalls || tq.partitions != stats.partitions || s.flowTests != stats.flowTests ||
          s.phase1Processed != stats.phase1Processed || s.prunedNs1 != stats.prunedNs1 ||
          s.prunedNs2 != stats.prunedNs2 || s.prunedGs != stats.prunedGs)
        ledger.problems += s"traced loop counters $s (calls ${tq.calls}, partitions ${tq.partitions}) differ from enumerate's $stats"
      row ++= kernelRow(tr, q, tq)
    }
    (row ++ spark).toMap
  }

  /** Per-layer figures of one traced kernel query. Times are self times in ns. */
  private def kernelRow(tr: Tracer, q: Int, tq: TracedQuery): Map[String, Double] = {
    val self = tr.selfTimes(q).withDefaultValue(0L)
    val mine = tr.spans.filter(_.query == q)
    val top = mine.filter(_.parent == tq.rootSpan)
    val wall = tr.spans(tq.rootSpan).dur.toDouble
    val largest = tq.rootSizes.indices.maxByOption(tq.rootSizes).getOrElse(-1)
    val topSum = top.map(_.dur).sum.toDouble
    val s = tq.stats
    val processed = math.max(1L, s.phase1Processed).toDouble
    // Spans before the first CC split (root -1) are Algorithm 1's bulk
    // k-core and CC over the whole input.
    val bulkKcore = mine.filter(x => x.root < 0 && x.name == "graph.kcore").map(_.dur).sum.toDouble
    val bulkCc = mine.filter(x => x.root < 0 && x.name == "graph.cc").map(_.dur).sum.toDouble
    Map(
      "query" -> wall,
      "pipeline.kcore" -> bulkKcore,
      "pipeline.cc" -> bulkCc,
      "pipeline.enum" -> (wall - bulkKcore - bulkCc),
      "pipeline.core_edges" -> tq.coreEdges.toDouble,
      "graph.kcore" -> self("graph.kcore").toDouble,
      "graph.cc" -> self("graph.cc").toDouble,
      "core.globalcut" -> self("core.globalcut").toDouble,
      "core.cert" -> self("core.cert").toDouble,
      "core.flowbuild" -> self("core.flowbuild").toDouble,
      "core.search" -> (self("core.globalcut") - self("core.cert") - self("core.flowbuild")).toDouble,
      "core.overlap" -> self("core.overlap").toDouble,
      "graph.kcore.calls" -> mine.count(_.name == "graph.kcore").toDouble,
      "graph.cc.calls" -> mine.count(_.name == "graph.cc").toDouble,
      "core.globalcut.calls" -> tq.calls.toDouble,
      "core.overlap.calls" -> tq.partitions.toDouble,
      "core.flow.tests" -> s.flowTests.toDouble,
      "core.sweep.pruned_frac" -> (s.prunedNs1 + s.prunedNs2 + s.prunedGs) / processed,
      "core.sweep.ns1_frac" -> s.prunedNs1 / processed,
      "core.sweep.ns2_frac" -> s.prunedNs2 / processed,
      "core.sweep.gs_frac" -> s.prunedGs / processed,
      "core.globalcut.cut_ratio" -> tq.partitions.toDouble / math.max(1L, tq.calls),
      "core.enum.depth_max" -> tq.depthMax.toDouble,
      "core.enum.comp_n_max" -> tq.rootSizes.maxOption.getOrElse(0).toDouble,
      "core.enum.largest_comp_share" -> top.filter(_.root == largest).map(_.dur).sum / math.max(1.0, topSum),
      "trace.coverage_frac" -> topSum / math.max(1.0, wall),
    )
  }

  /** Why `sets` (relabelled ids) are not valid k-VCCs of `g`: two must share
    * fewer than k vertices, and each must be k-connected. The exact
    * connectivity test costs 0.15-0.4 s per k-VCC here, so it runs on
    * `KConnectedSample` of them, drawn from `rnd`.
    */
  def validate(g: AdjGraph, sets: Vector[Vector[Long]], k: Int, rnd: Random): Vector[String] = {
    val out = Vector.newBuilder[String]
    for (i <- rnd.shuffle(sets.indices.toVector).take(KConnectedSample); s = sets(i)) {
      val idx = s.map(id => java.util.Arrays.binarySearch(g.ids, id)).toArray
      if (idx.exists(_ < 0)) out += s"k-VCC $i names a vertex outside the graph"
      else if (!VertexConnectivity.isKConnected(g.induced(idx), k)) out += s"k-VCC $i (n=${s.length}) is not $k-connected"
    }
    val asSets = sets.map(_.toSet)
    for (i <- sets.indices; j <- i + 1 until sets.length) {
      val shared = sets(i).count(asSets(j))
      if (shared >= k) out += s"k-VCCs $i and $j share $shared >= $k vertices"
    }
    out.result()
  }

  /** Compares the input's shape and answer with `expected.txt`. Every value
    * here is invariant under relabelling, so it must repeat exactly for every
    * seed; a change means the generator or the answer drifted.
    */
  private def checkShape(
      w: Workload,
      g: AdjGraph,
      answer: Vector[Vector[Long]],
      expected: Map[String, Map[String, String]]): Vector[String] = {
    val core = GraphOps.kCore(g, w.k)
    val comps = GraphOps.componentSubgraphs(core)
    val digest = MessageDigest.getInstance("SHA-256")
      .digest(answer.map(_.mkString(",")).mkString("\n").getBytes(UTF_8))
      .take(8).map(b => f"$b%02x").mkString
    val shape = Vector(
      "n" -> g.n, "m" -> g.m, "core_n" -> core.n, "core_m" -> core.m, "components" -> comps.length,
      "largest" -> comps.map(_.n).maxOption.getOrElse(0), "kvccs" -> answer.length,
    ).map { case (key, v) => key -> v.toString } :+ ("digest" -> digest)
    val key = s"${w.dataset} ${w.k}"
    println(s"shape $key ${shape.map { case (a, b) => s"$a=$b" }.mkString(" ")}")
    expected.get(key) match {
      case None => Vector(s"no expected shape for '$key'")
      case Some(want) =>
        shape.collect { case (a, b) if !want.get(a).contains(b) => s"shape $a=$b, expected ${want.getOrElse(a, "nothing")}" }
    }
  }

  /** `expected.txt`: one line per (dataset, k): `Cit 20 n=... m=... digest=...`. */
  private def readExpected(path: String): Map[String, Map[String, String]] =
    Files.readAllLines(Paths.get(path)).asScala.iterator.map(_.trim)
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val t = l.split("\\s+")
        s"${t(0)} ${t(1)}" -> t.drop(2).map { kv => val Array(a, b) = kv.split("=", 2); a -> b }.toMap
      }.toMap

  /** The generator's edges with vertex ids permuted by `rnd`, or as generated if `rnd` is None. */
  private def relabel(edges: Vector[(Long, Long)], rnd: Option[Random], spark: SparkSession): Input = {
    val size = (edges.iterator.map(e => math.max(e._1, e._2)).max + 1).toInt
    val perm = Array.tabulate(size)(_.toLong)
    for (r <- rnd; i <- size - 1 until 0 by -1) {
      val j = r.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
    }
    val back = new Array[Long](size)
    var i = 0
    while (i < size) { back(perm(i).toInt) = i; i += 1 }
    val relabelled = edges.map { case (a, b) => (perm(a.toInt), perm(b.toInt)) }
    val frame = if (spark == null) null else EdgeOps.toDF(spark, relabelled)
    new Input(AdjGraph.fromEdges(relabelled), back, frame)
  }

  private def startSpark(cores: Int, workDir: java.nio.file.Path): SparkSession = {
    val local = workDir.resolve("spark-local").toAbsolutePath
    Files.createDirectories(local)
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("kvcc-bench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.default.parallelism", cores.toString)
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  def median(xs: Iterable[Double]): Double = {
    val v = xs.toVector.sorted
    if (v.isEmpty) Double.NaN
    else if (v.length % 2 == 1) v(v.length / 2)
    else (v(v.length / 2 - 1) + v(v.length / 2)) / 2
  }

  private def fail(msg: String): Nothing = {
    System.err.println(s"kvcc-bench: $msg")
    sys.exit(2)
  }
}

package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.core.{Baseline, Catalog, ConjunctiveQuery, Edgifier, Triangulator, Wireframe, WireframeRun}
import repro.rdf.{TripleStore, YagoLite}
import repro.workload.YagoQueries
import scala.collection.mutable
import scala.util.control.NonFatal

/** The Table-1 benchmark: one closed-loop client evaluating a
  * workload's queries with WIREFRAME and with the one-phase baseline over a
  * pinned YagoLite dataset, checking every evaluation, and (optionally) a
  * traced pass that attributes time and Spark work to each module.
  *
  * Prints one JSON object of raw samples on stdout, after [[Main.ResultPrefix]];
  * `perfbench/run.py` builds this program, runs it, and turns the samples
  * into metrics.
  *
  * Usage: Main --generate 1 --seed N --sf F --parallelism P --cores N
  *             --data-path D --work-dir D
  *        Main --workload W --seed N --seconds S --trace 0|1 --sf F
  *             --parallelism P --cores N --data-path D --work-dir D
  *             [--reference Q:emb,...]
  *
  * The first form writes the dataset; the second measures over it. They
  * run in separate JVMs, so that every measuring JVM starts in the same
  * state whether or not its dataset had to be generated.
  */
object Main {

  /** Marks the result line on stdout, which the JVM may also write to. */
  val ResultPrefix = "perfbench-result "
  /** Kept set-up repetitions per run, after one that is not kept;
    * `setup_s` is their median.
    */
  val SetupReps = 3
  /** Warm-up passes per run. A count rather than a time, so that every
    * run's JIT has compiled after the same work when the timing starts.
    */
  val WarmupPasses = 2

  /** A workload: the queries of each pass, and how many times each
    * evaluation runs the baseline, so that a baseline much shorter than
    * WIREFRAME still gets enough samples for its median to be steady.
    */
  final case class Workload(queries: Vector[ConjunctiveQuery], baselineReps: Int)

  /** The workloads: one Table-1 query each, small enough for a run to fit
    * its time budget. `snowflake` (acyclic): phase 1 yields the ideal AG
    * and phase 2 enumerates many embeddings per AG tuple. Of the
    * snowflakes, S2's |emb| varies least with the dataset seed (relative
    * IQR 0.09 over seeds 1-10 at SF 0.1, against 0.50 for S1), so that
    * the seed changes the data but not the size of the work. `diamond`
    * (cyclic, one chord): D9 spends most of its time in phase-1 burnback
    * and chord jobs; its baseline takes about a seventh of its WIREFRAME
    * time, so each evaluation runs the baseline twice.
    */
  val Workloads: Map[String, Workload] = Map(
    "snowflake" -> Workload(Vector(YagoQueries.s2), baselineReps = 1),
    "diamond"   -> Workload(Vector(YagoQueries.d9), baselineReps = 2),
  )
  /** The queries of the traced pass: every workload's, and D10 (co-star),
    * whose large non-ideal AG makes defactorization its larger phase.
    */
  val TracedQueries: Vector[ConjunctiveQuery] = Vector(YagoQueries.s2, YagoQueries.d9, YagoQueries.d10)

  /** `parallelism`: partitions of every generated range and shuffle,
    * independent of the core count, so the dataset depends on (sf, seed)
    * only.
    */
  final case class Args(generate: Boolean, workload: String, seed: Long, seconds: Double,
                        trace: Boolean, sf: Double, parallelism: Int, cores: Int,
                        dataPath: String, workDir: String, reference: Map[String, Long])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val ref = kv.get("reference").filter(_.nonEmpty).toSeq.flatMap(_.split(",")).map { s =>
      val Array(q, emb) = s.split(":")
      q -> emb.toLong
    }.toMap
    val generate = kv.get("generate").contains("1")
    def measuring(k: String) = if (generate) "" else get(k)
    val a = Args(generate, measuring("workload"), get("seed").toLong,
      if (generate) 0 else get("seconds").toDouble, measuring("trace") == "1",
      get("sf").toDouble, get("parallelism").toInt, get("cores").toInt,
      get("data-path"), get("work-dir"), ref)
    require(generate || Workloads.contains(a.workload), s"unknown workload ${a.workload}")
    a
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spark = SparkSession.builder
      .master(s"local[${args.cores}]")
      .appName("perfbench")
      .config("spark.default.parallelism", args.parallelism.toLong)
      .config("spark.sql.shuffle.partitions", args.parallelism.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      .config("spark.local.dir", s"${args.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${args.workDir}/warehouse")
      .getOrCreate()
    try {
      val result = if (args.generate) generate(spark, args) else new Bench(spark, args).run()
      println(ResultPrefix + Serialization.write(result)(DefaultFormats))
    }
    finally spark.stop()
  }

  /** Writes the dataset for (sf, seed) over whatever an unfinished
    * earlier write left.
    */
  def generate(spark: SparkSession, args: Args): Map[String, Any] = {
    deleteRecursively(new File(args.dataPath))
    val t0 = System.nanoTime()
    TripleStore(YagoLite.triples(spark, args.sf, args.seed)).writeParquet(args.dataPath)
    Map("generate_s" -> secondsSince(t0))
  }

  private def deleteRecursively(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete()
  }
}

/** One checked evaluation of a query by both engines: wall and thread CPU
  * seconds of WIREFRAME and of each run of the baseline, and the
  * wall-clock instant WIREFRAME was called.
  */
final case class Eval(wf: WireframeRun, wfS: Double, blS: Seq[Double],
                      wfCpuS: Double, blCpuS: Seq[Double], callStartMs: Long)

/** One benchmark run inside one Spark session. */
final class Bench(spark: SparkSession, args: Main.Args) {
  import Main._

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
  /** CPU nanoseconds used so far by each live Java thread: Spark's scheduling
    * and executor threads, not the JIT compiler's or the garbage collector's. The
    * kernel leaves out time the host steals from the guest, so unlike wall
    * time this does not grow when other tenants load the machine.
    */
  private def threadCpu(): Map[Long, Long] =
    threads.getAllThreadIds.map(id => id -> threads.getThreadCpuTime(id)).filter(_._2 >= 0).toMap
  private def cpuSince(before: Map[Long, Long]): Double =
    threadCpu().map { case (id, ns) => ns - before.getOrElse(id, 0L) }.sum / 1e9

  private val sc = spark.sparkContext
  private val listener = if (args.trace) Some(new LayerListener) else None
  listener.foreach(sc.addSparkListener)

  private var attempted = 0
  private var failed = 0
  /** (|AG|, |emb|) of each query's first successful evaluation. */
  private val counts = mutable.Map[String, (Long, Long)]()

  /** Runs `f` with every Spark job it submits tagged as `layer`. */
  private def tagged[T](layer: String)(f: => T): T = {
    sc.setLocalProperty(LayerListener.Prop, layer)
    try f finally sc.setLocalProperty(LayerListener.Prop, null)
  }

  private var markers = 0
  /** Submits a tagged one-task job and waits until the listener has seen
    * it end; listener events are delivered in order, so every earlier
    * job's events have then arrived. Returns the marker's job id.
    */
  private def marker(): Int = {
    markers += 1
    val tag = s"marker-$markers"
    tagged(tag)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 60L * 1000000000L
    var found: Option[JobRec] = None
    while (found.isEmpty) {
      require(System.nanoTime() < deadline, s"listener never delivered $tag")
      found = listener.get.snapshot().find(j => j.layer == tag && j.endMs >= 0)
      if (found.isEmpty) Thread.sleep(5)
    }
    found.get.id
  }

  /** One evaluation of `cq` by WIREFRAME and `baselineReps` runs of the
    * baseline. It fails when either throws, when |emb| differs from a
    * baseline count or from the reference count, or when |AG| differs from
    * the query's earlier |AG| in this run. Returns None on failure.
    */
  private def evaluate(ts: TripleStore, cat: Catalog, cq: ConjunctiveQuery, baselineReps: Int,
                       layerTag: Option[String] = None): Option[Eval] = {
    attempted += 1
    def tag[T](layer: String)(f: => T): T =
      layerTag.fold(f)(q => tagged(s"$layer:$q")(f))
    try {
      val callStart = System.currentTimeMillis()
      val c0 = threadCpu()
      val t0 = System.nanoTime()
      val wf = tag("wireframe")(Wireframe.run(ts, cq, cat))
      val wfS = secondsSince(t0)
      val wfCpuS = cpuSince(c0)
      val (bls, blS, blCpuS) = Vector.fill(baselineReps) {
        val c1 = threadCpu()
        val t1 = System.nanoTime()
        val bl = tag("baseline")(Baseline.dataFrame(ts, cq).count())
        (bl, secondsSince(t1), cpuSince(c1))
      }.unzip3
      val problems = Seq(
        bls.find(_ != wf.nEmbeddings).map(bl => s"|emb| ${wf.nEmbeddings} != baseline $bl"),
        args.reference.get(cq.name).collect {
          case emb if emb != wf.nEmbeddings => s"|emb| ${wf.nEmbeddings} != reference $emb"
        },
        counts.get(cq.name).collect {
          case (ag, _) if ag != wf.agSize => s"|AG| ${wf.agSize} != earlier $ag"
        },
      ).flatten
      if (problems.isEmpty) {
        counts.getOrElseUpdate(cq.name, (wf.agSize, wf.nEmbeddings))
        Some(Eval(wf, wfS, blS, wfCpuS, blCpuS, callStart))
      }
      else {
        Console.err.println(s"[perfbench] ${cq.name}: ${problems.mkString("; ")}")
        failed += 1
        None
      }
    } catch {
      case NonFatal(e) =>
        Console.err.println(s"[perfbench] ${cq.name}: ${e.getClass.getName}: ${e.getMessage}")
        failed += 1
        None
    }
  }

  /** Runs at least `minPasses` passes over `queries`, each evaluating
    * every query once, and starts another while fewer than `seconds` have
    * passed. Returns the checked evaluations of each query.
    */
  private def passes(ts: TripleStore, cat: Catalog, workload: Workload,
                     minPasses: Int, seconds: Double): Map[String, Vector[Eval]] = {
    val evals = mutable.Map[String, Vector[Eval]]().withDefaultValue(Vector.empty)
    val start = System.nanoTime()
    var n = 0
    while (n < minPasses || secondsSince(start) < seconds) {
      for (cq <- workload.queries; e <- evaluate(ts, cat, cq, workload.baselineReps))
        evals(cq.name) :+= e
      n += 1
    }
    evals.toMap
  }

  def run(): Map[String, Any] = {
    val workload = Workloads(args.workload)
    val queries = workload.queries
    val phases = mutable.LinkedHashMap[String, Double]()
    var phaseStart = System.nanoTime()
    def endPhase(name: String): Unit = {
      phases(name) = secondsSince(phaseStart)
      phaseStart = System.nanoTime()
    }
    require(new File(args.dataPath, "_SUCCESS").exists(), s"no complete dataset at ${args.dataPath}")

    // Set-up as a user pays it: load and cache the triple table, then
    // build the catalog.
    val loadS, catalogS = mutable.ArrayBuffer[Double]()
    var store: TripleStore = null
    var catalog: Catalog = null
    def setUp(traced: Boolean): Unit = {
      def tag[T](layer: String)(f: => T): T = if (traced) tagged(layer)(f) else f
      if (store != null) store.triples.unpersist(blocking = true)
      val t0 = System.nanoTime()
      tag("triplestore") {
        store = TripleStore.readParquet(spark, args.dataPath)
        store.triples.cache()
        store.count()
      }
      val t1 = System.nanoTime()
      tag("catalog") { catalog = Catalog.build(store.triples) }
      loadS += (t1 - t0) / 1e9
      catalogS += secondsSince(t1)
    }
    // The first set-up warms the JVM; it is not kept.
    setUp(traced = false)
    loadS.clear(); catalogS.clear()
    endPhase("cold_setup")

    // Warm-up before any timing: passes of both engines, for the JIT and
    // for Spark's and Catalyst's caches. Its evaluations are checked but
    // not timed.
    passes(store, catalog, workload, WarmupPasses, 0)
    System.gc()
    endPhase("warmup")

    // The kept set-ups run on the warm JVM, so that `setup_s` measures the
    // work rather than class loading and compilation. The last one is
    // traced.
    var traceBegin, traceEnd = -1
    for (rep <- 1 to SetupReps) {
      if (rep < SetupReps || listener.isEmpty) setUp(traced = false)
      else {
        traceBegin = marker()
        setUp(traced = true)
        traceEnd = marker()
      }
    }
    val ts = store
    val cat = catalog
    val cacheMb = sc.getRDDStorageInfo.map(r => r.memSize + r.diskSize).sum / 1e6
    System.gc()
    endPhase("setup")

    // Closed loop: the next query is submitted only after the previous
    // one completed.
    val timed = passes(ts, cat, workload, 1, args.seconds)
    endPhase("timed")
    require(queries.forall(q => timed.contains(q.name)), "a query has no checked timed evaluation")

    def samples(f: Eval => Seq[Double]): Map[String, Seq[Double]] =
      timed.map { case (q, es) => q -> es.flatMap(f) }
    val wfS = samples(e => Seq(e.wfS))
    val layers = listener.map(_ =>
      traceLayers(ts, cat, queries, (traceBegin, traceEnd), wfS.values.map(median).sum,
        loadS.toSeq, catalogS.toSeq))
    endPhase("trace")

    Map(
      "settings" -> Map(
        "master" -> sc.master,
        "cores" -> args.cores,
        "default_parallelism" -> sc.defaultParallelism,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive" -> spark.conf.get("spark.sql.adaptive.enabled"),
        "heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
        "spark_version" -> spark.version,
        "sf" -> args.sf,
        "seed" -> args.seed,
        "triples" -> ts.count(),
        "reference_checked" -> args.reference.nonEmpty,
      ),
      "attempted" -> attempted,
      "failed" -> failed,
      "phases_s" -> phases.toMap,
      "setup_s" -> loadS.zip(catalogS).map { case (a, b) => a + b }.toSeq,
      "cache_mb" -> cacheMb,
      "wf_s" -> wfS,
      "baseline_s" -> samples(_.blS),
      "wf_cpu_s" -> samples(e => Seq(e.wfCpuS)),
      "baseline_cpu_s" -> samples(_.blCpuS),
      "queries" -> counts.toMap.map { case (q, (ag, emb)) => q -> Map("ag" -> ag, "emb" -> emb) },
      "layers" -> layers,
    )
  }

  /** The traced pass: each of [[Main.TracedQueries]] once (the workload's
    * first), with each module's calls tagged; per-layer figures are summed over
    * the workload's queries, per-query ones are kept for all of them.
    */
  private def traceLayers(ts: TripleStore, cat: Catalog, queries: Vector[ConjunctiveQuery],
                          setup: (Int, Int), wfMedianS: Double,
                          loadS: Seq[Double], catalogS: Seq[Double]): Map[String, Map[String, Any]] = {
    val passBegin = marker()
    val inWorkload = queries.map(_.name).toSet
    final case class Traced(q: String, planMs: Double, chordsMs: Double, estWalks: Double,
                            nChords: Int, wf: WireframeRun, wfS: Double, blS: Double,
                            boundaryMs: Long)
    val order = queries ++ TracedQueries.filterNot(q => inWorkload(q.name))
    val traced = order.flatMap { cq =>
      val t0 = System.nanoTime()
      val plan = tagged(s"edgifier:${cq.name}")(Edgifier.plan(cq, cat))
      val planMs = secondsSince(t0) * 1e3
      val t1 = System.nanoTime()
      val chords = tagged(s"triangulator:${cq.name}")(Triangulator.chords(cq, cat))
      val chordsMs = secondsSince(t1) * 1e3
      evaluate(ts, cat, cq, baselineReps = 1, Some(cq.name)).map { e =>
        Traced(cq.name, planMs, chordsMs, plan.cost, chords.size, e.wf, e.wfS, e.blS.head,
          e.callStartMs + e.wf.phase1Ms)
      }
    }
    val passEnd = marker()
    require(traced.size == order.size, "a traced evaluation failed")
    val byQuery = traced.map(t => t.q -> t).toMap
    val jobs = listener.get.snapshot()
    val window = jobs.filter(j => (j.id > setup._1 && j.id < setup._2) || (j.id > passBegin && j.id < passEnd))
    val unattributed = window.count(_.layer == null)
    require(unattributed == 0, s"$unattributed Spark jobs ran outside any traced layer")

    // Wireframe.run's jobs split into phase 1 and phase 2 at the instant
    // phase1Ms marks: every phase-2 job is submitted after it.
    def layerOf(j: JobRec): (String, String) = j.layer.split(":", 2) match {
      case Array("wireframe", q) =>
        (if (j.startMs < byQuery(q).boundaryMs) "answergraph" else "defactorizer", q)
      case Array(l, q) => (l, q)
      case Array(l) => (l, "")
    }
    val grouped = window.groupBy(layerOf)
    def jobsOf(layer: String, qs: Set[String]): Seq[JobRec] =
      grouped.collect { case ((l, q), js) if l == layer && (qs.isEmpty || qs(q)) => js }.flatten.toSeq

    val out = mutable.LinkedHashMap[String, Map[String, Any]]()
    def put(name: String, value: Double, unit: String): Unit =
      out(name) = Map("value" -> value, "unit" -> unit)
    def work(layer: String, qs: Set[String], wallMs: Double, util: Boolean): Unit = {
      val js = jobsOf(layer, qs)
      val taskS = js.map(_.taskMs).sum / 1e3
      put(s"$layer.jobs", js.size, "count")
      put(s"$layer.tasks", js.map(_.tasks).sum, "count")
      put(s"$layer.task_s", taskS, "s")
      put(s"$layer.shuffle_mb", js.map(_.shuffleBytes).sum / 1e6, "MB")
      if (util) put(s"$layer.core_util", taskS / math.max(1e-9, wallMs / 1e3 * args.cores), "ratio")
    }
    val wl = traced.filter(t => inWorkload(t.q))
    def sum(f: Traced => Double): Double = wl.map(f).sum

    put("triplestore.load_s", median(loadS), "s")
    work("triplestore", Set.empty, 0, util = false)
    put("catalog.build_s", median(catalogS), "s")
    work("catalog", Set.empty, 0, util = false)
    put("edgifier.plan_ms", sum(_.planMs), "ms")
    put("edgifier.est_walks", sum(_.estWalks), "walks")
    put("triangulator.chords_ms", sum(_.chordsMs), "ms")
    put("triangulator.chords", sum(_.nChords), "count")
    val agMs = sum(_.wf.phase1Ms.toDouble)
    put("answergraph.ms", agMs, "ms")
    work("answergraph", inWorkload, agMs, util = true)
    put("answergraph.rounds", sum(_.wf.ag.rounds), "count")
    put("answergraph.node_sum", sum(_.wf.ag.nodeSizes.values.sum.toDouble), "nodes")
    val dfMs = sum(_.wf.phase2Ms.toDouble)
    put("defactorizer.ms", dfMs, "ms")
    work("defactorizer", inWorkload, dfMs, util = true)
    put("defactorizer.emb_per_ag",
      sum(_.wf.nEmbeddings.toDouble) / math.max(1.0, sum(_.wf.agSize.toDouble)), "ratio")
    val blMs = sum(_.blS * 1e3)
    put("baseline.ms", blMs, "ms")
    work("baseline", inWorkload, blMs, util = true)
    for (t <- traced.sortBy(_.q)) {
      put(s"answergraph.ms.${t.q}", t.wf.phase1Ms, "ms")
      put(s"defactorizer.ms.${t.q}", t.wf.phase2Ms, "ms")
      put(s"baseline.ms.${t.q}", t.blS * 1e3, "ms")
    }
    put("trace.overhead_pct", (sum(_.wfS) / wfMedianS - 1) * 100, "%")
    out.toMap
  }
}

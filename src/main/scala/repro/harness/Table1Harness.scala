package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{Baseline, Catalog, Wireframe}
import repro.rdf.{TripleStore, YagoLite}
import repro.workload.YagoQueries

/** Reproduces the paper's Table 1: query wall-time for the direct-join
  * baseline (the PG-style one-phase evaluation) vs WIREFRAME, plus
  * |AG| and |embeddings|, over the 5 snowflake + 5 diamond workload.
  *
  * Timing follows the paper's warm-cache protocol scaled to our budget:
  * each measurement is repeated `reps` times, the first (cold) run is
  * dropped, the rest averaged (the paper runs 5, averages the last 4).
  */
object Table1Harness {

  final case class Row(query: String, shape: String,
                       baselineMs: Long, wfMs: Long, phase1Ms: Long, phase2Ms: Long,
                       agSize: Long, nEmbeddings: Long, rounds: Int)

  /** Average of the post-warm-up repetitions of `thunk`'s reported ms. */
  private def warm(reps: Int)(thunk: () => Long): Long = {
    val times = (0 until math.max(2, reps)).map(_ => thunk())
    times.tail.sum / times.tail.size
  }

  /** Generate (or reuse) the Parquet dataset, build the catalog, run the
    * whole workload.
    */
  def run(spark: SparkSession, sf: Double, reps: Int, dataDir: String): Seq[Row] = {
    val path = s"$dataDir/yagolite_sf$sf"
    // Reuse only a completed write, which Spark marks with _SUCCESS; an
    // interrupted one is overwritten.
    if (!new java.io.File(path, "_SUCCESS").exists()) {
      TripleStore(YagoLite.triples(spark, sf)).writeParquet(path)
    }
    val ts = TripleStore.readParquet(spark, path)
    // Warm-cache protocol (paper §5): all systems measure over a hot
    // buffer pool; here the triple table is cached in memory once.
    ts.triples.cache()
    val nTriples = ts.count()
    Console.err.println(s"[Table1] dataset sf=$sf triples=$nTriples at $path")

    val catT0 = System.nanoTime()
    val cat = Catalog.build(ts.triples)
    Console.err.println(f"[Table1] catalog built in ${(System.nanoTime() - catT0) / 1e9}%.1f s " +
      s"(offline in the paper; excluded from query times)")

    // Global warm-up: one untimed run of each evaluation path so JIT and
    // codegen caches are hot before the first measured query.
    Wireframe.run(ts, YagoQueries.all.head, cat)
    Baseline.timedCount(ts, YagoQueries.all.head)

    YagoQueries.all.map { cq =>
      val shape = if (cq.isCyclic) "diamond" else "snowflake"
      // Correctness cross-check once per query, then timed runs.
      val (bCount, _) = Baseline.timedCount(ts, cq)
      var lastWf: Option[repro.core.WireframeRun] = None
      val wfMs = warm(reps) { () =>
        val r = Wireframe.run(ts, cq, cat)
        lastWf = Some(r)
        r.totalMs
      }
      val wf = lastWf.get
      require(wf.nEmbeddings == bCount,
        s"${cq.name}: WIREFRAME found ${wf.nEmbeddings} embeddings, baseline $bCount")
      val bMs = warm(reps) { () => Baseline.timedCount(ts, cq)._2 }
      val row = Row(cq.name, shape, bMs, wf.totalMs, wf.phase1Ms, wf.phase2Ms,
        wf.agSize, wf.nEmbeddings, wf.ag.rounds)
      Console.err.println(s"[Table1] done ${format(row)}")
      row
    }
  }

  private def format(r: Row): String =
    f"${r.query}%-4s ${r.shape}%-9s baseline=${r.baselineMs}%6d ms  wf=${r.wfMs}%6d ms " +
      f"(p1=${r.phase1Ms}%5d p2=${r.phase2Ms}%5d)  |AG|=${r.agSize}%8d  |emb|=${r.nEmbeddings}%10d"

  /** Render the measured table next to the paper's numbers. */
  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 1 — query execution time: direct-join baseline (≈PG) vs WIREFRAME (ours), |AG|, |embeddings|\n"
    sb ++= "paper columns: seconds on the authors' 242M-triple YAGO2s testbed; * = killed at 300 s; — = not reported\n"
    sb ++= f"${"query"}%-6s${"shape"}%-11s| ${"base ms"}%8s ${"wf ms"}%8s ${"speedup"}%8s ${"|AG|"}%9s ${"|emb|"}%10s ${"emb/AG"}%8s | ${"PG s"}%5s ${"WF s"}%5s ${"pSpeed"}%8s ${"p|AG|"}%8s ${"p|emb|"}%9s\n"
    for (r <- rows) {
      val p = YagoQueries.paper(r.query)
      def s(o: Option[_]): String = o.map(_.toString).getOrElse("*")
      val speed = r.wfMs.max(1).toDouble
      val ratio = r.nEmbeddings.toDouble / r.agSize.max(1)
      val pRatio = (p.wf, p.pg) match {
        case (Some(w), Some(g)) => f"${g.toDouble / w}%.1fx"
        case _ => "—"
      }
      sb ++= f"${r.query}%-6s${r.shape}%-11s| ${r.baselineMs}%8d ${r.wfMs}%8d ${r.baselineMs / speed}%7.1fx ${r.agSize}%9d ${r.nEmbeddings}%10d ${ratio}%7.1fx | ${s(p.pg)}%5s ${s(p.wf)}%5s ${pRatio}%8s ${s(p.ag)}%8s ${s(p.embeddings)}%9s\n"
    }
    sb.result()
  }
}

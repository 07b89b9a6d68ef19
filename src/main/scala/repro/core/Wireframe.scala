package repro.core

import org.apache.spark.sql.DataFrame
import repro.rdf.TripleStore

/** Everything a WIREFRAME run reports: the embeddings plus the plan and
  * metrics Table 1 is built from.
  *
  * @param agSize      |AG| — total factorized-answer tuples (the paper's
  *                    iAG/AG column)
  * @param nEmbeddings |embeddings| (the paper's last column)
  * @param phase1Ms    wall time of planning + answer-graph generation
  * @param phase2Ms    wall time of defactorization (embedding count)
  */
final case class WireframeRun(embeddings: DataFrame,
                              plan: Plan,
                              chords: Vector[Chord],
                              ag: AnswerGraph,
                              agSize: Long,
                              nEmbeddings: Long,
                              phase1Ms: Long,
                              phase2Ms: Long) {
  def totalMs: Long = phase1Ms + phase2Ms
}

/** The WIREFRAME prototype (paper §5), on Spark: a two-phase cost-based
  * evaluator for conjunctive queries. Phase 1 plans the edge order
  * (Edgifier), chordifies cycles (Triangulator) and builds the answer
  * graph with node burnback; phase 2 defactorizes it into embeddings.
  */
object Wireframe {

  /** Evaluate `cq` end to end. `edgeBurnback` defaults to off, matching
    * the paper's experimental configuration for cyclic queries.
    */
  def run(ts: TripleStore, cq: ConjunctiveQuery, cat: Catalog,
          edgeBurnback: Boolean = false): WireframeRun = {
    val t0 = System.nanoTime()
    val plan   = Edgifier.plan(cq, cat)
    val chords = Triangulator.chords(cq, cat)
    // Phase 1 runs many small single-stage jobs; per-job whole-stage
    // codegen compilation costs more than interpreted execution saves at
    // node-set scale. Phase 2 (millions of joined rows) keeps codegen.
    val spark = ts.triples.sparkSession
    val prevCodegen = spark.conf.get("spark.sql.codegen.wholeStage", "true")
    spark.conf.set("spark.sql.codegen.wholeStage", "false")
    val ag =
      try AnswerGraphBuilder.build(ts, cq, plan, chords, edgeBurnback)
      finally spark.conf.set("spark.sql.codegen.wholeStage", prevCodegen)
    val agSize = ag.size
    val t1 = System.nanoTime()
    val emb = Defactorizer.embeddings(ag)
    val n   = emb.count()
    val t2 = System.nanoTime()
    WireframeRun(emb, plan, chords, ag, agSize, n,
      (t1 - t0) / 1000000L, (t2 - t1) / 1000000L)
  }
}

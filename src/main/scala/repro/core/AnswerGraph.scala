package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.{col, lit, udf}
import repro.rdf.TripleStore
import scala.collection.mutable

/** A factorized answer: for each query edge (and chord), the surviving
  * data-edge pairs, with columns named by the query variables they bind.
  *
  * For acyclic CQs this is the *ideal* answer graph (iAG): every pair
  * participates in at least one embedding. For cyclic CQs evaluated
  * without edge burnback it is a correct but possibly non-ideal AG
  * (paper Fig. 4).
  */
final case class AnswerGraph(cq: ConjunctiveQuery,
                             edges: Map[Int, DataFrame],
                             chords: Map[Int, DataFrame],
                             edgeSizes: Map[Int, Long],
                             nodeSizes: Map[String, Long],
                             rounds: Int) {
  /** Total answer-graph size: the factorized answer's tuple count
    * (sum over query edges; chords are auxiliary, not counted — they are
    * not part of the factorization, only of its maintenance).
    */
  def size: Long = edgeSizes.values.sum
}

/** Phase-1 evaluator (paper §3): edge extension in plan order with node
  * burnback, plus chord maintenance and optional edge burnback for
  * cyclic CQs.
  *
  * The paper's prototype keeps per-variable node tables in PostgreSQL
  * and cascades burnback in procedural SQL. The dataflow translation
  * here keeps the (small) node sets as driver-side sorted arrays
  * applied as membership filters over the Parquet predicate partitions,
  * and runs the whole phase as one semi-join program over one kind of
  * relation — a query edge or a chord (DESIGN.md §3.4). Its single step
  * re-reports a set of relations in one single-stage Spark job: a scan of
  * the union of their tables in which each partition reports, per
  * relation, its sorted distinct endpoint values and its row count. The
  * driver merges the partitions' reports and intersects every report
  * into the node sets, which therefore only shrink:
  *
  *  1. *edge extension* — the step applied to one edge at a time, in
  *     the Edgifier's cost-chosen order; then the chords are
  *     materialized the same way, in id order;
  *  2. *burnback cascade* — the step applied to every stale relation at
  *     once, repeated until a pass shrinks nothing. For acyclic CQs this
  *     computes the full semi-join reduction (Yannakakis);
  *  3. *edge burnback* (optional) — pair-level refinement, then the same
  *     cascade, repeated until the relation counts stop changing.
  *
  * A relation's size is the row count of its last report. That count is
  * exact at the fixpoint: no relation is stale there, so the node sets
  * filtering its table are the ones its own last report left, and
  * intersecting a relation's own report into its endpoints removes none
  * of its rows. Pair sets change only in edge burnback's refinement,
  * after which every relation is reported afresh.
  *
  * AG edge tables are *virtual*: a predicate scan filtered by the final
  * node sets (plus pair restrictions under edge burnback). That is the
  * factorized representation itself — for a tree CQ, a pair whose two
  * endpoints lie in the final (globally consistent) node sets always
  * extends to an embedding, so the filtered relation equals the fully
  * semi-join-reduced one.
  */
object AnswerGraphBuilder {

  /** A relation of the semi-join program. Its pair table is filtered by
    * the node sets of `deps`, and it reports the node sets of its
    * endpoints `u` and `v`.
    */
  private sealed trait Rel { def u: String; def v: String; def deps: Seq[String] }
  private final case class EdgeRel(e: QueryEdge) extends Rel {
    def u: String = e.src
    def v: String = e.dst
    def deps: Seq[String] = e.vars
  }
  private final case class ChordRel(c: Chord) extends Rel {
    def u: String = c.u
    def v: String = c.v
    def deps: Seq[String] = Seq(c.u, c.v) ++ c.triangles.map(_.apex)
  }

  /** A relation's report: the sorted distinct values of its endpoints
    * `u` and `v`, and its row count.
    */
  private final case class Report(u: Array[Long], v: Array[Long], rows: Long) {
    def ++(o: Report): Report = Report(unionSorted(u, o.u), unionSorted(v, o.v), rows + o.rows)
  }

  private object Report {
    val empty: Report = Report(Array.emptyLongArray, Array.emptyLongArray, 0L)

    /** One partition's reports over rows `(relation index, u, v)`. */
    def ofPartition(rows: Iterator[InternalRow]): Iterator[(Int, Report)] = {
      val cols = mutable.Map[Int, (mutable.ArrayBuilder.ofLong, mutable.ArrayBuilder.ofLong)]()
      rows.foreach { row =>
        val (u, v) = cols.getOrElseUpdate(row.getInt(0),
          (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong))
        u += row.getLong(1)
        v += row.getLong(2)
      }
      cols.iterator.map { case (i, (u, v)) =>
        val us = u.result()
        i -> Report(us.sorted.distinct, v.result().sorted.distinct, us.length.toLong)
      }
    }
  }

  /** Merge two sorted distinct arrays by intersection. */
  private def intersectSorted(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = Array.newBuilder[Long]
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out += a(i); i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    out.result()
  }

  /** Merge two sorted distinct arrays by union. */
  private def unionSorted(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = Array.newBuilder[Long]
    var i = 0; var j = 0
    while (i < a.length || j < b.length) {
      if (j == b.length || (i < a.length && a(i) < b(j))) { out += a(i); i += 1 }
      else if (i == a.length || b(j) < a(i)) { out += b(j); j += 1 }
      else { out += a(i); i += 1; j += 1 }
    }
    out.result()
  }

  /** Build the answer graph for `cq` following `plan`.
    *
    * Edge sizes are the row counts of each edge's last report, exact at
    * the fixpoint (see [[AnswerGraphBuilder]]), so no count action follows.
    *
    * The burnback cascade repeats until a pass shrinks no node set; edge
    * burnback repeats refinement and cascade until no relation count
    * changes. Node sets and pair sets only shrink, and every repetition
    * that does not stop removes at least one node or pair, so both loops
    * end without a cap and the result is always a true fixpoint.
    * `rounds` counts the passes of all cascades, each one's last pass
    * (which shrinks nothing) included.
    *
    * @param chords       chordification from [[Triangulator]] (cyclic CQs)
    * @param edgeBurnback enable pair-level triangle-consistency pruning
    *                     (recovers the iAG for triangulated cycles; the
    *                     paper's experiments — and our benchmarks — run
    *                     without it)
    */
  def build(ts: TripleStore, cq: ConjunctiveQuery, plan: Plan,
            chords: Vector[Chord] = Vector.empty,
            edgeBurnback: Boolean = false): AnswerGraph = {
    require(plan.steps.map(_.edge.id).toSet == cq.edges.map(_.id).toSet,
      s"${cq.name}: plan must cover every query edge exactly once")

    val rels: Vector[Rel] = cq.edges.map(EdgeRel) ++ chords.map(ChordRel)
    val chordById = chords.map(c => c.id -> c).toMap
    def rel(s: Side): Rel = s match {
      case EdgeSide(id, _, _)  => EdgeRel(cq.byId(id))
      case ChordSide(id, _, _) => ChordRel(chordById(id))
    }

    // Driver-side node sets (the paper's node tables); absent = unbound.
    // Sorted arrays: compact to serialize into task closures, O(log n)
    // membership via binary search.
    val nodeSets = mutable.Map[String, Array[Long]]()
    // Materialized pair sets: every chord's, and the query edges' pair
    // restrictions under edge burnback.
    val pairs = mutable.Map[Rel, DataFrame]()

    /** Filter `df` to rows whose `v` value is in `v`'s node set. */
    def pruneToNodes(df: DataFrame, vs: Seq[String]): DataFrame =
      vs.foldLeft(df) { (d, v) =>
        nodeSets.get(v).fold(d) { s =>
          val member = udf((x: Long) => java.util.Arrays.binarySearch(s, x) >= 0)
          d.filter(member(col(v)))
        }
      }

    /** The relation's current pair table. Column order (u, v) is
      * canonical: downstream intersect/except resolve by position.
      */
    def table(r: Rel): DataFrame = r match {
      case EdgeRel(e) =>
        val base = pruneToNodes(ts.byPred(e.pred).toDF(e.src, e.dst), e.vars)
        pairs.get(r).fold(base)(p => base.join(p, Seq(e.src, e.dst), "left_semi").select(e.src, e.dst))
      case ChordRel(_) => pairs(r)
    }

    /** A triangle side's pair table; `None` for a chord not yet
      * materialized.
      */
    def sideDf(s: Side): Option[DataFrame] = rel(s) match {
      case r: ChordRel => pairs.get(r)
      case r           => Some(table(r))
    }

    /** (Re-)materialize chord `c` as the intersection of its triangles'
      * side joins (paper §4.I).
      */
    def materialize(c: Chord): Unit = {
      val parts = c.triangles.flatMap { t =>
        for { a <- sideDf(t.sideA); b <- sideDf(t.sideB) }
          yield a.join(b, Seq(t.apex)).select(c.u, c.v).distinct()
      }
      require(parts.nonEmpty, s"chord ${c.id} (${c.u},${c.v}) has no computable triangle")
      pairs(ChordRel(c)) = parts.reduce(_ intersect _).localCheckpoint()
    }

    def sizeOf(v: String): Int = nodeSets.get(v).map(_.length).getOrElse(-1)

    /** For each relation, the sizes of its `deps` as its own last report
      * left them. Node sets only shrink, so while these sizes hold a
      * re-report would shrink nothing; once another relation shrinks one
      * of the sets, the relation is stale.
      */
    val seen = mutable.Map[Rel, Seq[Int]]()
    def stale(r: Rel): Boolean = !seen.get(r).contains(r.deps.map(sizeOf))

    /** Each relation's row count as of its last report. */
    val sizes = mutable.Map[Rel, Long]()

    def shrink(v: String, s: Array[Long]): Array[Long] = nodeSets.get(v).fold(s)(intersectSorted(_, s))

    /** The semi-join step: re-report `rs` in one single-stage Spark job
      * (chords among them are re-materialized first, in id order), record
      * their sizes and intersect each report into the node sets. Returns
      * whether any set shrank.
      */
    def update(rs: Seq[Rel]): Boolean = rs.nonEmpty && {
      rs.collect { case ChordRel(c) => c }.sortBy(_.id).foreach(materialize)
      val merged = rs.zipWithIndex
        .map { case (r, i) => table(r).select(lit(i), col(r.u), col(r.v)) }
        .reduce(_ union _)
        .queryExecution.toRdd
        .mapPartitions(Report.ofPartition)
        .collect()
        .groupMapReduce(_._1)(_._2)(_ ++ _)
      val reports = rs.zipWithIndex.map { case (r, i) =>
        val rep = merged.getOrElse(i, Report.empty)
        sizes(r) = rep.rows
        r -> Map(r.u -> shrink(r.u, rep.u), r.v -> shrink(r.v, rep.v))
      }
      for ((r, own) <- reports) seen(r) = r.deps.map(w => own.get(w).fold(sizeOf(w))(_.length))
      val before = cq.vars.map(sizeOf)
      for ((_, own) <- reports; (v, s) <- own) nodeSets(v) = shrink(v, s)
      before != cq.vars.map(sizeOf)
    }

    /** Node burnback to a fixpoint: every pass re-reports the stale
      * relations. Returns the number of passes, the last included.
      */
    def cascade(): Int = {
      var passes = 1
      while (update(rels.filter(stale))) passes += 1
      passes
    }

    /** Pair-level pruning (edge burnback): keep only side pairs that
      * close some triangle instance consistent with the chord.
      */
    def triangleRefine(c: Chord, t: Triangle): Unit =
      for { a <- sideDf(t.sideA); b <- sideDf(t.sideB) } {
        val tj = a.join(b, Seq(t.apex)).join(pairs(ChordRel(c)), Seq(c.u, c.v))
          .localCheckpoint()
        for (r <- Seq(rel(t.sideA), rel(t.sideB), ChordRel(c)))
          pairs(r) = tj.select(r.u, r.v).distinct()
      }

    // Edge extension (top-down) in the Edgifier's cost-planned order:
    // nodes that fail to extend drop out as we go. Then the chords, in
    // id order (each has a triangle whose sides are already available).
    plan.steps.foreach(s => update(Seq(EdgeRel(s.edge))))
    chords.sortBy(_.id).foreach(c => update(Seq(ChordRel(c))))
    var rounds = cascade()
    // Edge burnback changes pair sets without changing node sets: after
    // each refinement every relation is stale, and the fixpoint is
    // detected on relation counts (pair sets only shrink).
    var refining = edgeBurnback && chords.nonEmpty
    while (refining) {
      val prev = sizes.toMap
      for (c <- chords; t <- c.triangles) triangleRefine(c, t)
      seen.clear()
      rounds += cascade()
      refining = sizes.toMap != prev
    }

    AnswerGraph(
      cq,
      cq.edges.map(e => e.id -> table(EdgeRel(e))).toMap,
      chords.map(c => c.id -> pairs(ChordRel(c))).toMap,
      cq.edges.map(e => e.id -> sizes(EdgeRel(e))).toMap,
      cq.vars.map(v => v -> nodeSets.get(v).map(_.length.toLong).getOrElse(0L)).toMap,
      rounds,
    )
  }
}

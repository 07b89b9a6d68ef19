package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.rdf.TripleStore
import repro.workload.YagoQueries

/** Phase-1 evaluator: edge extension, node burnback, chord maintenance,
  * edge burnback, and the iAG property on acyclic queries.
  */
class AnswerGraphSpec extends SparkSpec {

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Every edge size (the count of the edge's last report) equals the
    * row count of its AG edge table.
    */
  private def assertSizesExact(ag: AnswerGraph): Unit =
    for (e <- ag.cq.edges)
      assert(ag.edgeSizes(e.id) == ag.edges(e.id).count(), s"${ag.cq.name} edge ${e.id}")

  private def buildChain(): AnswerGraph = {
    val ts = Fixtures.chainData(spark)
    val cq = Fixtures.chainCq
    val cat = Catalog.build(ts.triples)
    AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat))
  }

  test("chain: node burnback removes the dangling A edge") {
    val ag = buildChain()
    assert(pairs(ag.edges(0).select("w", "x")) == Set((1L, 10L), (2L, 10L), (3L, 10L)))
  }

  test("chain: unreachable C edge removed") {
    val ag = buildChain()
    assert(pairs(ag.edges(2).select("y", "z")) == Set((20L, 31L), (20L, 33L)))
  }

  test("chain: iAG sizes match Fig.-1 expectation (6 of 8 data edges)") {
    val ag = buildChain()
    assert(ag.edgeSizes == Map(0 -> 3L, 1 -> 1L, 2 -> 2L))
    assert(ag.size == 6)
    assertSizesExact(ag)
  }

  test("chain: node sets are exactly the embedded nodes") {
    val ag = buildChain()
    assert(ag.nodeSizes == Map("w" -> 3L, "x" -> 1L, "y" -> 1L, "z" -> 2L))
  }

  test("chain: AG columns are named by query variables") {
    val ag = buildChain()
    assert(ag.edges(0).columns.toSet == Set("w", "x"))
    assert(ag.edges(2).columns.toSet == Set("y", "z"))
  }

  test("plan must cover the query") {
    val ts = Fixtures.chainData(spark)
    val cq = Fixtures.chainCq
    val cat = Catalog.build(ts.triples)
    val partial = Plan(Edgifier.plan(cq, cat).steps.tail)
    intercept[IllegalArgumentException](AnswerGraphBuilder.build(ts, cq, partial))
  }

  /** Build with the plan that extends `cq`'s edges in id order. */
  private def buildInOrder(ts: TripleStore, cq: ConjunctiveQuery): AnswerGraph =
    AnswerGraphBuilder.build(ts, cq, Plan(cq.edges.map(PlanStep(_, 1.0))))

  test("long path: the cascade runs to the fixpoint, however many passes it takes") {
    // x0 -L1-> x1 ... -L14-> x14 over two disjoint data paths a0..a14 and
    // b0..b13; b13 has no L14 edge. Extending in path order finds the
    // break last, and each pass burns the b path back by one edge.
    val n = 14
    val cq = ConjunctiveQuery("path14", (1 to n).toVector.map(i =>
      QueryEdge(i - 1, s"x${i - 1}", s"L$i", s"x$i")))
    val a = (1 to n).map(i => (100L + i - 1, s"L$i", 100L + i))
    val b = (1 until n).map(i => (200L + i - 1, s"L$i", 200L + i))
    val ag = buildInOrder(TripleStore(spark, a ++ b), cq)
    assert(ag.size == n)
    assert(ag.nodeSizes.values.forall(_ == 1), ag.nodeSizes)
    assert(ag.rounds == n)
    assertSizesExact(ag)
  }

  test("a relation whose node set another shrinks in the same pass is re-reported") {
    // In the first cascade pass both A and B are stale. B's report drops
    // 22 from y, which strands 12 in x and with it the D edge 2 -> 12;
    // only a second report of A finds that.
    val cq = ConjunctiveQuery("stale", Vector(
      QueryEdge(0, "x", "A", "y"), QueryEdge(1, "y", "B", "z"),
      QueryEdge(2, "z", "C", "w"), QueryEdge(3, "v", "D", "x")))
    val ts = TripleStore(spark, Seq(
      (11L, "A", 21L), (12L, "A", 22L), (13L, "A", 24L),
      (21L, "B", 31L), (22L, "B", 32L), (23L, "B", 33L),
      (31L, "C", 41L),
      (1L, "D", 11L), (2L, "D", 12L)))
    val ag = buildInOrder(ts, cq)
    assert(ag.edgeSizes == Map(0 -> 1L, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(ag.nodeSizes.values.forall(_ == 1), ag.nodeSizes)
    assertSizesExact(ag)
  }

  private def buildDiamond(edgeBurnback: Boolean,
                           ts: TripleStore = Fixtures.diamondData(spark)): AnswerGraph = {
    val cq = Fixtures.diamondCq
    val cat = Catalog.build(ts.triples)
    val chords = Triangulator.chords(cq, cat)
    AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat), chords,
      edgeBurnback = edgeBurnback)
  }

  test("diamond without edge burnback: the Fig.-4 spurious edge survives") {
    val ag = buildDiamond(edgeBurnback = false)
    // Node burnback keeps P(1,6): nodes 1 and 6 are both live.
    assert(pairs(ag.edges(0).select("a", "b")) ==
      Set((1L, 2L), (5L, 6L), (1L, 6L)))
    assert(ag.size == 9) // all 9 data edges survive
    assertSizesExact(ag)
  }

  test("diamond with edge burnback: the spurious edge is culled (iAG)") {
    val ag = buildDiamond(edgeBurnback = true)
    assert(pairs(ag.edges(0).select("a", "b")) == Set((1L, 2L), (5L, 6L)))
    assert(ag.size == 8)
    assertSizesExact(ag)
  }

  test("diamond: chord holds only embedding-consistent pairs") {
    val ag = buildDiamond(edgeBurnback = false)
    val chord = ag.chords.values.head
    val cols = chord.columns.toSet
    // Either chord (a,d) or (b,c); both have exactly the two clean pairs.
    val expected =
      if (cols == Set("a", "d")) Set((1L, 4L), (5L, 8L))
      else Set((2L, 3L), (6L, 7L))
    assert(pairs(chord.select(cols.toSeq.sorted.head, cols.toSeq.sorted.last)) == expected)
  }

  test("reports from many partitions merge to the one-partition result") {
    // More partitions than any predicate has rows: most partitions
    // report nothing for a relation, the rest a single row each.
    val triples = Fixtures.diamondData(spark).triples
    for (edgeBurnback <- Seq(false, true)) {
      val many = buildDiamond(edgeBurnback, TripleStore(triples.repartition(8)))
      val one = buildDiamond(edgeBurnback, TripleStore(triples.coalesce(1)))
      assert(many.nodeSizes == one.nodeSizes)
      assert(many.edgeSizes == one.edgeSizes)
      for (e <- Fixtures.diamondCq.edges)
        assert(pairs(many.edges(e.id)) == pairs(one.edges(e.id)), s"edge ${e.id}")
      assertSizesExact(many)
    }
  }

  test("diamond: edge-burnback passes count toward rounds") {
    assert(buildDiamond(edgeBurnback = true).rounds > buildDiamond(edgeBurnback = false).rounds)
  }

  test("diamond: fixpoint converges within the round cap") {
    val ag = buildDiamond(edgeBurnback = false)
    assert(ag.rounds < 10)
  }

  test("acyclic workload queries: every AG edge joins some embedding (iAG)") {
    val ts = Fixtures.yago(spark, 0.01)
    val cat = Fixtures.yagoCatalog(spark, 0.01)
    for (cq <- Seq(YagoQueries.s2, YagoQueries.s5)) {
      val ag = AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat))
      assertSizesExact(ag)
      val emb = Defactorizer.embeddings(ag).cache()
      try {
        for (e <- cq.edges) {
          val unused = ag.edges(e.id)
            .except(emb.select(e.src, e.dst).distinct())
            .count()
          assert(unused == 0, s"${cq.name} edge ${e.id}: $unused AG edges in no embedding")
        }
      } finally { emb.unpersist(); () }
    }
  }

  test("cyclic workload query: AG is a superset of the embedded edges") {
    val ts = Fixtures.yago(spark, 0.01)
    val cat = Fixtures.yagoCatalog(spark, 0.01)
    val cq = YagoQueries.d8
    val chords = Triangulator.chords(cq, cat)
    val ag = AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat), chords)
    assertSizesExact(ag)
    val emb = Defactorizer.embeddings(ag).cache()
    try {
      for (e <- cq.edges) {
        val missing = emb.select(e.src, e.dst).distinct()
          .except(ag.edges(e.id))
          .count()
        assert(missing == 0, s"${cq.name} edge ${e.id}: $missing embedded edges missing from AG")
      }
    } finally { emb.unpersist(); () }
  }

  test("edge burnback on a cyclic workload query yields the iAG") {
    val ts = Fixtures.yago(spark, 0.003)
    val cat = Catalog.build(ts.triples)
    val cq = YagoQueries.d9
    val chords = Triangulator.chords(cq, cat)
    val ag = AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat), chords,
      edgeBurnback = true)
    assertSizesExact(ag)
    val emb = Defactorizer.embeddings(ag).cache()
    try {
      for (e <- cq.edges) {
        val unused = ag.edges(e.id)
          .except(emb.select(e.src, e.dst).distinct())
          .count()
        assert(unused == 0, s"${cq.name} edge ${e.id}: $unused spurious AG edges")
      }
    } finally { emb.unpersist(); () }
  }

  test("AG of an empty-result query is empty everywhere") {
    val ts = Fixtures.chainData(spark)
    val cq = ConjunctiveQuery("empty", Vector(
      QueryEdge(0, "w", "A", "x"), QueryEdge(1, "x", "Z", "y")))
    val cat = Catalog.build(ts.triples)
    val ag = AnswerGraphBuilder.build(ts, cq, Edgifier.plan(cq, cat))
    assert(ag.size == 0)
    assert(ag.nodeSizes.values.forall(_ == 0))
  }
}

package repro.rdf

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** RDF triple store over a `(s: long, p: string, o: long)` DataFrame.
  *
  * The paper's WIREFRAME prototype stores YAGO2s as a PostgreSQL triple
  * table with six composite SPO indexes. Here the substrate is a Parquet
  * dataset partitioned by predicate: a per-predicate scan (`byPred`) is
  * served by partition pruning, the dataflow analogue of a predicate
  * index lookup.
  */
final case class TripleStore(triples: DataFrame) {

  /** All data edges labeled `pred`, as a two-column `(s, o)` DataFrame. */
  def byPred(pred: String): DataFrame =
    triples.filter(col("p") === pred).select("s", "o")

  /** Number of triples in the store. */
  def count(): Long = triples.count()

  /** Distinct predicates present in the store. */
  def predicates(): Seq[String] =
    triples.select("p").distinct().collect().map(_.getString(0)).toSeq.sorted

  /** Register as a temp view (for the SQL baseline / oracle paths). */
  def createOrReplaceTempView(name: String): Unit =
    triples.createOrReplaceTempView(name)

  /** Write the triples to `path` as Parquet partitioned by predicate,
    * replacing whatever is there (the benchmarked configuration); read
    * the copy back with [[TripleStore.readParquet]].
    */
  def writeParquet(path: String): Unit =
    triples.write.mode("overwrite").partitionBy("p").parquet(path)
}

object TripleStore {

  /** Load a Parquet-backed store written by [[TripleStore.writeParquet]]. */
  def readParquet(spark: SparkSession, path: String): TripleStore =
    TripleStore(spark.read.parquet(path).select(
      col("s").cast("long") as "s",
      col("p").cast("string") as "p",
      col("o").cast("long") as "o",
    ))

  /** Wrap an in-memory triple DataFrame, normalizing column types. */
  def apply(spark: SparkSession, rows: Seq[(Long, String, Long)]): TripleStore = {
    import spark.implicits._
    TripleStore(rows.toDF("s", "p", "o"))
  }
}

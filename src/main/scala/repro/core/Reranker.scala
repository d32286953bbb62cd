package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import repro.webdb.{WebSchema, WebTuple}

/** The distributed re-rank operator: applies an arbitrary user ranking
  * function to a result set fetched from a web database as a DataFrame
  * transformation — score column, then a stable (score, id) sort.
  */
object Reranker {

  /** Name of the appended score column. */
  val ScoreCol = "qr2_score"

  /** Column computing `Σ wᵢ·(Aᵢ−minᵢ)/(maxᵢ−minᵢ)`, left-associated like
    * [[LinearRanking.score]] so driver- and cluster-side scores agree
    * bit-for-bit.
    */
  def scoreColumn(f: LinearRanking, norm: Normalizer): Column =
    f.weights
      .map { case (a, w) =>
        val (lo, hi) = norm.minMax(a)
        if (hi > lo) lit(w) * ((col(a) - lit(lo)) / lit(hi - lo)) else lit(0.0)
      }
      .reduceLeft(_ + _)

  /** Re-rank a fetched result set: append the score and sort by
    * (score asc, id asc).
    */
  def rerank(
      df: DataFrame,
      f: LinearRanking,
      norm: Normalizer,
      idCol: String = "id",
  ): DataFrame =
    df.withColumn(ScoreCol, scoreColumn(f, norm))
      .orderBy(col(ScoreCol).asc, col(idCol).asc)

  /** Materialize driver-side tuples (e.g. a session's discovered top-h) as
    * a DataFrame so they can be re-ranked / joined / displayed with the
    * full Spark API.
    */
  def tuplesToDataFrame(
      spark: SparkSession,
      schema: WebSchema,
      tuples: Seq[WebTuple],
  ): DataFrame = {
    val st = StructType(
      Seq(StructField(schema.idCol, LongType, nullable = false))
        ++ schema.numeric.map(StructField(_, DoubleType, nullable = false))
        ++ schema.categorical.map(StructField(_, StringType, nullable = false)))
    val rows = tuples.map { t =>
      Row.fromSeq(Seq(t.id) ++ schema.numeric.map(t.num) ++ schema.categorical.map(t.cat))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 1), st)
  }
}

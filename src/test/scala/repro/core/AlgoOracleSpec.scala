package repro.core

import org.apache.spark.sql.functions._
import repro.webdb._
import repro.{Oracle, SparkSpec, TestFixtures}

/** End-to-end oracle checks: the tuples each get-next strategy discovers
  * through the top-k interface must equal what DuckDB computes from the
  * full table — a wrong narrowing bound or a broken crawl shows up here,
  * not just "it ran".
  */
class AlgoOracleSpec extends SparkSpec {

  private val sf       = 0.002
  private lazy val diaDf = WebData.diamonds(spark, sf).cache()
  private lazy val db    = TestFixtures.diamonds(spark, sf)

  private def duckScore(f: LinearRanking, norm: Normalizer): String =
    f.weights
      .map { case (a, w) =>
        val (lo, hi) = norm.minMax(a)
        s"($w * ((CAST($a AS DOUBLE) - $lo) / ${hi - lo}))"
      }
      .mkString(" + ")

  private def check(algoName: String, mk: WebDbConn => GetNexter, f: LinearRanking, h: Int): Unit =
    test(s"$algoName top-$h equals DuckDB for ${f.weights.map { case (a, w) => s"$w*$a" }.mkString(" + ")}") {
      val got  = mk(new WebDbConn(db)).next(h)
      val norm = TestFixtures.trueNorm(db, f.attrs)
      val df = Reranker
        .tuplesToDataFrame(spark, db.schema, got)
        .select(col("id"), col("price"))
      Oracle.assertEquivalent(
        df,
        s"""SELECT CAST(id AS BIGINT) AS id, CAST(price AS DOUBLE) AS price
           |FROM diamonds
           |ORDER BY ${duckScore(f, norm)}, CAST(id AS BIGINT)
           |LIMIT $h""".stripMargin,
        "diamonds" -> diaDf,
      )
    }

  private val f1d   = LinearRanking.oneD("price", asc = true)
  private val f1dD  = LinearRanking.oneD("carat", asc = false)
  private val f2d   = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))

  private def norm1d(f: LinearRanking) = TestFixtures.trueNorm(db, f.attrs)

  check("1D-BASELINE", c => new OneDBaseline(c, WebQuery.all, "price", asc = true), f1d, 10)
  check("1D-BINARY", c => new OneDBinary(c, WebQuery.all, "price", asc = true), f1d, 10)
  check("1D-RERANK", c => new OneDRerank(c, WebQuery.all, "price", asc = true), f1d, 10)
  check("1D-BINARY desc", c => new OneDBinary(c, WebQuery.all, "carat", asc = false), f1dD, 10)
  check("MD-BASELINE", c => new MDBaseline(c, WebQuery.all, f2d, norm1d(f2d)), f2d, 10)
  check("MD-BINARY", c => new MDBinary(c, WebQuery.all, f2d, norm1d(f2d)), f2d, 10)
  check("MD-RERANK", c => new MDRerank(c, WebQuery.all, f2d, norm1d(f2d)), f2d, 10)
  check("MD-TA", c => new MDTA(c, WebQuery.all, f2d, norm1d(f2d)), f2d, 10)

  test("oracle catches a wrong result") {
    val wrong = diaDf.limit(5).select(col("id"))
    val ex = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT CAST(id AS BIGINT) AS id FROM diamonds", "diamonds" -> diaDf)
    }
    assert(ex.getMessage.contains("result mismatch"))
  }

  test("filtered session equals DuckDB with the same WHERE clause") {
    val base = WebQuery.all.andCat("cut", Set("Ideal"))
    val got  = new OneDRerank(new WebDbConn(db), base, "price", asc = true).next(8)
    val df   = Reranker.tuplesToDataFrame(spark, db.schema, got).select(col("id"), col("price"))
    Oracle.assertEquivalent(
      df,
      """SELECT CAST(id AS BIGINT) AS id, CAST(price AS DOUBLE) AS price
        |FROM diamonds WHERE cut = 'Ideal'
        |ORDER BY CAST(price AS DOUBLE), CAST(id AS BIGINT)
        |LIMIT 8""".stripMargin,
      "diamonds" -> diaDf,
    )
  }
}

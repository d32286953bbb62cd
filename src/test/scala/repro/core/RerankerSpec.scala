package repro.core

import org.apache.spark.sql.functions._
import repro.webdb.WebData
import repro.{Oracle, SparkSpec, TestFixtures}

/** The distributed re-rank operator versus the DuckDB oracle and the
  * driver-side score.
  */
class RerankerSpec extends SparkSpec {

  private lazy val dia = WebData.diamonds(spark, sf = 0.002).cache()

  /** DuckDB-side mirror of [[Reranker.scoreColumn]] (tables are stored as
    * VARCHAR by the oracle, hence the casts; same left-associated sum).
    */
  private def duckScore(f: LinearRanking, norm: Normalizer): String =
    f.weights
      .map { case (a, w) =>
        val (lo, hi) = norm.minMax(a)
        s"($w * ((CAST($a AS DOUBLE) - $lo) / ${hi - lo}))"
      }
      .mkString(" + ")

  private def checkAgainstOracle(f: LinearRanking, h: Int): Unit = {
    val norm = TestFixtures.trueNorm(TestFixtures.diamonds(spark, 0.002), f.attrs)
    val got = Reranker
      .rerank(dia, f, norm)
      .limit(h)
      .select(col("id"), col("price"), col("carat"))
    Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(id AS BIGINT) AS id,
         |       CAST(price AS DOUBLE) AS price,
         |       CAST(carat AS DOUBLE) AS carat
         |FROM diamonds
         |ORDER BY ${duckScore(f, norm)}, CAST(id AS BIGINT)
         |LIMIT $h""".stripMargin,
      "diamonds" -> dia,
    )
  }

  test("rerank top-20 equals DuckDB for price − 0.5·carat") {
    checkAgainstOracle(LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5)), 20)
  }

  test("rerank top-20 equals DuckDB for the paper 3D example") {
    checkAgainstOracle(LinearRanking(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5)), 20)
  }

  test("rerank top-15 equals DuckDB for an anti-correlated function") {
    checkAgainstOracle(LinearRanking(Seq("price" -> -1.0, "carat" -> -0.5)), 15)
  }

  test("full rerank (no limit) equals DuckDB ordering") {
    val f    = LinearRanking(Seq("price" -> 1.0, "lwr" -> 1.0))
    val norm = TestFixtures.trueNorm(TestFixtures.diamonds(spark, 0.002), f.attrs)
    val got  = Reranker.rerank(dia, f, norm).select(col("id"), col("lwr"))
    Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(id AS BIGINT) AS id, CAST(lwr AS DOUBLE) AS lwr
         |FROM diamonds""".stripMargin,
      "diamonds" -> dia,
    )
  }

  test("rerank scores equal the driver-side LinearRanking.score exactly") {
    val db   = TestFixtures.diamonds(spark, 0.002)
    val byId = db.allTuples.map(t => t.id -> t).toMap
    def norm(f: LinearRanking) = TestFixtures.trueNorm(db, f.attrs)
    val collapsed = LinearRanking(Seq("price" -> 1.0, "carat" -> 0.7))
    val cases = Seq(
      LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5)),
      LinearRanking(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5)),
      LinearRanking(Seq("price" -> -1.0, "carat" -> -0.5)),
      LinearRanking(Seq("price" -> 0.0, "lwr" -> 0.7, "depth" -> -0.3)),
    ).map(f => f -> norm(f)) :+
      (collapsed -> Normalizer(norm(collapsed).minMax + ("carat" -> (5.0, 5.0))))
    cases.foreach { case (f, n) =>
      val rows = Reranker.rerank(dia, f, n).select("id", Reranker.ScoreCol).collect()
      assert(rows.length == byId.size)
      rows.foreach { r =>
        val expected = f.score(byId(r.getLong(0)), n)
        assert(r.getDouble(1) == expected, s"$f, id ${r.getLong(0)}")
      }
    }
  }

  test("tuplesToDataFrame round-trips tuples with all public attributes") {
    val db = TestFixtures.diamonds(spark, 0.002)
    val ts = db.allTuples.take(25)
    val df = Reranker.tuplesToDataFrame(spark, db.schema, ts)
    assert(df.count() == 25)
    assert(df.columns.toSet ==
      (Set(db.schema.idCol) ++ db.schema.numeric ++ db.schema.categorical))
    val back = df.collect().map(r => r.getAs[Long]("id") -> r.getAs[Double]("price")).toMap
    ts.foreach(t => assert(back(t.id) == t.num("price")))
  }

  test("rerank on a fetched result-set DataFrame (the service presentation path)") {
    val db   = TestFixtures.diamonds(spark, 0.002)
    val f    = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))
    val norm = TestFixtures.trueNorm(db, f.attrs)
    val fetched = db.allTuples.take(100) // "fetched from the web database"
    val df      = Reranker.tuplesToDataFrame(spark, db.schema, fetched)
    val got     = Reranker.rerank(df, f, norm).select("id").collect().map(_.getLong(0)).toSeq
    val expect = fetched
      .map(t => (f.score(t, norm), t.id))
      .sortBy(identity)
      .map(_._2)
    assert(got == expect)
  }
}

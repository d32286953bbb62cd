package repro.core

import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** Correctness grid for the MD get-next strategies: BASELINE, BINARY,
  * RERANK and TA must all emit the exact ground-truth (score, id) order for
  * every weight combination, dimensionality, and filter tested.
  */
class MDSpec extends SparkSpec {

  private val algos = Seq("BASELINE", "BINARY", "RERANK", "TA")

  private def mkAlgo(
      name: String,
      db: LocalWebDb,
      base: WebQuery,
      f: LinearRanking,
      norm: Normalizer,
  ): GetNexter = {
    val conn = new WebDbConn(db)
    name match {
      case "BASELINE" => new MDBaseline(conn, base, f, norm)
      case "BINARY"   => new MDBinary(conn, base, f, norm)
      case "RERANK"   => new MDRerank(conn, base, f, norm)
      case "TA"       => new MDTA(conn, base, f, norm)
    }
  }

  private def checkTopH(
      dbName: String,
      weights: Seq[(String, Double)],
      base: WebQuery,
      h: Int,
      label: String,
  ): Unit = {
    for (algo <- algos) {
      test(s"$algo $dbName [$label] top-$h matches ground truth") {
        val db    = if (dbName == "diamonds") TestFixtures.diamonds(spark) else TestFixtures.houses(spark)
        val f     = LinearRanking(weights)
        val norm  = TestFixtures.trueNorm(db, f.attrs)
        val truth = TestFixtures.groundTruth(db, base, f, norm).take(h)
        val got   = mkAlgo(algo, db, base, f, norm).next(h)
        assert(got.map(_.id) == truth.map(_.id),
          s"expected ${truth.map(t => (t.id, f.score(t, norm)))}\n" +
            s"got      ${got.map(t => (t.id, f.score(t, norm)))}")
      }
    }
  }

  // 2D weight-sign grid on diamonds (the paper's MD demonstration varies
  // positive/negative slider combinations).
  checkTopH("diamonds", Seq("price" -> 1.0, "carat" -> 0.2), WebQuery.all, 8, "price + 0.2 carat")
  checkTopH("diamonds", Seq("price" -> 1.0, "carat" -> -0.5), WebQuery.all, 8, "price - 0.5 carat")
  checkTopH("diamonds", Seq("price" -> -1.0, "carat" -> -0.5), WebQuery.all, 8, "-price - 0.5 carat")
  checkTopH("diamonds", Seq("price" -> -0.3, "carat" -> 1.0), WebQuery.all, 8, "-0.3 price + carat")

  // The paper's example 3D ranking on Blue Nile: price − 0.1·carat − 0.5·depth.
  checkTopH("diamonds", Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5),
    WebQuery.all, 8, "paper 3D example")

  // The paper's Zillow examples.
  checkTopH("houses", Seq("price" -> 1.0, "sqft" -> -0.3), WebQuery.all, 8, "price - 0.3 sqft")
  checkTopH("houses", Seq("price" -> 1.0, "sqft" -> 1.0), WebQuery.all, 8, "price + sqft (best case)")

  // Filtered MD sessions.
  checkTopH("diamonds", Seq("price" -> 1.0, "carat" -> -0.5),
    WebQuery.all.andCat("cut", Set("Ideal")), 6, "price - 0.5 carat, cut=Ideal")
  checkTopH("houses", Seq("price" -> 1.0, "sqft" -> -0.3),
    WebQuery.all.andCat("city", Set("Dallas")).and("beds", Interval(2.0, 6.0)),
    6, "price - 0.3 sqft, Dallas 2+ beds")

  // Dense MD region: the lwr = 1.00 spike inside a 2D ranking (worst case).
  checkTopH("diamonds", Seq("price" -> 1.0, "lwr" -> 1.0), WebQuery.all, 6, "price + lwr (worst case)")

  // Exhaustion on a narrow filter.
  for (algo <- algos) {
    test(s"$algo MD exhausts a small result set") {
      val db   = TestFixtures.diamonds(spark)
      val base = WebQuery.all.and("price", Interval(200.0, 400.0))
      val f    = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))
      val norm = TestFixtures.trueNorm(db, f.attrs)
      val truth = TestFixtures.groundTruth(db, base, f, norm)
      assert(truth.nonEmpty && truth.size < 200)
      val a   = mkAlgo(algo, db, base, f, norm)
      val got = a.next(truth.size + 3)
      assert(got.map(_.id) == truth.map(_.id))
      assert(a.getNext().isEmpty)
    }
  }

  // Pairwise agreement across algorithms on a fresh configuration.
  test("all MD strategies agree on houses price + 0.5*year") {
    val db   = TestFixtures.houses(spark)
    val f    = LinearRanking(Seq("price" -> 1.0, "year" -> 0.5))
    val norm = TestFixtures.trueNorm(db, f.attrs)
    val outs = algos.map(a => mkAlgo(a, db, WebQuery.all, f, norm).next(6).map(_.id))
    assert(outs.distinct.size == 1, s"disagreement: ${algos.zip(outs)}")
  }

  // Cost shapes.
  test("cost shape: MD-BINARY beats MD-BASELINE on anti-correlated weights") {
    val db   = TestFixtures.diamonds(spark)
    val f    = LinearRanking(Seq("price" -> -1.0, "carat" -> -0.5))
    val norm = TestFixtures.trueNorm(db, f.attrs)
    val cBin = new WebDbConn(db)
    val cBas = new WebDbConn(db)
    new MDBinary(cBin, WebQuery.all, f, norm).next(5)
    new MDBaseline(cBas, WebQuery.all, f, norm).next(5)
    assert(cBin.acc.queries < cBas.acc.queries,
      s"binary=${cBin.acc.queries} baseline=${cBas.acc.queries}")
  }

  test("cost shape: MD rounds are predominantly parallel (Fig 2 mechanism)") {
    val db   = TestFixtures.diamonds(spark)
    val f    = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.1))
    val norm = TestFixtures.trueNorm(db, f.attrs)
    val conn = new WebDbConn(db)
    new MDRerank(conn, WebQuery.all, f, norm).next(10)
    val s = conn.acc.snapshot
    assert(s.parallelFraction > 0.5, s"parallel fraction ${s.parallelFraction} of ${s.rounds} rounds")
  }

  test("MD-RERANK with a shared store amortizes across sessions") {
    val db    = TestFixtures.diamonds(spark)
    val f     = LinearRanking(Seq("price" -> 1.0, "lwr" -> 1.0))
    val norm  = TestFixtures.trueNorm(db, f.attrs)
    val conns = TestFixtures.inTurnOverOneStore(db)
    val c1    = conns.next()
    new MDRerank(c1, WebQuery.all, f, norm).next(5)
    val c2 = conns.next()
    new MDRerank(c2, WebQuery.all, f, norm).next(5)
    assert(c2.acc.queries <= c1.acc.queries,
      s"first=${c1.acc.queries} second=${c2.acc.queries}")
  }
}

package repro.core

import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** MD-TA specifics: threshold semantics, exhaustion-completes-the-pool,
  * shared-store reuse between the per-attribute iterators.
  */
class MDTASpec extends SparkSpec {

  private def ta(db: LocalWebDb, base: WebQuery, ws: Seq[(String, Double)]): MDTA = {
    val f = LinearRanking(ws)
    new MDTA(new WebDbConn(db), base, f, TestFixtures.trueNorm(db, f.attrs))
  }

  test("TA full drain on a narrow filter equals ground truth (pool completion path)") {
    val db    = TestFixtures.diamonds(spark)
    val base  = WebQuery.all.and("price", Interval(200.0, 450.0))
    val f     = LinearRanking(Seq("price" -> 1.0, "depth" -> 0.3))
    val norm  = TestFixtures.trueNorm(db, f.attrs)
    val truth = TestFixtures.groundTruth(db, base, f, norm)
    val a     = ta(db, base, Seq("price" -> 1.0, "depth" -> 0.3))
    assert(a.next(truth.size + 5).map(_.id) == truth.map(_.id))
    assert(a.getNext().isEmpty)
  }

  test("TA with a single attribute degenerates to the 1D order") {
    val db    = TestFixtures.diamonds(spark)
    val a     = ta(db, WebQuery.all, Seq("depth" -> 1.0))
    val truth = TestFixtures.groundTruth1D(db, WebQuery.all, "depth", asc = true).take(8)
    assert(a.next(8).map(_.id) == truth.map(_.id))
  }

  test("TA with a single negative weight follows the descending order") {
    val db    = TestFixtures.diamonds(spark)
    val a     = ta(db, WebQuery.all, Seq("depth" -> -1.0))
    val truth = TestFixtures.groundTruth1D(db, WebQuery.all, "depth", asc = false).take(8)
    assert(a.next(8).map(_.id) == truth.map(_.id))
  }

  test("TA emits no duplicates across a long prefix") {
    val db  = TestFixtures.diamonds(spark)
    val got = ta(db, WebQuery.all, Seq("price" -> 1.0, "table_pct" -> 0.4)).next(25)
    assert(got.map(_.id).distinct.size == got.size)
  }

  test("TA on three attributes matches the other MD strategies") {
    val db   = TestFixtures.diamonds(spark)
    val f    = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5))
    val norm = TestFixtures.trueNorm(db, f.attrs)
    val taOut = ta(db, WebQuery.all, f.weights).next(6).map(_.id)
    val bin   = new MDBinary(new WebDbConn(db), WebQuery.all, f, norm).next(6).map(_.id)
    assert(taOut == bin)
  }

  test("TA sorted accesses benefit from the shared dense-region store") {
    val db    = TestFixtures.diamonds(spark)
    val conns = TestFixtures.inTurnOverOneStore(db)
    val f     = LinearRanking(Seq("lwr" -> 1.0, "price" -> 0.1))
    val norm  = TestFixtures.trueNorm(db, f.attrs)
    val c1    = conns.next()
    new MDTA(c1, WebQuery.all, f, norm).next(5)
    assert(c1.cache.store.size > 0, "the lwr spike must have been indexed during sorted access")
    val c2 = conns.next()
    new MDTA(c2, WebQuery.all, f, norm).next(5)
    assert(c2.acc.queries < c1.acc.queries,
      s"first=${c1.acc.queries} second=${c2.acc.queries}")
  }
}

package repro.webdb

import repro.crawl.Crawler
import repro.{SparkSpec, TestFixtures}

import scala.util.Random

/** Top-k interface semantics and the Local ≡ Spark backend equivalence —
  * the cost metric is only meaningful if both backends answer every query
  * identically.
  */
class WebDbSpec extends SparkSpec {

  private def randomQuery(r: Random, schema: WebSchema): WebQuery = {
    var q = WebQuery.all
    // 1–2 numeric range constraints
    val numAttrs = r.shuffle(schema.numeric).take(1 + r.nextInt(2))
    numAttrs.foreach { a =>
      val d  = schema.numDomains(a)
      val x  = d.lo + r.nextDouble() * d.width
      val y  = d.lo + r.nextDouble() * d.width
      q = q.and(a, Interval(math.min(x, y), math.max(x, y), r.nextBoolean(), r.nextBoolean()))
    }
    if (r.nextBoolean()) {
      val a  = schema.categorical(r.nextInt(schema.categorical.size))
      val vs = r.shuffle(schema.catDomains(a)).take(1 + r.nextInt(2)).toSet
      q = q.andCat(a, vs)
    }
    q
  }

  test("LocalWebDb returns at most k tuples and a truthful overflow flag") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val res  = conn.topK(WebQuery.all)
    assert(res.tuples.size == db.k)
    assert(res.overflow, "the whole catalogue must overflow a top-10 interface")
    val narrow = conn.topK(WebQuery.all.and("price", Interval(200.0, 360.0)))
    val brute  = db.allTuples.count(t => t.num("price") <= 360.0)
    assert(res.tuples.nonEmpty)
    assert(narrow.overflow == (brute > db.k))
  }

  test("LocalWebDb top-k equals brute-force hidden-rank order on 100 random queries") {
    val db = TestFixtures.diamonds(spark)
    val r  = new Random(7)
    (1 to 100).foreach { _ =>
      val q     = randomQuery(r, db.schema)
      val res   = new WebDbConn(db).topK(q)
      val brute = db.allTuples.filter(q.matches) // allTuples is already rank-ordered
      assert(res.tuples.map(_.id) == brute.take(db.k).map(_.id), s"query $q")
      assert(res.overflow == (brute.size > db.k), s"overflow flag for $q")
    }
  }

  test("unsatisfiable query returns the empty non-overflow response") {
    val db  = TestFixtures.diamonds(spark)
    val res = new WebDbConn(db).topK(WebQuery.all.and("price", Interval(10.0, 5.0)))
    assert(res.isEmpty && !res.overflow)
  }

  test("SparkWebDb ≡ LocalWebDb on 40 random queries (diamonds)") {
    val sf      = 0.005
    val local   = TestFixtures.diamonds(spark, sf)
    val sparkDb = WebData.diamondsSpark(spark, sf)
    val r       = new Random(8)
    (1 to 40).foreach { _ =>
      val q  = randomQuery(r, local.schema)
      val lr = new WebDbConn(local).topK(q)
      val sr = new WebDbConn(sparkDb).topK(q)
      assert(lr.tuples.map(_.id) == sr.tuples.map(_.id), s"tuple mismatch for $q")
      assert(lr.overflow == sr.overflow, s"overflow mismatch for $q")
      assert(lr.tuples == sr.tuples, s"attribute mismatch for $q")
    }
  }

  test("SparkWebDb ≡ LocalWebDb on 20 random queries (houses)") {
    val sf      = 0.002
    val local   = TestFixtures.houses(spark, sf)
    val sparkDb = WebData.housesSpark(spark, sf)
    val r       = new Random(9)
    (1 to 20).foreach { _ =>
      val q  = randomQuery(r, local.schema)
      val lr = new WebDbConn(local).topK(q)
      val sr = new WebDbConn(sparkDb).topK(q)
      assert(lr.tuples.map(_.id) == sr.tuples.map(_.id), s"tuple mismatch for $q")
      assert(lr.overflow == sr.overflow, s"overflow mismatch for $q")
    }
  }

  test("accountant: queries, rounds and parallel rounds") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    conn.topK(WebQuery.all)
    conn.batch(Seq(
      WebQuery.all.and("price", Interval(200.0, 500.0)),
      WebQuery.all.and("price", Interval(500.0, 1000.0))))
    conn.batch(Seq(WebQuery.all.and("carat", Interval(0.2, 0.4))), crawl = true)
    val s = conn.acc.snapshot
    assert(s.queries == 4)
    assert(s.rounds == 3)
    assert(s.parallelRounds == 1)
    assert(s.crawlQueries == 1)
    assert(s.sequentialRounds == 2)
    assert(s.batchSizes == Vector(1, 2, 1))
    assert(s.parallelQueryFraction == 0.5)
    assert(s.simulatedMs == 3600)
  }

  test("session cache: a repeated query is answered for free") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val r1   = conn.topK(WebQuery.all)
    val r2   = conn.topK(WebQuery.all)
    assert(r1 == r2)
    assert(conn.acc.queries == 1 && conn.acc.rounds == 1)
    assert(conn.memoSize == 1)
  }

  test("session cache: only misses of a batch are billed") {
    val db = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val q2 = WebQuery.all.and("price", Interval(200.0, 500.0))
    conn.topK(WebQuery.all)
    conn.batch(Seq(WebQuery.all, q2, q2)) // one real miss, duplicates deduped
    val s = conn.acc.snapshot
    assert(s.queries == 2, s"queries=${s.queries}")
    assert(s.rounds == 2)
    assert(s.parallelRounds == 0, "the second round had a single miss")
  }

  test("session caches are per-connection (per-session), not shared") {
    val db = TestFixtures.diamonds(spark)
    val c1 = new WebDbConn(db)
    val c2 = new WebDbConn(db)
    c1.topK(WebQuery.all)
    c2.topK(WebQuery.all)
    assert(c1.acc.queries == 1 && c2.acc.queries == 1)
  }

  test("accountant `since` computes deltas") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    conn.topK(WebQuery.all)
    val snap = conn.acc.snapshot
    conn.batch(Seq(
      WebQuery.all.and("price", Interval(200.0, 500.0)),
      WebQuery.all.and("price", Interval(500.0, 1000.0))))
    val d = conn.acc.since(snap)
    assert(d.queries == 2 && d.rounds == 1 && d.parallelRounds == 1)
    assert(d.batchSizes == Vector(2))
  }

  test("accountant `since` reports a crawl's crawl queries and crawled tuples") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    Crawler.crawlQuery(conn, WebQuery.all.and("price", Interval(200.0, 600.0)))
    val snap = conn.acc.snapshot
    val q    = WebQuery.all.and("price", Interval(600.0, 1000.0, loIncl = false))
    val ts   = Crawler.crawlQuery(conn, q)
    val d    = conn.acc.since(snap)
    assert(ts.size > db.k, "premise: the region overflows")
    assert(snap.crawlTuples > 0, "premise: an earlier crawl is subtracted")
    val alone = new WebDbConn(db)
    Crawler.crawlQuery(alone, q)
    assert(d.crawlQueries == alone.acc.crawlQueries && d.crawlQueries == d.queries)
    assert(d.crawlTuples == ts.size)
    assert(d.queries == d.batchSizes.sum && d.rounds == d.batchSizes.size)
  }

  test("response tuples carry only public attributes (no hidden system score)") {
    val db  = TestFixtures.diamonds(spark)
    val res = new WebDbConn(db).topK(WebQuery.all)
    res.tuples.foreach { t =>
      assert(t.num.keySet == db.schema.numeric.toSet)
      assert(t.cat.keySet == db.schema.categorical.toSet)
      assert(!t.num.contains(WebData.SysScoreCol))
    }
  }

  test("hidden ranking is price-correlated: first page is cheap") {
    val db       = TestFixtures.diamonds(spark)
    val firstPage = new WebDbConn(db).topK(WebQuery.all).tuples
    val medianAll = {
      val ps = db.allTuples.map(_.num("price")).sorted
      ps(ps.size / 2)
    }
    assert(firstPage.forall(_.num("price") < medianAll),
      "the system's default order must surface cheap tuples first")
  }
}

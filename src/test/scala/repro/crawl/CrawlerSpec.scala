package repro.crawl

import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.{Gen, Prop, Test}
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** The hidden-DB crawler must retrieve *exactly* the matching set of any
  * region — completeness is what the general-positioning fix and the
  * dense-region index rely on.
  */
class CrawlerSpec extends SparkSpec {

  private def brute(db: LocalWebDb, q: WebQuery): Set[Long] =
    db.allTuples.filter(q.matches).map(_.id).toSet

  test("crawling a non-overflowing region costs a single query") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val q    = WebQuery.all.and("price", Interval(200.0, 360.0))
    val ts   = Crawler.crawlQuery(conn, q)
    assert(ts.map(_.id).toSet == brute(db, q))
    assert(conn.acc.queries == 1)
  }

  test("crawling an overflowing range returns exactly the matching set") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val q    = WebQuery.all.and("price", Interval(200.0, 2000.0))
    val expected = brute(db, q)
    assert(expected.size > db.k, "test premise: region overflows")
    val ts = Crawler.crawlQuery(conn, q)
    assert(ts.map(_.id).toSet == expected)
    assert(conn.acc.queries > 1)
    assert(conn.acc.crawlQueries == conn.acc.queries, "crawler traffic must be tagged")
  }

  test("point predicate with more than k matches (the lwr spike) crawls completely") {
    val db       = TestFixtures.diamonds(spark)
    val conn     = new WebDbConn(db)
    val q        = WebQuery.all.and("lwr", Interval.point(1.0))
    val expected = brute(db, q)
    assert(expected.size > 10 * db.k, s"premise: spike has ${expected.size} tuples")
    val ts = Crawler.crawlQuery(conn, q)
    assert(ts.map(_.id).toSet == expected)
  }

  test("point predicate combined with filters crawls the filtered subset") {
    val db       = TestFixtures.diamonds(spark)
    val conn     = new WebDbConn(db)
    val q        = WebQuery.all.and("lwr", Interval.point(1.0)).andCat("cut", Set("Ideal"))
    val expected = brute(db, q)
    val ts       = Crawler.crawlQuery(conn, q)
    assert(ts.map(_.id).toSet == expected)
  }

  test("crawling the whole database retrieves every tuple") {
    val db = TestFixtures.diamonds(spark, sf = 0.002)
    val conn = new WebDbConn(db)
    val ts   = Crawler.crawlQuery(conn, WebQuery.all)
    assert(ts.map(_.id).toSet == db.allTuples.map(_.id).toSet)
  }

  test("crawl of an empty region returns nothing after one query") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val ts   = Crawler.crawlQuery(conn, WebQuery.all.and("price", Interval(200.0, 201.0)))
    assert(ts.isEmpty)
    assert(conn.acc.queries == 1)
  }

  test("crawler batches sub-queries into parallel rounds") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    Crawler.crawlQuery(conn, WebQuery.all.and("lwr", Interval.point(1.0)))
    val s = conn.acc.snapshot
    assert(s.parallelRounds > 0, "a big crawl must issue parallel rounds")
    assert(s.parallelQueryFraction > 0.5, s"parallel query fraction ${s.parallelQueryFraction}")
  }

  test("crawl cost scales with region population, not domain size") {
    val db    = TestFixtures.diamonds(spark)
    val cBig  = new WebDbConn(db)
    val cTiny = new WebDbConn(db)
    Crawler.crawlQuery(cBig, WebQuery.all.and("price", Interval(200.0, 3000.0)))
    Crawler.crawlQuery(cTiny, WebQuery.all.and("price", Interval(200.0, 500.0)))
    assert(cTiny.acc.queries < cBig.acc.queries)
  }

  test("no duplicate tuples in the crawl result") {
    val db = TestFixtures.diamonds(spark)
    val ts = Crawler.crawlQuery(new WebDbConn(db), WebQuery.all.and("carat", Interval(0.2, 0.3)))
    assert(ts.map(_.id).distinct.size == ts.size)
  }

  // -------------------------------------------------------------------
  // Exact matching set, as ScalaCheck properties over random queries.
  // -------------------------------------------------------------------

  private lazy val db = TestFixtures.diamonds(spark)

  /** Run `p` from a fixed seed, so a failure reproduces. */
  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(20180416L))
    val res    = Test.check(params, p)
    assert(res.passed, Pretty.pretty(res))
  }

  /** An interval between two catalogue values of `a`, so boxes land where
    * the tuples are; bound kinds are random.
    */
  private def genInterval(a: String): Gen[Interval] =
    for {
      v1 <- Gen.oneOf(db.allTuples).map(_.num(a))
      v2 <- Gen.oneOf(db.allTuples).map(_.num(a))
      li <- Gen.oneOf(true, false)
      hi <- Gen.oneOf(true, false)
    } yield Interval(math.min(v1, v2), math.max(v1, v2), li, hi)

  private lazy val genBox: Gen[Box] =
    for {
      attrs <- Gen.atLeastOne(db.schema.numeric).map(_.toSeq.take(2))
      ivs   <- Gen.sequence[Seq[Interval], Interval](attrs.map(genInterval))
    } yield Box(attrs.zip(ivs).toMap)

  private lazy val genFacet: Gen[WebQuery] =
    for {
      a  <- Gen.oneOf(db.schema.categorical)
      vs <- Gen.atLeastOne(db.schema.catDomains(a))
    } yield WebQuery.all.andCat(a, vs.toSet)

  /** A box, a facet filter, the lwr = 1.00 spike, or a combination. */
  private lazy val genQuery: Gen[WebQuery] = Gen.oneOf(
    genBox.map(_.toQuery()),
    genFacet,
    genFacet.map(_.and("lwr", Interval.point(1.0))),
    Gen.zip(genBox, genFacet).map { case (b, f) => b.toQuery(f) },
    genBox.map(_.toQuery(WebQuery.all.and("lwr", Interval.point(1.0)))),
  )

  /** A query an indexed crawl takes: a box, alone or within the lwr = 1.00
    * spike (an indexed region is a box, so no facet).
    */
  private lazy val genBoxQuery: Gen[WebQuery] = Gen.oneOf(
    genBox.map(_.toQuery()),
    genBox.map(_.toQuery(WebQuery.all.and("lwr", Interval.point(1.0)))),
  )

  /** A connection whose cache is seeded with `store`, or empty. */
  private def connOver(on: WebDb, store: Option[DenseRegionStore]): WebDbConn =
    TestFixtures.inTurnOverOneStore(on, store.getOrElse(DenseRegionStore.empty)).next()

  /** Crawl `q`, an indexed crawl reading `store` if one is given. */
  private def crawlsExactly(q: WebQuery, store: Option[DenseRegionStore]): Prop = {
    val got = Crawler.crawlQuery(connOver(db, store), q, indexed = store.isDefined).map(_.id)
    Prop(got.toSet == brute(db, q) && got.distinct.size == got.size) :| s"query $q"
  }

  test("property: a crawl returns exactly allTuples.filter(q.matches)") {
    check(Prop.forAll(genQuery)(q => crawlsExactly(q, None)))
  }

  test("property: a crawl through a store holding an overlapping region is still exact") {
    check(Prop.forAll(genBoxQuery, genBox)((q, region) => crawlsExactly(q, Some(storeOf(region)))))
  }

  test("sub-queries inside an indexed region are answered from the store, unbilled") {
    val spike = Box(Map("lwr" -> Interval.point(1.0)))
    val conn  = connOver(db, Some(storeOf(spike)))
    val q     = spike.toQuery(WebQuery.all.and("price", Interval(200.0, 3000.0)))
    assert(brute(db, q).size > db.k, "premise: the query overflows")
    assert(Crawler.crawlQuery(conn, q, indexed = true).map(_.id).toSet == brute(db, q))
    assert(conn.acc.queries == 0)
  }

  test("an indexed crawl of a query with a categorical constraint is refused: an indexed region is a box") {
    val conn = new WebDbConn(db)
    val q    = Box(Map("lwr" -> Interval.point(1.0))).toQuery(WebQuery.all.andCat("cut", Set("Ideal")))
    intercept[IllegalArgumentException](Crawler.crawlQuery(conn, q, indexed = true))
    assert(conn.cache.store.size == 0, "the crawl is not indexed")
  }

  // -------------------------------------------------------------------
  // Sub-queries cut at indexed regions.
  // -------------------------------------------------------------------

  private lazy val sliver = Box(Map("lwr" -> Interval.point(1.0)))

  /** A `price × lwr` box around the lwr = 1.00 spike. */
  private lazy val spikeBox = Box(Map("price" -> Interval(200.0, 3000.0), "lwr" -> Interval(1.0, 1.2))).toQuery()

  /** A store holding each region with every tuple of the database in it. */
  private def storeOf(regions: Box*): DenseRegionStore =
    TestFixtures.storeOf(regions.map(r => r -> db.allTuples.filter(r.toQuery().matches)): _*)

  /** The requests a crawl of `q` sends, and the tuples it returns; an
    * indexed crawl reading `store` if one is given.
    */
  private def crawlLog(q: WebQuery, store: Option[DenseRegionStore]): (Seq[WebQuery], Vector[WebTuple]) = {
    val rec = new RecordingWebDb(db)
    val ts  = Crawler.crawlQuery(connOver(rec, store), q, indexed = store.isDefined)
    (rec.requests, ts)
  }

  test("a crawl through the stored lwr = 1.00 sliver reads the sliver from the store and crawls the rest") {
    assert(brute(db, sliver.toQuery(spikeBox)).size > db.k, "premise: the sliver holds more than k of the box's tuples")
    val (sent, ts) = crawlLog(spikeBox, Some(storeOf(sliver)))
    assert(ts.map(_.id).toSet == brute(db, spikeBox) && ts.map(_.id).distinct.size == ts.size)
    assert(sent.nonEmpty)
    assert(!sent.exists(_.num.get("lwr").forall(_.contains(1.0))), s"a request reached into the sliver: $sent")
    assert(sent.size < crawlLog(spikeBox, None)._1.size)
  }

  test("a region cutting on two attributes, or holding at most k of a sub-query's tuples, leaves the requests unchanged") {
    val q        = Box(Map("price" -> Interval(200.0, 1000.0), "lwr" -> Interval(1.0, 1.2))).toQuery()
    val twoAttrs = Box(sliver.dims + ("carat" -> Interval(0.3, 0.4)))
    assert(brute(db, twoAttrs.toQuery(q)).size > db.k, "premise: the region holds more than k of the crawl's tuples")
    val lwrs = db.allTuples.map(_.num("lwr")).filter(v => v > 1.0 && v <= 1.2).sorted
    val few  = Box(Map("lwr" -> Interval(lwrs.head, lwrs(db.k / 2))))
    val nFew = brute(db, few.toQuery(q)).size
    assert(nFew > 0 && nFew <= db.k, s"premise: the region holds $nFew of the crawl's tuples")
    val (unchanged, _) = crawlLog(q, None)
    for (region <- Seq(twoAttrs, few)) {
      val (sent, ts) = crawlLog(q, Some(storeOf(region)))
      assert(sent == unchanged, s"region $region")
      assert(ts.map(_.id).toSet == brute(db, q))
    }
  }

  for (sf <- Seq(0.005, 0.05)) {
    test(s"the lwr spike crawl stays within 4 * ceil(n/k) queries (sf=$sf)") {
      val big  = TestFixtures.diamonds(spark, sf)
      val conn = new WebDbConn(big)
      val q    = WebQuery.all.and("lwr", Interval.point(1.0))
      val n    = brute(big, q).size
      val ts   = Crawler.crawlQuery(conn, q)
      assert(ts.size == n)
      val bound = 4 * ((n + big.k - 1) / big.k)
      assert(conn.acc.queries <= bound, s"spike of $n tuples: ${conn.acc.queries} queries, bound $bound")
    }
  }
}

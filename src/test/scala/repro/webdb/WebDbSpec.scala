package repro.webdb

import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.Prop.propBoolean
import org.scalacheck.{Gen, Prop, Test}
import repro.core.DensePolicy
import repro.crawl.Crawler
import repro.service.{Algo, OneDRank, Qr2Service}
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

  // -------------------------------------------------------------------
  // The advertised domains: a query missing them is answered locally.
  // -------------------------------------------------------------------

  test("a query that is unsatisfiable or misses a numeric domain is answered empty, unbilled") {
    val db = TestFixtures.diamonds(spark)
    val cases = Seq(
      "carat in (0.1, 0.15]"  -> WebQuery.all.and("carat", Interval.openClosed(0.1, 0.15)),
      "carat above 5.0"       -> WebQuery.all.and("carat", Interval.openClosed(5.0, 6.0)),
      "an empty interval"     -> WebQuery.all.and("price", Interval.open(500.0, 500.0)),
      "an empty category set" -> WebQuery.all.andCat("cut", Set.empty),
    )
    for ((label, q) <- cases) {
      val conn = new WebDbConn(db)
      val res  = conn.topK(q)
      assert(res.isEmpty && !res.overflow, label)
      assert(conn.acc.queries == 0 && conn.acc.rounds == 0, label)
    }
  }

  test("a query touching a domain at its closed end is sent and billed") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val q    = WebQuery.all.and("carat", Interval.openClosed(0.1, 0.2))
    assert(conn.topK(q) == db.rawTopK(q))
    assert(conn.acc.queries == 1 && conn.acc.rounds == 1)
  }

  test("the full probes of an ascending and a descending 1D search bill one query between them") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    val d    = db.schema.numDomains("price")
    val asc  = WebQuery.all.and("price", Interval.openClosed(d.lo - 1, d.hi))
    val desc = WebQuery.all.and("price", Interval(d.lo, d.hi + 1, hiIncl = false))
    val rs   = Seq(asc, desc).map(conn.topK)
    assert(rs.forall(_ == db.rawTopK(WebQuery.all)))
    assert(conn.acc.queries == 1 && conn.acc.rounds == 1)
  }

  test("a batch bills one round of only its queries inside the domains") {
    val conn = new WebDbConn(TestFixtures.diamonds(spark))
    val res  = conn.batch(Seq(
      WebQuery.all.and("carat", Interval.openClosed(0.1, 0.15)),
      WebQuery.all.and("carat", Interval(0.2, 0.3)),
      WebQuery.all.and("carat", Interval(0.3, 0.4, loIncl = false))))
    assert(res.head.isEmpty && !res.head.overflow)
    assert(conn.acc.snapshot.batchSizes == Vector(2))
  }

  for ((name, attr) <- Seq("diamonds" -> "carat", "houses" -> "sqft"))
    test(s"no request of min/max discovery or a 1D session on $attr reaches the backend outside the domains ($name)") {
      val db      = new RecordingWebDb(if (name == "diamonds") TestFixtures.diamonds(spark) else TestFixtures.houses(spark))
      val service = new Qr2Service(db)
      db.schema.numeric.foreach(service.minMax)
      for (algo <- Seq(Algo.Baseline, Algo.Binary, Algo.Rerank); asc <- Seq(true, false))
        service.newSession(WebQuery.all, OneDRank(attr, asc), algo).getPage(10)
      assert(db.requests.nonEmpty)
      val outside = db.requests.filter(q =>
        q.unsatisfiable || q.num.exists { case (a, iv) => iv.intersect(db.schema.numDomains(a)).isEmpty })
      assert(outside.size == 0, s"of ${db.requests.size} requests, e.g. ${outside.headOption}")
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

  test("AnswerCache.reset swaps in the verified regions and forgets every other answer") {
    def t(id: Long, v: Double): WebTuple = WebTuple(id, Map("x" -> v, "y" -> 0.5), Map.empty)
    def q(x: Interval): WebQuery         = Box(Map("x" -> x)).toQuery()
    val c = new AnswerCache(TestFixtures.storeOf(Box(Map("x" -> Interval(0.0, 1.0))) -> Seq(t(1, 0.5))))
    c.received(Seq(q(Interval(2.0, 3.0)) -> TopKResponse(Vector(t(2, 2.5)), overflow = false)))
    assert(c.memoSize == 1 && c.content(q(Interval(2.2, 2.8))).isDefined, "premise")
    c.reset(TestFixtures.storeOf(Box(Map("x" -> Interval(5.0, 6.0))) -> Seq(t(9, 5.5))))
    assert(c.store.size == 1)
    assert(c.stored(q(Interval(5.2, 5.8))).get.map(_.id) == Vector(9L))
    assert(c.stored(q(Interval(0.2, 0.8))).isEmpty)
    assert(c.memoSize == 0 && c.content(q(Interval(2.2, 2.8))).isEmpty, "the memo and the regions are forgotten")
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

  // -------------------------------------------------------------------
  // Complete regions: a local answer is the web database's answer.
  // -------------------------------------------------------------------

  private lazy val diamonds = TestFixtures.diamonds(spark)

  /** Distinct catalogue values of each numeric attribute, ascending. */
  private lazy val values: Map[String, Vector[Double]] =
    diamonds.schema.numeric.map(a => a -> diamonds.allTuples.map(_.num(a)).distinct.sorted).toMap

  private def count(q: WebQuery): Int = diamonds.allTuples.count(q.matches)

  /** Run `p` from a fixed seed, so a failure reproduces. */
  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(20180417L))
    val res    = Test.check(params, p)
    assert(res.passed, Pretty.pretty(res))
  }

  /** An interval between catalogue values of `a` at most `span` ranks
    * apart, or (`gap`) the open gap between two neighbouring values.
    */
  private def genInterval(a: String, span: Int, gap: Boolean): Gen[Interval] = {
    val vs = values(a)
    for {
      i  <- Gen.choose(0, vs.size - 2)
      j  <- Gen.choose(i, math.min(i + span, vs.size - 1))
      li <- Gen.oneOf(true, false)
      hi <- Gen.oneOf(true, false)
    } yield if (gap) Interval.open(vs(i), vs(i + 1)) else Interval(vs(i), vs(j), li, hi)
  }

  /** A region over one or two numeric attributes, and at times a facet. */
  private def genRegion(span: Int, gap: Boolean): Gen[WebQuery] =
    for {
      attrs <- Gen.pick(2, diamonds.schema.numeric).flatMap(p => Gen.oneOf(p.toSeq.take(1), p.toSeq))
      ivs   <- Gen.sequence[Seq[Interval], Interval](attrs.map(a => genInterval(a, span, gap && a == attrs.head)))
      facet <- Gen.option(Gen.oneOf(diamonds.schema.categorical).flatMap(c =>
        Gen.atLeastOne(diamonds.schema.catDomains(c)).map(vs => c -> vs.toSet)))
    } yield WebQuery(attrs.zip(ivs).toMap, facet.toMap)

  /** How a region became complete, and the region: a billed response that
    * did not overflow, an empty response, or a crawl.
    */
  private val genComplete: Gen[(String, WebQuery)] = Gen.oneOf(
    genRegion(span = 6, gap = false).map("response" -> _),
    genRegion(span = 6, gap = true).map("empty" -> _),
    genRegion(span = Int.MaxValue / 2, gap = false).map("crawl" -> _),
  )

  /** Make `region` complete on `conn` the way `source` says; false when a
    * response source overflowed (the case is then discarded).
    */
  private def establish(conn: WebDbConn, source: String, region: WebQuery): Boolean =
    if (source == "crawl") { Crawler.crawlQuery(conn, region); true }
    else !conn.topK(region).overflow

  /** A query inside `region`: each interval narrowed towards catalogue
    * values inside it (a bound kept keeps or closes its kind), each facet a
    * subset, and at times one more constraint the region does not have.
    */
  private def genInside(region: WebQuery): Gen[WebQuery] = {
    def narrow(a: String, iv: Interval): Gen[Interval] = {
      val inner = values(a).filter(iv.contains)
      if (inner.isEmpty) Gen.const(iv)
      else
        for {
          v1 <- Gen.oneOf(inner); v2 <- Gen.oneOf(inner)
          keepLo <- Gen.oneOf(true, false); keepHi <- Gen.oneOf(true, false)
          li <- Gen.oneOf(true, false); hi <- Gen.oneOf(true, false)
        } yield {
          val (lo, up) = (math.min(v1, v2), math.max(v1, v2))
          Interval(
            if (keepLo) iv.lo else lo, if (keepHi) iv.hi else up,
            if (keepLo) iv.loIncl && li else li, if (keepHi) iv.hiIncl && hi else hi)
        }
    }
    val free = diamonds.schema.numeric.filterNot(region.num.contains)
    for {
      num   <- Gen.sequence[Seq[(String, Interval)], (String, Interval)](
        region.num.toSeq.map { case (a, iv) => narrow(a, iv).map(a -> _) })
      cat   <- Gen.sequence[Seq[(String, Set[String])], (String, Set[String])](
        region.cat.toSeq.map { case (c, vs) => Gen.someOf(vs).map(c -> _.toSet) })
      extra <- Gen.option(Gen.oneOf(free).flatMap(a => genInterval(a, span = 200, gap = false).map(a -> _)))
    } yield WebQuery(num.toMap ++ extra, cat.toMap)
  }

  /** A query overlapping `region` only in part: one constraint of the
    * region is widened past its bound (an open bound closed, or moved out
    * to the domain's edge) or dropped, so that it matches tuples outside
    * the region.
    */
  private def genPartial(region: WebQuery): Gen[WebQuery] =
    genInside(region).flatMap { q =>
      val widenNum = region.num.toSeq.map { case (a, iv) =>
        val dom = diamonds.schema.numDomains(a)
        Gen.oneOf(
          q.copy(num = q.num.updated(a, q.num(a).copy(hi = iv.hi, hiIncl = true))),
          q.copy(num = q.num.updated(a, q.num(a).copy(hi = dom.hi + 1.0, hiIncl = true))),
          q.copy(num = q.num - a))
      }
      val widenCat = region.cat.toSeq.map { case (c, vs) =>
        Gen.oneOf(q.copy(cat = q.cat - c), q.copy(cat = q.cat.updated(c, vs ++ diamonds.schema.catDomains(c))))
      }
      Gen.oneOf(widenNum ++ widenCat).flatMap(identity)
    }.suchThat(q => diamonds.allTuples.exists(t => q.matches(t) && !region.matches(t)))

  test("property: a query inside a complete region with at most k matches is answered locally, as the web database would") {
    check(Prop.forAll(genComplete.flatMap { case (src, r) => genInside(r).map(q => (src, r, q)) }) {
      case (src, region, q) =>
        val conn = new WebDbConn(diamonds)
        (establish(conn, src, region) && count(q) <= diamonds.k) ==> {
          val billed = conn.acc.queries
          val got    = conn.topK(q)
          val web    = diamonds.rawTopK(q)
          Prop(q.within(region)) :| "generator: q lies inside the region" &&
          Prop(got.tuples.map(_.id).toSet == web.tuples.map(_.id).toSet) :| "tuple set" &&
          Prop(got.overflow == web.overflow) :| "overflow flag" &&
          Prop(conn.acc.queries == billed) :| "billed nothing"
        } :| s"$src region $region, query $q"
    })
  }

  /** A region containing `q`: each constraint of `q` kept, closed, opened
    * to the attribute's whole domain, or dropped.
    */
  private def genAround(q: WebQuery): Gen[WebQuery] =
    for {
      num <- Gen.sequence[Seq[Option[(String, Interval)]], Option[(String, Interval)]](q.num.toSeq.map {
        case (a, iv) =>
          Gen.oneOf(Some(a -> iv), Some(a -> iv.copy(loIncl = true, hiIncl = true)),
            Some(a -> diamonds.schema.numDomains(a)), None)
      })
      cat <- Gen.sequence[Seq[Option[(String, Set[String])]], Option[(String, Set[String])]](
        q.cat.toSeq.map(c => Gen.option(Gen.const(c))))
    } yield WebQuery(num.flatten.toMap, cat.flatten.toMap)

  test("property: a query inside a crawled region with more than k matches is billed") {
    val genCase = for {
      q      <- genRegion(span = Int.MaxValue / 2, gap = false).suchThat(q => count(q) > diamonds.k)
      region <- genAround(q)
    } yield (region, q)
    check(Prop.forAll(genCase) { case (region, q) =>
      val conn = new WebDbConn(diamonds)
      Crawler.crawlQuery(conn, region)
      val (billed, held) = (conn.acc.queries, conn.memoSize)
      val got            = conn.topK(q)
      // A query the crawl itself sent is an exact repeat, which the memo
      // answers; only the others show what the region lookup does.
      (conn.memoSize > held) ==> {
        Prop(q.within(region)) :| "generator: q lies inside the region" &&
        Prop(got == diamonds.rawTopK(q)) :| "the web database's page" &&
        Prop(conn.acc.queries == billed + 1) :| "billed once"
      } :| s"region $region, query $q"
    })
  }

  test("property: a query partly overlapping a complete region is billed") {
    check(Prop.forAll(genComplete.flatMap { case (src, r) => genPartial(r).map(q => (src, r, q)) }) {
      case (src, region, q) =>
        val conn = new WebDbConn(diamonds)
        establish(conn, src, region) ==> {
          val billed = conn.acc.queries
          val got    = conn.topK(q)
          Prop(got == diamonds.rawTopK(q)) :| "the web database's page" &&
          Prop(conn.acc.queries == billed + 1) :| "billed once"
        } :| s"$src region $region, query $q"
    })
  }

  test("property: the store tier answers a query inside a crawled region unbilled, and none partly outside it") {
    val genCase = for {
      region  <- genRegion(span = Int.MaxValue / 2, gap = false).map(r => WebQuery(r.num))
      inside  <- genInside(region)
      partial <- genPartial(region)
    } yield (region, inside, partial)
    check(Prop.forAll(genCase) { case (region, inside, partial) =>
      val conns = TestFixtures.inTurnOverOneStore(diamonds)
      Crawler.crawlQuery(conns.next(), region, indexed = true)
      val conn = conns.next()
      val got  = conn.content(inside).map(_.map(_.id).sorted)
      (Prop(got == Some(diamonds.allTuples.filter(inside.matches).map(_.id).sorted)) :| "inside: every match" &&
        Prop(conn.content(partial).isEmpty) :| "partly outside: no answer" &&
        Prop(conn.acc.queries == 0) :| "billed nothing") :| s"region $region, inside $inside, partly outside $partial"
    })
  }

  test("a stored region with a dimension spanning the whole domain holds a query leaving that dimension out") {
    val dom    = diamonds.schema.numDomains("price")
    val box    = Box(Map("price" -> Interval(dom.lo - 10, dom.hi), "carat" -> Interval(0.5, 0.7)))
    val q      = WebQuery.all.and("price", dom).and("carat", Interval(0.55, 0.56))
    val truth  = Some(diamonds.allTuples.filter(q.matches).map(_.id).sorted)
    def ids(cache: AnswerCache) = new WebDbConn(diamonds, cache = cache).content(q).map(_.map(_.id).sorted)
    assert(truth.exists(_.nonEmpty), "premise: the query matches some tuple")
    // By an indexed crawl.
    val conns   = TestFixtures.inTurnOverOneStore(diamonds)
    val crawler = conns.next()
    DensePolicy.Indexed.crawl(crawler, WebQuery.all, box)
    assert(crawler.cache.store.size == 1)
    assert(ids(conns.next().cache) == truth, "crawled")
    // Added as it stands, then adopted by a service, then verified.
    val added = TestFixtures.storeOf(box -> diamonds.allTuples.filter(box.toQuery().matches))
    val service = new Qr2Service(diamonds, added)
    assert(ids(service.cache) == truth, "adopted")
    service.verifyCache()
    assert(ids(service.cache) == truth, "verified")
  }
}

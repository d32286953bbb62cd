package repro.core

import repro.crawl.Crawler
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** Correctness grid for the three 1D get-next strategies: every algorithm,
  * on both web databases, over several attributes, in both directions, with
  * and without filters, must emit exactly the ground-truth order.
  */
class OneDSpec extends SparkSpec {

  private def mkAlgo(name: String, db: LocalWebDb, base: WebQuery, attr: String, asc: Boolean): OneDAlgorithm = {
    val conn = new WebDbConn(db)
    name match {
      case "BASELINE" => new OneDBaseline(conn, base, attr, asc)
      case "BINARY"   => new OneDBinary(conn, base, attr, asc)
      case "RERANK"   => new OneDRerank(conn, base, attr, asc)
    }
  }

  private val algos = Seq("BASELINE", "BINARY", "RERANK")

  private def checkTopH(
      dbName: String,
      attr: String,
      asc: Boolean,
      base: WebQuery,
      h: Int,
      baseLabel: String,
  ): Unit = {
    for (algo <- algos) {
      test(s"$algo $dbName $attr ${if (asc) "asc" else "desc"} $baseLabel top-$h matches ground truth") {
        val db    = if (dbName == "diamonds") TestFixtures.diamonds(spark) else TestFixtures.houses(spark)
        val truth = TestFixtures.groundTruth1D(db, base, attr, asc).take(h)
        val got   = mkAlgo(algo, db, base, attr, asc).next(h)
        assert(got.map(_.id) == truth.map(_.id),
          s"expected ${truth.map(t => (t.id, t.num(attr)))}, got ${got.map(t => (t.id, t.num(attr)))}")
      }
    }
  }

  // Unfiltered grids on both databases, both directions.
  for {
    (dbName, attrs) <- Seq(
      "diamonds" -> Seq("price", "carat", "depth"),
      "houses"   -> Seq("price", "sqft", "year"),
    )
    attr <- attrs
    asc  <- Seq(true, false)
  } checkTopH(dbName, attr, asc, WebQuery.all, h = 12, "unfiltered")

  // Filtered sessions (categorical and numeric predicates).
  checkTopH("diamonds", "price", asc = true,
    WebQuery.all.andCat("cut", Set("Ideal")), h = 8, "cut=Ideal")
  checkTopH("diamonds", "carat", asc = false,
    WebQuery.all.andCat("color", Set("D", "E")), h = 8, "color in {D,E}")
  checkTopH("diamonds", "price", asc = false,
    WebQuery.all.and("carat", Interval(1.0, 3.0)), h = 8, "carat in [1,3]")
  checkTopH("houses", "sqft", asc = true,
    WebQuery.all.andCat("city", Set("Dallas")).and("beds", Interval(3.0, 6.0)),
    h = 8, "city=Dallas, beds>=3")

  // Dense attribute: 20 % of diamonds share lwr = 1.00 — more than system-k,
  // exercising the general-positioning crawl on every strategy.
  for (algo <- algos) {
    test(s"$algo handles the dense lwr=1.00 spike (general positioning fix)") {
      val db    = TestFixtures.diamonds(spark)
      val truth = TestFixtures.groundTruth1D(db, WebQuery.all, "lwr", asc = true).take(15)
      assert(truth.forall(_.num("lwr") == 1.0), "test premise: top-15 all inside the spike")
      val got = mkAlgo(algo, db, WebQuery.all, "lwr", asc = true).next(15)
      assert(got.map(_.id) == truth.map(_.id))
    }
  }

  // Exhaustion: a filter matching few tuples must drain and then yield None.
  for (algo <- algos) {
    test(s"$algo exhausts a small result set and returns None afterwards") {
      val db   = TestFixtures.diamonds(spark)
      val base = WebQuery.all.and("price", Interval(200.0, 400.0))
      val truth = TestFixtures.groundTruth1D(db, base, "price", asc = true)
      assert(truth.nonEmpty && truth.size < 200, s"fixture yields ${truth.size} matches")
      val a   = mkAlgo(algo, db, base, "price", asc = true)
      val got = a.next(truth.size + 5)
      assert(got.map(_.id) == truth.map(_.id))
      assert(a.getNext().isEmpty)
      assert(a.getNext().isEmpty, "exhaustion must be stable")
    }
  }

  for (algo <- algos) {
    test(s"$algo on an unsatisfiable filter returns None immediately") {
      val db = TestFixtures.diamonds(spark)
      val a  = mkAlgo(algo, db, WebQuery.all.and("price", Interval(1.0, 2.0)), "price", asc = true)
      assert(a.getNext().isEmpty)
    }
  }

  // The three strategies must agree with each other on full prefixes.
  for {
    (attr, asc) <- Seq(("price", true), ("price", false), ("table_pct", true))
  } test(s"all strategies agree on diamonds $attr asc=$asc") {
    val db   = TestFixtures.diamonds(spark)
    val outs = algos.map(a => mkAlgo(a, db, WebQuery.all, attr, asc).next(10).map(_.id))
    assert(outs.distinct.size == 1, s"disagreement: ${algos.zip(outs)}")
  }

  // Cost shape: positively correlated baseline is cheap; anti-correlated
  // baseline is much more expensive; binary is insensitive to direction.
  test("cost shape: BASELINE cheap when positively correlated with the system ranking") {
    val db   = TestFixtures.diamonds(spark)
    val conn = new WebDbConn(db)
    new OneDBaseline(conn, WebQuery.all, "price", asc = true).next(10)
    assert(conn.acc.queries < 60, s"positively-correlated baseline used ${conn.acc.queries} queries")
  }

  test("cost shape: BASELINE anti-correlated ≫ positively correlated") {
    val db    = TestFixtures.diamonds(spark)
    val cAsc  = new WebDbConn(db)
    val cDesc = new WebDbConn(db)
    new OneDBaseline(cAsc, WebQuery.all, "price", asc = true).next(10)
    new OneDBaseline(cDesc, WebQuery.all, "price", asc = false).next(10)
    assert(cDesc.acc.queries > 5 * cAsc.acc.queries,
      s"asc=${cAsc.acc.queries} desc=${cDesc.acc.queries}")
  }

  test("cost shape: BINARY beats BASELINE when anti-correlated") {
    val db   = TestFixtures.diamonds(spark)
    val cBin = new WebDbConn(db)
    val cBas = new WebDbConn(db)
    new OneDBinary(cBin, WebQuery.all, "price", asc = false).next(10)
    new OneDBaseline(cBas, WebQuery.all, "price", asc = false).next(10)
    assert(cBin.acc.queries < cBas.acc.queries,
      s"binary=${cBin.acc.queries} baseline=${cBas.acc.queries}")
  }

  test("cost shape: RERANK no worse than 2x BINARY on every unfiltered diamond order") {
    val db = TestFixtures.diamonds(spark)
    for { attr <- Seq("price", "carat", "depth"); asc <- Seq(true, false) } {
      val cBin = new WebDbConn(db)
      val cRer = new WebDbConn(db)
      new OneDBinary(cBin, WebQuery.all, attr, asc).next(10)
      new OneDRerank(cRer, WebQuery.all, attr, asc).next(10)
      assert(cRer.acc.queries <= 2 * cBin.acc.queries + 20,
        s"$attr asc=$asc rerank=${cRer.acc.queries} binary=${cBin.acc.queries}")
    }
  }

  /** The ids of `h` 1D-RERANK results on houses price under `zip`, the
    * ground-truth ids, and the rounds billed, each as the responses of its
    * requests (read off a recording backend).
    */
  private def housesPrice(zip: String, asc: Boolean, h: Int): (Seq[Long], Seq[Long], Seq[Seq[TopKResponse]]) = {
    val houses = TestFixtures.houses(spark)
    val db     = new RecordingWebDb(houses)
    val conn   = new WebDbConn(db)
    val base   = WebQuery.all.andCat("zip", Set(zip))
    val got    = new OneDRerank(conn, base, "price", asc).next(h).map(_.id)
    val sizes  = conn.acc.snapshot.batchSizes
    val rounds = sizes.scanLeft(0)(_ + _).zip(sizes).map { case (from, n) => db.log.slice(from, from + n).map(_._2).toSeq }
    (got, TestFixtures.groundTruth1D(houses, base, "price", asc).take(h).map(_.id), rounds)
  }

  // Houses price asc follows the hidden ranking, so the keys one probe
  // returns are the next keys of the order: a seen-key prefix proves them.
  test("RERANK proves a page prefix from seen keys in a parallel round (houses price asc, zip filter)") {
    val (got, truth, rounds) = housesPrice("90000", asc = true, h = 10)
    assert(got == truth)
    assert(rounds.exists(r => r.size > 1 && r.exists(!_.overflow)),
      s"no parallel round answered a prefix: ${rounds.map(_.size)}")
  }

  // Price desc runs against the hidden ranking: the seen keys beyond the
  // frontier are far off, every prefix overflows, and the halving starts
  // below the smallest seen key.
  test("RERANK emits ground truth when every seen-key prefix overflows (houses price desc, zip filter)") {
    val (got, truth, rounds) = housesPrice("90001", asc = false, h = 20)
    assert(got == truth)
    assert(rounds.exists(r => r.size > 1 && r.forall(_.overflow)),
      s"premise: some parallel round overflowed throughout: ${rounds.map(_.size)}")
  }

  test("RERANK second pass over an indexed dense region costs almost nothing") {
    val db    = TestFixtures.diamonds(spark)
    val conns = TestFixtures.inTurnOverOneStore(db)
    val c1    = conns.next()
    new OneDRerank(c1, WebQuery.all, "lwr", asc = true).next(10)
    assert(c1.cache.store.size > 0, "dense spike should have been indexed")
    val c2 = conns.next()
    new OneDRerank(c2, WebQuery.all.andCat("cut", Set("Ideal")), "lwr", asc = true).next(10)
    assert(c2.acc.queries < c1.acc.queries / 5,
      s"first=${c1.acc.queries} second=${c2.acc.queries}")
  }

  test("RERANK emits the value at the open end of a hand-added region") {
    val db    = TestFixtures.diamonds(spark)
    // [0, 1.00) holds no tuple, and its open end is the lwr = 1.00 spike.
    val store = TestFixtures.storeOf(Box(Map("lwr" -> Interval(0.0, 1.0, hiIncl = false))) -> Seq.empty)
    val conn  = TestFixtures.inTurnOverOneStore(db, store).next()
    val got   = new OneDRerank(conn, WebQuery.all, "lwr", asc = true).next(30)
    val truth = TestFixtures.groundTruth1D(db, WebQuery.all, "lwr", asc = true).take(30)
    assert(truth.head.num("lwr") == 1.0, "premise: the spike is the smallest lwr value")
    assert(got.map(_.id) == truth.map(_.id))
  }

  test("RERANK under a numeric filter answers from a multi-attribute region holding it") {
    val db    = TestFixtures.diamonds(spark)
    val dom   = db.schema.numDomains("price")
    val box   = Box(Map("price" -> Interval(dom.lo - 10, dom.hi), "carat" -> Interval(0.5, 0.7)))
    val store = TestFixtures.storeOf(box -> Crawler.crawlQuery(new WebDbConn(db), box.toQuery()))
    val base  = WebQuery.all.and("carat", Interval(0.55, 0.65))
    val conn  = TestFixtures.inTurnOverOneStore(db, store).next()
    val got   = new OneDRerank(conn, base, "price", asc = true).next(10)
    assert(got.map(_.id) == TestFixtures.groundTruth1D(db, base, "price", asc = true).take(10).map(_.id))
    assert(conn.acc.queries == 0, "the indexed region holds every tuple of the filter")
  }
}

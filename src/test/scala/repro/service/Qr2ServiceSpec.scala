package repro.service

import repro.crawl.Crawler
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** End-to-end service behaviour: normalization discovery, sessions over
  * every strategy, paging, statistics, cache sharing, boot verification.
  */
class Qr2ServiceSpec extends SparkSpec {

  test("minMax discovery through 1D-RERANK equals the true extrema") {
    for (db <- Seq(TestFixtures.diamonds(spark), TestFixtures.houses(spark))) {
      val service = new Qr2Service(db)
      for (a <- db.schema.numeric) {
        val vs = db.allTuples.map(_.num(a))
        assert(service.minMax(a) == ((vs.min, vs.max)), s"${db.schema.name}.$a")
      }
    }
  }

  test("minMax discovers values only: no crawl queries on diamonds") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    db.schema.numeric.foreach(service.minMax)
    assert(service.serviceAcc.queries > 0)
    assert(service.serviceAcc.crawlQueries == 0,
      s"${service.serviceAcc.crawlQueries} of ${service.serviceAcc.queries} bootstrap queries crawled")
  }

  test("minMax is cached: the second call issues no further queries") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    service.minMax("price")
    val q1 = service.serviceAcc.queries
    assert(q1 > 0)
    service.minMax("price")
    assert(service.serviceAcc.queries == q1)
  }

  test("concurrent first uses of minMax run each discovery once") {
    val db    = TestFixtures.diamonds(spark)
    val alone = new Qr2Service(db)
    val truth = db.schema.numeric.map(a => a -> alone.minMax(a)).toMap
    val service = new Qr2Service(db)
    val start   = new java.util.concurrent.CountDownLatch(1)
    val seen    = new java.util.concurrent.ConcurrentLinkedQueue[(String, (Double, Double))]
    val threads = (0 until 4).map { i =>
      // Each thread walks the attributes from a different one, so threads
      // miss on the same and on different attributes at once.
      val order = db.schema.numeric.drop(i) ++ db.schema.numeric.take(i)
      new Thread(() => { start.await(); order.foreach(a => seen.add(a -> service.minMax(a))) })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(seen.size == 4 * db.schema.numeric.size)
    seen.forEach(p => assert(p._2 == truth(p._1), p._1))
    assert(service.serviceAcc.queries == alone.serviceAcc.queries)
    assert(service.serviceAcc.rounds == alone.serviceAcc.rounds)
  }

  test("concurrent MD sessions over overlapping attributes discover each attribute once") {
    val db    = TestFixtures.diamonds(spark)
    val specs = Seq(MDRank(Seq("price" -> 1.0, "lwr" -> 1.0)), MDRank(Seq("carat" -> 1.0, "lwr" -> 1.0)))
    val attrs = Seq("price", "carat", "lwr")
    val alone = new Qr2Service(db)
    specs.foreach(spec => alone.newSession(WebQuery.all, spec, Algo.Rerank))
    val service = new Qr2Service(db)
    val start   = new java.util.concurrent.CountDownLatch(1)
    val threads = (0 until 4).map { i =>
      new Thread(() => { start.await(); service.newSession(WebQuery.all, specs(i % 2), Algo.Rerank).getPage(10) })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(service.knownBounds == TestFixtures.trueNorm(db, attrs).minMax)
    assert(service.serviceAcc.queries == alone.serviceAcc.queries)
    assert(service.serviceAcc.crawlQueries == 0)
  }

  test("a lockstep discovery bills the queries of discovering its attributes one by one, in fewer rounds") {
    val db     = TestFixtures.diamonds(spark)
    val attrs  = Seq("price", "carat", "depth")
    val byOne  = new Qr2Service(db)
    attrs.foreach(byOne.minMax)
    val service = new Qr2Service(db)
    assert(service.normalizer(attrs).minMax == TestFixtures.trueNorm(db, attrs).minMax)
    assert(service.serviceAcc.queries == byOne.serviceAcc.queries)
    assert(service.serviceAcc.rounds < byOne.serviceAcc.rounds)
  }

  test("a backend error in discovery propagates, keeps no bound of the run, and a later call discovers them") {
    val db    = TestFixtures.diamonds(spark)
    val attrs = Seq("price", "lwr")
    val truth = TestFixtures.trueNorm(db, attrs).minMax
    // Requests before and during the run, on a service that knows depth's bounds.
    val ref    = new Qr2Service(db)
    ref.minMax("depth")
    val before = ref.serviceAcc.queries.toInt
    ref.normalizer(attrs)
    for (n <- before + 1 to ref.serviceAcc.queries.toInt) {
      val service = new Qr2Service(new FailingWebDb(db, n))
      service.minMax("depth")
      intercept[java.io.IOException](service.normalizer(attrs))
      assert(service.knownBounds.keySet == Set("depth"), s"request $n failed")
      assert(service.normalizer(attrs).minMax == truth, s"request $n failed")
    }
  }

  test("discovery on an empty database throws IllegalStateException and keeps no bound") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(new LocalWebDb(Vector.empty, db.schema, db.k))
    intercept[IllegalStateException](service.normalizer(Seq("price", "lwr")))
    assert(service.knownBounds.isEmpty)
  }

  test("service normalizer equals the data-true normalizer") {
    val db      = TestFixtures.houses(spark)
    val service = new Qr2Service(db)
    val n       = service.normalizer(Seq("price", "sqft"))
    assert(n.minMax == TestFixtures.trueNorm(db, Seq("price", "sqft")).minMax)
  }

  for (algo <- Algo.all) {
    test(s"session over $algo emits the ground-truth MD order") {
      val db      = TestFixtures.diamonds(spark)
      val service = new Qr2Service(db)
      val spec    = MDRank(Seq("price" -> 1.0, "carat" -> -0.5))
      val session = service.newSession(WebQuery.all, spec, algo)
      val got     = session.getPage(8)
      val truth = TestFixtures
        .groundTruth(db, WebQuery.all, spec.toLinear, service.normalizer(spec.attrs))
        .take(8)
      assert(got.map(_.id) == truth.map(_.id))
    }
  }

  for (algo <- Seq(Algo.Baseline, Algo.Binary, Algo.Rerank)) {
    test(s"session over $algo emits the ground-truth 1D order (desc)") {
      val db      = TestFixtures.diamonds(spark)
      val service = new Qr2Service(db)
      val session = service.newSession(WebQuery.all, OneDRank("price", asc = false), algo)
      val got     = session.getPage(8)
      val truth   = TestFixtures.groundTruth1D(db, WebQuery.all, "price", asc = false).take(8)
      assert(got.map(_.id) == truth.map(_.id))
    }
  }

  test("Algo.TA on a 1D spec degenerates to RERANK and still works") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val got     = service.newSession(WebQuery.all, OneDRank("depth", asc = true), Algo.TA).getPage(5)
    val truth   = TestFixtures.groundTruth1D(db, WebQuery.all, "depth", asc = true).take(5)
    assert(got.map(_.id) == truth.map(_.id))
  }

  test("successive pages concatenate to the ground-truth prefix (get-next button)") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val spec    = MDRank(Seq("price" -> 1.0, "carat" -> -0.1))
    val session = service.newSession(WebQuery.all, spec, Algo.Rerank)
    val p1      = session.getPage(5)
    val p2      = session.getPage(5)
    val truth = TestFixtures
      .groundTruth(db, WebQuery.all, spec.toLinear, service.normalizer(spec.attrs))
      .take(10)
    assert((p1 ++ p2).map(_.id) == truth.map(_.id))
    assert(session.seen.map(_.id) == truth.map(_.id))
  }

  test("filtered session honours the user predicate") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val base    = WebQuery.all.andCat("shape", Set("Round", "Oval"))
    val session = service.newSession(base, OneDRank("carat", asc = false), Algo.Rerank)
    val got     = session.getPage(6)
    assert(got.forall(t => Set("Round", "Oval").contains(t.cat("shape"))))
    assert(got.map(_.id) == TestFixtures.groundTruth1D(db, base, "carat", asc = false).take(6).map(_.id))
  }

  test("statistics panel reports queries and simulated latency") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val session = service.newSession(WebQuery.all, OneDRank("price"), Algo.Baseline)
    session.getPage(5)
    val s = session.stats
    assert(s.queries > 0 && s.rounds > 0)
    assert(session.simulatedMs == s.rounds * DbStats.DefaultLatencyMs)
    assert(session.statsPanel.matches("""\d+ queries, \d+\.\d s"""), session.statsPanel)
  }

  test("sessions share the dense-region store: the second user pays less") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val s1      = service.newSession(WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank)
    s1.getPage(10)
    val s2 = service.newSession(WebQuery.all.andCat("cut", Set("Good")), OneDRank("lwr", asc = true), Algo.Rerank)
    s2.getPage(10)
    assert(s2.stats.queries < s1.stats.queries / 5,
      s"first=${s1.stats.queries} second=${s2.stats.queries}")
    assert(service.store.size > 0)
  }

  test("a service adopts a store without rewriting it, and answers from the region's canonical form unbilled") {
    val db    = TestFixtures.diamonds(spark)
    val dom   = db.schema.numDomains("price")
    val box   = Box(Map("price" -> Interval(dom.lo - 10, dom.hi), "carat" -> Interval(0.5, 0.7)))
    val store = TestFixtures.storeOf(box -> db.allTuples.filter(box.toQuery().matches))
    val service = new Qr2Service(db, store)
    assert(store.allEntries.map(_.box) == Vector(box), "the caller's store keeps its non-canonical region")
    val q     = WebQuery.all.and("price", dom).and("carat", Interval(0.55, 0.56))
    val truth = db.allTuples.filter(q.matches).map(_.id).toSet
    assert(truth.nonEmpty && truth.size <= db.k, s"premise: the query matches ${truth.size} tuples")
    val conn = new WebDbConn(db, cache = service.cache)
    assert(conn.topK(q).tuples.map(_.id).toSet == truth)
    assert(conn.acc.queries == 0, "answered from the adopted region")
  }

  // perfbench/ builds on its own and reads the service through these names:
  // the store snapshot's counts, and the stack frames its tracer attributes
  // each backend request by (Qr2Service.minMax* or verifyCache, else
  // repro.crawl.Crawler, else an algorithm probe).
  test("the benchmark's contract: store snapshot counts, and the frames backend requests are attributed by") {
    val db  = new RecordingWebDb(TestFixtures.diamonds(spark))
    val svc = new Qr2Service(db)
    def sentFrom(frames: Seq[StackTraceElement], method: String) =
      frames.exists(f => f.getClassName == "repro.service.Qr2Service" && f.getMethodName.contains(method))
    def crawling(frames: Seq[StackTraceElement]) = frames.exists(_.getClassName.startsWith("repro.crawl.Crawler"))

    val oneD = svc.newSession(WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank)
    oneD.getPage(10)
    val st = svc.store
    assert(st.size > 0 && st.indexedTupleCount == st.allEntries.flatMap(_.tuples).size)
    assert(st.allEntries.flatMap(_.tuples.map(_.id)).distinct.nonEmpty)
    assert(db.stacks.size == oneD.stats.queries && oneD.stats.crawlQueries > 0)
    assert(db.stacks.count(crawling) == oneD.stats.crawlQueries, "crawl requests carry a Crawler frame")
    assert(!db.stacks.exists(sentFrom(_, "minMax")))

    val n  = db.stacks.size
    val md = svc.newSession(WebQuery.all, MDRank(Seq("price" -> 1.0, "carat" -> -0.5)), Algo.Rerank)
    val discovery = db.stacks.drop(n)
    assert(discovery.size == svc.serviceAcc.queries && discovery.nonEmpty)
    assert(discovery.forall(sentFrom(_, "minMax")), "discovery requests carry a Qr2Service.minMax* frame")
    md.getPage(10)
    assert(!db.stacks.drop(n + discovery.size).exists(sentFrom(_, "minMax")))

    val m = db.stacks.size
    svc.verifyCache()
    assert(db.stacks.size > m && db.stacks.drop(m).forall(s => sentFrom(s, "verifyCache") && crawling(s)))
  }

  test("verifyCache re-crawls every region and keeps the content consistent") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    service.newSession(WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank).getPage(10)
    val before = service.store.allEntries.map(e => e.box -> e.tuples.map(_.id).toSet).toMap
    assert(before.nonEmpty)
    val refreshed = service.verifyCache()
    assert(refreshed == before.size)
    val after = service.store.allEntries.map(e => e.box -> e.tuples.map(_.id).toSet).toMap
    assert(after == before, "static database: verification must reproduce identical content")
  }

  test("verifyCache bills a full re-crawl of every region, ignoring the store") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    service.newSession(WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank).getPage(10)
    service.newSession(WebQuery.all, MDRank(Seq("price" -> 1.0, "lwr" -> 1.0)), Algo.Rerank).getPage(10)
    val entries = service.store.allEntries
    assert(entries.size > 1)
    // The same crawls through a fresh connection that never reads a store.
    val fresh = new WebDbConn(db)
    entries.foreach(e => Crawler.crawlQuery(fresh, e.box.toQuery(WebQuery.all)))
    val before = service.serviceAcc.crawlQueries
    service.verifyCache()
    assert(service.serviceAcc.crawlQueries - before == fresh.acc.crawlQueries)
    assert(fresh.acc.crawlQueries >= entries.size)
  }

  test("verifyCache empties the answer cache: a repeated session bills what it bills on a fresh service") {
    val db   = TestFixtures.diamonds(spark)
    val spec = OneDRank("price", asc = false)
    val alone = new Qr2Service(db).newSession(WebQuery.all, spec, Algo.Binary)
    alone.getPage(10)
    val service = new Qr2Service(db)
    service.newSession(WebQuery.all, spec, Algo.Binary).getPage(10)
    service.verifyCache()
    val again = service.newSession(WebQuery.all, spec, Algo.Binary)
    val ids   = again.getPage(10).map(_.id)
    assert(ids == alone.seen.map(_.id))
    assert(again.stats.queries == alone.stats.queries && again.stats.rounds == alone.stats.rounds,
      s"after verifyCache ${again.statsPanel}, on a fresh service ${alone.statsPanel}")
    assert(alone.stats.queries > 0)
  }

  // An MD-RERANK session on lwr indexes a box at the lwr = 1.00 spike. A
  // 1D-BINARY session cannot use it: its sliver crawl starts below the
  // advertised domain, so no region starting at the spike contains it.
  test("after persist, load and verifyCache, BINARY and BASELINE sessions read the store: they crawl less than on an empty store") {
    val db  = TestFixtures.diamonds(spark)
    val dir = java.nio.file.Files.createTempDirectory("qr2-boot-store").toString
    val indexing = new Qr2Service(db)
    indexing.newSession(WebQuery.all, MDRank(Seq("lwr" -> 1.0)), Algo.Rerank).getPage(10)
    assert(indexing.store.size > 0, "premise: RERANK indexed the lwr spike")
    indexing.store.persist(spark, dir)
    val booted = new Qr2Service(db, DenseRegionStore.load(spark, dir))
    booted.verifyCache()
    for ((spec, algo) <- Seq(MDRank(Seq("lwr" -> 1.0)) -> Algo.Binary, OneDRank("lwr", asc = true) -> Algo.Baseline)) {
      val warm  = booted.newSession(WebQuery.all, spec, algo)
      val cold  = new Qr2Service(db).newSession(WebQuery.all, spec, algo)
      val truth = truthIds(db, WebQuery.all, spec, 10)
      assert(warm.getPage(10).map(_.id) == truth, s"$algo $spec")
      assert(cold.getPage(10).map(_.id) == truth, s"$algo $spec")
      assert(warm.stats.crawlQueries < cold.stats.crawlQueries,
        s"$algo $spec: after verifyCache ${warm.stats.crawlQueries} crawl queries, on an empty store ${cold.stats.crawlQueries}")
    }
  }

  test("verifyCache forgets the min/max bounds: later sessions normalize by the changed database") {
    val db       = TestFixtures.diamonds(spark)
    val changing = new ChangingWebDb(db)
    val service  = new Qr2Service(changing)
    val spec     = MDRank(Seq("price" -> 1.0, "lwr" -> 1.0))
    service.newSession(WebQuery.all, spec, Algo.Rerank).getPage(10)
    assert(service.normalizer(spec.attrs).minMax == TestFixtures.trueNorm(db, spec.attrs).minMax)
    // The database loses the tuples holding the extreme prices.
    val prices  = db.allTuples.map(_.num("price"))
    val changed = new LocalWebDb(
      db.allTuples.filterNot(t => t.num("price") == prices.min || t.num("price") == prices.max), db.schema, db.k)
    changing.current = changed
    service.verifyCache()
    assert(service.knownBounds.isEmpty)
    val session = service.newSession(WebQuery.all, spec, Algo.Rerank)
    val got     = session.getPage(10).map(_.id)
    val norm    = TestFixtures.trueNorm(changed, spec.attrs)
    assert(service.normalizer(spec.attrs).minMax == norm.minMax)
    assert(got == TestFixtures.groundTruth(changed, WebQuery.all, spec.toLinear, norm).take(10).map(_.id))
  }

  /** One session per strategy and shape: MD on two attributes, 1D in both
    * directions, filtered and not, through the dense lwr spike.
    */
  private val mixedSessions: Seq[(WebQuery, RankSpec, Algo)] =
    Algo.all.map(a => (WebQuery.all, MDRank(Seq("price" -> 1.0, "carat" -> -0.5)), a)) ++ Seq(
      (WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank),
      (WebQuery.all.andCat("cut", Set("Good")), OneDRank("lwr", asc = true), Algo.Binary),
      (WebQuery.all, OneDRank("price", asc = false), Algo.Baseline),
      (WebQuery.all.andCat("cut", Set("Ideal")), OneDRank("carat", asc = true), Algo.TA),
      (WebQuery.all.andCat("shape", Set("Round")), MDRank(Seq("price" -> 1.0, "lwr" -> 1.0)), Algo.Rerank),
    )

  private def truthIds(db: LocalWebDb, base: WebQuery, spec: RankSpec, n: Int): Vector[Long] =
    TestFixtures.groundTruth(db, base, spec.toLinear, TestFixtures.trueNorm(db, spec.attrs)).take(n).map(_.id)

  test("a repeated session on one service bills no query and no round, and emits the same ids") {
    val db = TestFixtures.diamonds(spark)
    for ((base, spec, algo) <- mixedSessions) {
      val service = new Qr2Service(db)
      val first   = service.newSession(base, spec, algo)
      val ids     = first.getPage(10).map(_.id) ++ first.getPage(10).map(_.id)
      val again   = service.newSession(base, spec, algo)
      val idsAgain = again.getPage(10).map(_.id) ++ again.getPage(10).map(_.id)
      assert(idsAgain == ids, s"$algo $spec $base")
      assert(again.stats.queries == 0 && again.stats.rounds == 0,
        s"$algo $spec $base: repeat ${again.statsPanel} after ${first.statsPanel}")
    }
  }

  test("a repeated session that descends past boxes bills no query and no round, and emits the same ids") {
    val db = TestFixtures.diamonds(spark)
    val sessions = Seq(
      (WebQuery.all, MDRank(Seq("price" -> 1.0, "lwr" -> 1.0)), Algo.Binary),
      (WebQuery.all, MDRank(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5)), Algo.Rerank),
    )
    for ((base, spec, algo) <- sessions) {
      val service = new Qr2Service(db)
      val first   = service.newSession(base, spec, algo)
      val ids     = first.getPage(10).map(_.id) ++ first.getPage(10).map(_.id)
      assert(ids == truthIds(db, base, spec, 20), s"$algo $spec")
      assert(first.boxesPassed > 0, s"$algo $spec: the session never descended")
      val again    = service.newSession(base, spec, algo)
      val idsAgain = again.getPage(10).map(_.id) ++ again.getPage(10).map(_.id)
      assert(idsAgain == ids, s"$algo $spec")
      assert(again.stats.queries == 0 && again.stats.rounds == 0,
        s"$algo $spec: repeat ${again.statsPanel} after ${first.statsPanel}")
    }
  }

  test("a repeated MD-BASELINE session whose pages fill idle slots bills no query and no round, and emits the same ids") {
    val sessions = Seq(
      (TestFixtures.diamonds(spark), WebQuery.all, MDRank(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5))),
      (TestFixtures.houses(spark), WebQuery.all.andCat("zip", Set("90001")), MDRank(Seq("price" -> 0.7, "sqft" -> -0.1))),
    )
    for ((db, base, spec) <- sessions) {
      val service = new Qr2Service(db)
      val first   = service.newSession(base, spec, Algo.Baseline)
      val ids     = first.getPage(10).map(_.id) ++ first.getPage(10).map(_.id)
      assert(ids == truthIds(db, base, spec, 20), s"$spec $base")
      assert(first.boxesFilled > 0, s"$spec $base: no page-frontier box filled a slot")
      val again    = service.newSession(base, spec, Algo.Baseline)
      val idsAgain = again.getPage(10).map(_.id) ++ again.getPage(10).map(_.id)
      assert(idsAgain == ids, s"$spec $base")
      assert(again.stats.queries == 0 && again.stats.rounds == 0,
        s"$spec $base: repeat ${again.statsPanel} after ${first.statsPanel}")
    }
  }

  test("a session mixing getNext and getPage emits the ground-truth order under every strategy") {
    val db   = TestFixtures.diamonds(spark)
    val spec = MDRank(Seq("price" -> 1.0, "carat" -> -0.5))
    for (algo <- Algo.all) {
      val session = new Qr2Service(db).newSession(WebQuery.all, spec, algo)
      val got = session.getNext().toVector ++ session.getPage(10) ++ session.getNext() ++ session.getNext() ++
        session.getPage(5)
      assert(got.map(_.id) == truthIds(db, WebQuery.all, spec, 18), s"$algo")
      assert(session.seen == got, s"$algo")
    }
  }

  test("getPage(0) returns an empty page and bills nothing") {
    val db = TestFixtures.diamonds(spark)
    for (spec <- Seq(MDRank(Seq("price" -> 1.0, "carat" -> -0.5)), OneDRank("carat")); algo <- Algo.all) {
      val session = new Qr2Service(db).newSession(WebQuery.all, spec, algo)
      assert(session.getPage(0).isEmpty, s"$algo $spec")
      assert(session.stats.queries == 0 && session.stats.rounds == 0, s"$algo $spec: ${session.statsPanel}")
      val page  = session.getPage(3)
      val stats = session.stats
      assert(session.getPage(0).isEmpty, s"$algo $spec")
      assert(session.stats == stats && session.seen == page, s"$algo $spec")
    }
  }

  test("a BINARY session after a RERANK session of the same houses ranking is correct and bills less") {
    val db    = TestFixtures.houses(spark)
    val spec  = MDRank(Seq("price" -> 0.7, "sqft" -> -0.1))
    val truth = truthIds(db, WebQuery.all, spec, 10)
    val binaryAlone = new Qr2Service(db).newSession(WebQuery.all, spec, Algo.Binary)
    assert(binaryAlone.getPage(10).map(_.id) == truth)
    val service = new Qr2Service(db)
    assert(service.newSession(WebQuery.all, spec, Algo.Rerank).getPage(10).map(_.id) == truth)
    val binary = service.newSession(WebQuery.all, spec, Algo.Binary)
    assert(binary.getPage(10).map(_.id) == truth)
    assert(binary.stats.queries < binaryAlone.stats.queries,
      s"after RERANK ${binary.statsPanel}, alone ${binaryAlone.statsPanel}")
  }

  test("four threads of mixed sessions on one service each emit ground truth") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val start   = new java.util.concurrent.CountDownLatch(1)
    val errors  = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val pages   = new java.util.concurrent.atomic.AtomicInteger
    val threads = (0 until 4).map { i =>
      // Each thread runs every session, from a different one, so threads
      // run the same and different sessions at once.
      val order = mixedSessions.drop(2 * i) ++ mixedSessions.take(2 * i)
      new Thread(() => {
        start.await()
        for ((base, spec, algo) <- order) {
          try {
            val session = service.newSession(base, spec, algo)
            val got     = session.getPage(10).map(_.id) ++ session.getPage(10).map(_.id)
            if (got != truthIds(db, base, spec, 20)) errors.add(s"$algo $spec $base: wrong ids $got")
            pages.addAndGet(2)
          } catch { case e: Exception => errors.add(s"$algo $spec $base: $e") }
        }
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(errors.isEmpty, errors.toArray.mkString("\n"))
    assert(pages.get == 4 * 2 * mixedSessions.size)
  }

  test("resultsAsDataFrame presents the page in user-ranking order") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val spec    = MDRank(Seq("price" -> 1.0, "carat" -> -0.5))
    val session = service.newSession(WebQuery.all, spec, Algo.Binary)
    session.getPage(8)
    val ids = session.resultsAsDataFrame(spark).select("id").collect().map(_.getLong(0)).toSeq
    assert(ids == session.seen.map(_.id))
  }

  test("an exhausted session keeps returning empty pages") {
    val db      = TestFixtures.diamonds(spark)
    val service = new Qr2Service(db)
    val base    = WebQuery.all.and("price", Interval(200.0, 400.0))
    val session = service.newSession(base, OneDRank("price"), Algo.Rerank)
    val total   = TestFixtures.groundTruth1D(db, base, "price", asc = true).size
    val all     = session.getPage(total + 10)
    assert(all.size == total)
    assert(session.getPage(5).isEmpty)
  }
}

package repro.service

import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** End-to-end over the Catalyst-backed web database: every simulated search
  * request is a Spark `filter → orderBy → limit` pipeline, and the full
  * QR2 stack (service, algorithms, crawler, index) runs on top of it.
  */
class SparkBackendE2ESpec extends SparkSpec {

  private val sf = 0.002

  private lazy val sparkDb = WebData.diamondsSpark(spark, sf)
  private lazy val localDb = TestFixtures.diamonds(spark, sf)

  test("1D-RERANK over the Catalyst backend matches ground truth") {
    val service = new Qr2Service(sparkDb)
    val got     = service.newSession(WebQuery.all, OneDRank("price"), Algo.Rerank).getPage(8)
    val truth   = TestFixtures.groundTruth1D(localDb, WebQuery.all, "price", asc = true).take(8)
    assert(got.map(_.id) == truth.map(_.id))
  }

  test("MD-RERANK over the Catalyst backend matches ground truth") {
    val service = new Qr2Service(sparkDb)
    val spec    = MDRank(Seq("price" -> 1.0, "carat" -> -0.5))
    val got     = service.newSession(WebQuery.all, spec, Algo.Rerank).getPage(6)
    val truth = TestFixtures
      .groundTruth(localDb, WebQuery.all, spec.toLinear, TestFixtures.trueNorm(localDb, spec.attrs))
      .take(6)
    assert(got.map(_.id) == truth.map(_.id))
  }

  test("query cost is identical across backends (the cost metric is backend-independent)") {
    val sSpark = new Qr2Service(sparkDb)
    val sLocal = new Qr2Service(localDb)
    val spec   = MDRank(Seq("price" -> 1.0, "carat" -> -0.1))
    val a      = sSpark.newSession(WebQuery.all, spec, Algo.Binary)
    val b      = sLocal.newSession(WebQuery.all, spec, Algo.Binary)
    a.getPage(5); b.getPage(5)
    assert(a.stats.queries == b.stats.queries,
      s"spark=${a.stats.queries} local=${b.stats.queries}")
    assert(a.stats.rounds == b.stats.rounds)
    assert(a.seen.map(_.id) == b.seen.map(_.id))
  }

  test("crawler over the Catalyst backend retrieves the exact matching set") {
    import repro.crawl.Crawler
    val q  = WebQuery.all.and("carat", Interval(0.2, 0.4))
    val ts = Crawler.crawlQuery(new WebDbConn(sparkDb), q)
    val expected = localDb.allTuples.filter(q.matches).map(_.id).toSet
    assert(ts.map(_.id).toSet == expected)
  }

  test("boot scenario: persist the store, load it in a fresh service, verify the cache") {
    val dir      = java.nio.file.Files.createTempDirectory("qr2-boot").toString
    val service1 = new Qr2Service(sparkDb)
    service1.newSession(WebQuery.all, OneDRank("lwr"), Algo.Rerank).getPage(10)
    assert(service1.store.size > 0)
    service1.store.persist(spark, dir)

    // "Before the system boots up we verify the cache and update the changes."
    val loaded   = DenseRegionStore.load(spark, dir)
    val service2 = new Qr2Service(sparkDb, loaded)
    assert(service2.verifyCache() == service1.store.size)
    val s2 = service2.newSession(WebQuery.all, OneDRank("lwr"), Algo.Rerank)
    s2.getPage(10)
    assert(s2.stats.crawlQueries == 0, "the reloaded index must spare the dense crawl")
    val truth = TestFixtures.groundTruth1D(localDb, WebQuery.all, "lwr", asc = true).take(10)
    assert(s2.seen.map(_.id) == truth.map(_.id))
  }
}

package repro.bench

import org.apache.spark.sql.SparkSession
import repro.service._
import repro.webdb._

/** Two functions per evaluation table of the paper (DESIGN.md §4):
  * `tableN` measures the rows and `reportN` renders them as the printed
  * table. Bench suites (bench/) print the report and assert the
  * qualitative shape on the rows; jobs/ prints the same report as a
  * spark-submit entrypoint.
  *
  * All experiments run against the driver-backed [[LocalWebDb]] simulator —
  * the cost metric (#queries to the web database) is backend-independent,
  * and tests prove `LocalWebDb ≡ SparkWebDb` query-for-query. Set
  * `useSparkBackend = true` on [[table2]] to route one experiment through
  * the Catalyst pipeline end to end.
  */
object Experiments {

  /** Benchmark scale factor (≈20 000 diamonds / 100 000 houses at 0.1). */
  def benchSf: Double = sys.env.get("REPRO_BENCH_SF").map(_.toDouble).getOrElse(0.1)

  /** Smaller SF for the quadratic-ish anti-correlated baseline sweeps. */
  def benchSfSmall: Double = benchSf / 2

  /** One user's first page: a new session on `service` → top-10. */
  def firstPage(service: Qr2Service, base: WebQuery, spec: RankSpec, algo: Algo): Qr2Session = {
    val session = service.newSession(base, spec, algo)
    session.getPage(10)
    session
  }

  /** Cost of one user's first page. */
  def page(service: Qr2Service, base: WebQuery, spec: RankSpec, algo: Algo): DbStats =
    firstPage(service, base, spec, algo).stats

  // -------------------------------------------------------------------
  // Table 1 — Fig 2: parallel-processed iterations (Blue Nile, 2D & 3D)
  // -------------------------------------------------------------------

  final case class T1Row(
      dims: Int,
      ranking: String,
      rounds: Long,
      parallelRounds: Long,
      parallelRoundFrac: Double,
      parallelQueryFrac: Double,
      crawlQueries: Long,
      crawlBound: Long,
      boxesPassed: Long,
  )

  /** MD-RERANK top-10 discovery on the diamond catalogue with the paper's
    * example ranking functions; counts how many round-trips carried more
    * than one query (Fig 2's "parallel processed queries per iteration").
    */
  def table1(spark: SparkSession, sf: Double = benchSf): Seq[T1Row] = {
    val db = WebData.diamondsLocal(spark, sf)
    Seq(
      (2, "price - 0.1*carat", MDRank(Seq("price" -> 1.0, "carat" -> -0.1))),
      (3, "price - 0.1*carat - 0.5*depth",
        MDRank(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5))),
    ).map { case (d, label, rank) =>
      val session = firstPage(new Qr2Service(db), WebQuery.all, rank, Algo.Rerank)
      val s       = session.stats
      T1Row(d, label, s.rounds, s.parallelRounds, s.parallelFraction, s.parallelQueryFraction,
        s.crawlQueries, s.crawlLowerBound(db.k), session.boxesPassed)
    }
  }

  def report1(rows: Seq[T1Row]): String = render(
    "Table 1 — parallel iterations, MD-RERANK on diamonds, fresh service per cell " +
      "(paper Fig 2: 2D 44/45 ≈ 97.8% parallel iters, 3D > 90% of queries parallel)",
    Seq("dims", "ranking", "rounds", "parallel rounds", "round %", "query %", CrawlHeader, PassedHeader),
    rows.map(r => Seq(r.dims.toString, r.ranking, r.rounds.toString,
      r.parallelRounds.toString, pct(r.parallelRoundFrac), pct(r.parallelQueryFrac),
      crawl(r.crawlQueries, r.crawlBound), r.boxesPassed.toString)),
  )

  // -------------------------------------------------------------------
  // Table 2 — §II-C inline statistic: 27 queries / 33 s on Zillow
  // -------------------------------------------------------------------

  final case class T2Row(
      backend: String,
      sf: Double,
      queries: Long,
      rounds: Long,
      simulatedSec: Double,
      crawlQueries: Long,
      crawlBound: Long,
  )

  /** One MD-RERANK top-10 session on the housing catalogue with the
    * paper's Zillow ranking function `price − 0.3·sqft` (the text's
    * "Price − 0.3*Carat" — Zillow has no carat; square feet is the §II-C
    * slider example). Simulated latency 1.2 s per round-trip.
    */
  def table2(spark: SparkSession, sf: Double = benchSf, useSparkBackend: Boolean = false): T2Row = {
    val db: WebDb =
      if (useSparkBackend) WebData.housesSpark(spark, sf)
      else WebData.housesLocal(spark, sf)
    val s = page(new Qr2Service(db), WebQuery.all, MDRank(Seq("price" -> 1.0, "sqft" -> -0.3)), Algo.Rerank)
    T2Row(if (useSparkBackend) "spark" else "local", sf, s.queries, s.rounds, s.simulatedMs / 1000.0,
      s.crawlQueries, s.crawlLowerBound(db.k))
  }

  def report2(rows: Seq[T2Row]): String = render(
    "Table 2 — Zillow price − 0.3·sqft, MD-RERANK top-10, fresh service per cell (paper: 27 queries, 33 s)",
    Seq("backend", "sf", "queries", "rounds", "simulated s", CrawlHeader),
    rows.map(r => Seq(r.backend, r.sf.toString, r.queries.toString, r.rounds.toString,
      f"${r.simulatedSec}%.1f", crawl(r.crawlQueries, r.crawlBound))),
  )

  // -------------------------------------------------------------------
  // Table 3 — §III-B "1D" scenario: correlation with the system ranking
  // -------------------------------------------------------------------

  final case class T3Row(
      scenario: String,
      algo: String,
      queries: Long,
      crawlQueries: Long,
      crawlBound: Long,
  )

  /** Top-10 discovery cost of each 1D strategy under orders that are
    * positively correlated, anti-correlated, independent, and dense w.r.t.
    * the hidden (noisy price-ascending) system ranking. Fresh service per
    * cell so nothing is amortized across cells.
    */
  def table3(spark: SparkSession, sf: Double = benchSfSmall): Seq[T3Row] = {
    val db = WebData.diamondsLocal(spark, sf)
    val scenarios = Seq(
      ("pos-correlated (price asc)", OneDRank("price", asc = true)),
      ("anti-correlated (price desc)", OneDRank("price", asc = false)),
      ("independent (depth asc)", OneDRank("depth", asc = true)),
      ("dense (lwr asc, 20% spike)", OneDRank("lwr", asc = true)),
    )
    val algos = Seq("BASELINE" -> Algo.Baseline, "BINARY" -> Algo.Binary, "RERANK" -> Algo.Rerank)
    for {
      (label, rank)     <- scenarios
      (algoName, algo)  <- algos
    } yield {
      val s = page(new Qr2Service(db), WebQuery.all, rank, algo)
      T3Row(label, algoName, s.queries, s.crawlQueries, s.crawlLowerBound(db.k))
    }
  }

  def report3(rows: Seq[T3Row]): String = render(
    "Table 3 — 1D top-10 query cost by correlation scenario, fresh service per cell",
    Seq("scenario", "algo", "queries", CrawlHeader),
    rows.map(r => Seq(r.scenario, r.algo, r.queries.toString, crawl(r.crawlQueries, r.crawlBound))),
  )

  // -------------------------------------------------------------------
  // Table 4 — §III-B "MD" scenario: weight combinations × dimensionality
  // -------------------------------------------------------------------

  final case class T4Row(
      ranking: String,
      algo: String,
      queries: Long,
      rounds: Long,
      crawlQueries: Long,
      crawlBound: Long,
      boxesPassed: Long,
      boxesFilled: Long,
      discoveryQueries: Long,
      discoveryRounds: Long,
  )

  /** Each cell runs one session's first page on a fresh service, so each
    * pays the min/max discovery of its ranking attributes; the service
    * accountant holds that cost, outside the session's.
    */
  def table4(spark: SparkSession, sf: Double = benchSfSmall): Seq[T4Row] = {
    val db = WebData.diamondsLocal(spark, sf)
    val rankings = Seq(
      ("2D pos (price + 0.2*carat)", MDRank(Seq("price" -> 1.0, "carat" -> 0.2))),
      ("2D mixed (price - 0.5*carat)", MDRank(Seq("price" -> 1.0, "carat" -> -0.5))),
      ("2D anti (-price - 0.5*carat)", MDRank(Seq("price" -> -1.0, "carat" -> -0.5))),
      ("3D (price - 0.1*carat - 0.5*depth)",
        MDRank(Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5))),
    )
    val algos = Seq(
      "BASELINE" -> Algo.Baseline,
      "BINARY"   -> Algo.Binary,
      "RERANK"   -> Algo.Rerank,
      "TA"       -> Algo.TA,
    )
    for {
      (label, rank)    <- rankings
      (algoName, algo) <- algos
    } yield {
      val service = new Qr2Service(db)
      val session = firstPage(service, WebQuery.all, rank, algo)
      val s       = session.stats
      T4Row(label, algoName, s.queries, s.rounds, s.crawlQueries, s.crawlLowerBound(db.k), session.boxesPassed,
        session.boxesFilled, service.serviceAcc.queries, service.serviceAcc.rounds)
    }
  }

  def report4(rows: Seq[T4Row]): String = render(
    "Table 4 — MD top-10 query cost by ranking function, fresh service per cell",
    Seq("ranking", "algo", "queries", "rounds", CrawlHeader, PassedHeader, FilledHeader, "discovery queries / rounds"),
    rows.map(r => Seq(r.ranking, r.algo, r.queries.toString, r.rounds.toString, crawl(r.crawlQueries, r.crawlBound),
      r.boxesPassed.toString, r.boxesFilled.toString, s"${r.discoveryQueries} / ${r.discoveryRounds}")),
  )

  // -------------------------------------------------------------------
  // Table 5 — §III-B "On-the-fly indexing": amortization across sessions
  // -------------------------------------------------------------------

  final case class T5Row(
      session: Int,
      filter: String,
      binaryQueries: Long,
      rerankQueries: Long,
      binaryCrawl: Long,
      binaryCrawlBound: Long,
      rerankCrawl: Long,
      rerankCrawlBound: Long,
  )

  /** Ten successive user sessions on the shared service, each ranking by
    * the dense attribute (lwr asc) under a different filter. RERANK crawls
    * and indexes the lwr = 1.00 spike once and serves later sessions from
    * the store; BINARY pays the dense region again in every session.
    */
  def table5(spark: SparkSession, sf: Double = benchSfSmall): Seq[T5Row] = {
    val db = WebData.diamondsLocal(spark, sf)
    val filters: Seq[(String, WebQuery)] =
      WebData.diamondSchema.catDomains("cut").map(c => (s"cut=$c", WebQuery.all.andCat("cut", Set(c)))) ++
        WebData.diamondSchema.catDomains("clarity").take(6).map(c => (s"clarity=$c", WebQuery.all.andCat("clarity", Set(c))))
    val binaryService = new Qr2Service(db)
    val rerankService = new Qr2Service(db)
    filters.take(10).zipWithIndex.map { case ((label, q), i) =>
      val b = page(binaryService, q, OneDRank("lwr", asc = true), Algo.Binary)
      val r = page(rerankService, q, OneDRank("lwr", asc = true), Algo.Rerank)
      T5Row(i + 1, label, b.queries, r.queries,
        b.crawlQueries, b.crawlLowerBound(db.k), r.crawlQueries, r.crawlLowerBound(db.k))
    }
  }

  def report5(rows: Seq[T5Row]): String = render(
    "Table 5 — per-session top-10 cost on the dense attribute (shared service)",
    Seq("session", "filter", "BINARY queries", "RERANK queries", s"BINARY $CrawlHeader", s"RERANK $CrawlHeader"),
    rows.map(r => Seq(r.session.toString, r.filter,
      r.binaryQueries.toString, r.rerankQueries.toString,
      crawl(r.binaryCrawl, r.binaryCrawlBound), crawl(r.rerankCrawl, r.rerankCrawlBound))) :+
      Seq("total", "", rows.map(_.binaryQueries).sum.toString,
        rows.map(_.rerankQueries).sum.toString,
        crawl(rows.map(_.binaryCrawl).sum, rows.map(_.binaryCrawlBound).sum),
        crawl(rows.map(_.rerankCrawl).sum, rows.map(_.rerankCrawlBound).sum)),
  )

  final case class T5CrossRow(
      filter: String,
      emptyQueries: Long,
      emptyCrawl: Long,
      warmQueries: Long,
      warmCrawl: Long,
  )

  /** Cross-shape reuse of the store: an MD-RERANK `price + lwr` session
    * under each cut filter, once on a fresh service (empty store) and once
    * on a fresh service where a 1D-RERANK `lwr asc` session indexed the
    * lwr = 1.00 spike first (warm store). The MD crawls reach into the spike;
    * on the warm store they read it from the store and crawl only the
    * tuples around it.
    */
  def table5Cross(spark: SparkSession, sf: Double = benchSfSmall): Seq[T5CrossRow] = {
    val db = WebData.diamondsLocal(spark, sf)
    val md = MDRank(Seq("price" -> 1.0, "lwr" -> 1.0))
    WebData.diamondSchema.catDomains("cut").map { c =>
      val q     = WebQuery.all.andCat("cut", Set(c))
      val empty = page(new Qr2Service(db), q, md, Algo.Rerank)
      val warm  = new Qr2Service(db)
      page(warm, WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank)
      val st = page(warm, q, md, Algo.Rerank)
      T5CrossRow(s"cut=$c", empty.queries, empty.crawlQueries, st.queries, st.crawlQueries)
    }
  }

  def report5Cross(rows: Seq[T5CrossRow]): String = render(
    "Table 5b — MD-RERANK price + lwr top-10 on an empty store vs after a 1D lwr asc session (fresh service per cell)",
    Seq("filter", "empty: queries", "empty: crawl", "warm: queries", "warm: crawl"),
    rows.map(r => Seq(r.filter, r.emptyQueries.toString, r.emptyCrawl.toString,
      r.warmQueries.toString, r.warmCrawl.toString)) :+
      Seq("total", rows.map(_.emptyQueries).sum.toString, rows.map(_.emptyCrawl).sum.toString,
        rows.map(_.warmQueries).sum.toString, rows.map(_.warmCrawl).sum.toString),
  )

  // -------------------------------------------------------------------
  // Table 6 — §III-B "Best vs worst cases"
  // -------------------------------------------------------------------

  final case class T6Row(
      scenario: String,
      run1Queries: Long,
      run1CrawlQueries: Long,
      run1SimSec: Double,
      run2Queries: Long,
      run1CrawlBound: Long,
  )

  /** The paper's two named scenarios. Worst: rankings touching the lwr
    * attribute force a crawl of the 20 % spike at lwr = 1.00 (run 2 on the
    * same service is cheap thanks to the index — the paper's "low amortized
    * cost"). Best: `price + sqft` on houses, where both the attribute
    * correlation and the correlation with the system ranking are positive.
    */
  def table6(spark: SparkSession, sf: Double = benchSfSmall): Seq[T6Row] = {
    val diamonds = WebData.diamondsLocal(spark, sf)
    val houses   = WebData.housesLocal(spark, sf)

    def run(db: WebDb, spec: RankSpec, filters: (WebQuery, WebQuery), label: String): T6Row = {
      val service = new Qr2Service(db)
      val st1     = page(service, filters._1, spec, Algo.Rerank)
      val st2     = page(service, filters._2, spec, Algo.Rerank)
      T6Row(label, st1.queries, st1.crawlQueries, st1.simulatedMs / 1000.0, st2.queries,
        st1.crawlLowerBound(db.k))
    }

    Seq(
      run(
        diamonds,
        OneDRank("lwr", asc = true),
        (WebQuery.all, WebQuery.all.andCat("cut", Set("Ideal"))),
        "worst 1D: lwr asc on diamonds (price + LengthWidthRatio family)",
      ),
      run(
        diamonds,
        MDRank(Seq("price" -> 1.0, "lwr" -> 1.0)),
        (WebQuery.all, WebQuery.all.andCat("cut", Set("Ideal"))),
        "worst MD: price + lwr on diamonds",
      ),
      run(
        houses,
        MDRank(Seq("price" -> 1.0, "sqft" -> 1.0)),
        (WebQuery.all, WebQuery.all.andCat("city", Set("Dallas"))),
        "best MD: price + sqft on houses",
      ),
    )
  }

  def report6(rows: Seq[T6Row]): String = render(
    "Table 6 — best vs worst cases (MD/1D-RERANK, top-10, run2 = second session on the same service)",
    Seq("scenario", "run1 queries", s"run1 $CrawlHeader", "run1 sim s", "run2 queries"),
    rows.map(r => Seq(r.scenario, r.run1Queries.toString, crawl(r.run1CrawlQueries, r.run1CrawlBound),
      f"${r.run1SimSec}%.1f", r.run2Queries.toString)),
  )

  // -------------------------------------------------------------------
  // Rendering
  // -------------------------------------------------------------------

  /** Fixed-width table rendering: title, header, separator, rows. */
  private def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.lazyZip(widths).map((c, w) => c.padTo(w, ' ')).mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", fmt(header), sep) ++ rows.map(fmt)).mkString("\n")
  }

  def pct(x: Double): String = f"${x * 100}%.1f%%"

  /** Column header and cell for crawl queries next to their ⌈n/k⌉ bound. */
  private val CrawlHeader = "crawl / ⌈n/k⌉"
  private def crawl(queries: Long, bound: Long): String = s"$queries / $bound"

  /** Column header for the boxes a branch-and-bound descent passed over
    * without a query (0 for the other strategies).
    */
  private val PassedHeader = "boxes passed"

  /** Column header for the page-frontier boxes MD-BASELINE drew into the
    * idle slots of its rounds (0 for the other strategies).
    */
  private val FilledHeader = "boxes filled"
}

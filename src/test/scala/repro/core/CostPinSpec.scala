package repro.core

import repro.service.Qr2Service
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** Exact-cost pins on the diamonds table: for every strategy, the precise
  * query, round, parallel-round, crawl-query and crawl-tuple counts and the
  * emitted ids of two `next(10)` pages. The correctness grids check only
  * ids and the cost-shape tests only inequalities; these pins catch a
  * change that still ranks correctly but sends different requests.
  */
class CostPinSpec extends SparkSpec {
  import CostPinSpec.Pin

  private lazy val db     = TestFixtures.diamonds(spark)
  private lazy val houses = TestFixtures.houses(spark)

  private def counts(conn: WebDbConn, emitted: Seq[WebTuple]): Pin = {
    val a = conn.acc
    Pin(a.queries, a.rounds, a.parallelRounds, a.crawlQueries, a.crawlTuples, emitted.map(_.id))
  }

  private def twoPages(conn: WebDbConn, g: GetNexter): Pin = counts(conn, g.next(10) ++ g.next(10))

  private def pin(name: String, on: => LocalWebDb = db)(mk: WebDbConn => GetNexter): Unit =
    test(s"$name costs exactly its pinned counts") {
      val conn = new WebDbConn(on)
      assert(twoPages(conn, mk(conn)) == expected(name))
    }

  /** The same twenty results as [[pin]]'s two pages, by `getNext()` calls. */
  private def pinGetNexts(name: String)(mk: WebDbConn => GetNexter): Unit =
    test(s"$name costs exactly its pinned counts") {
      val conn = new WebDbConn(db)
      val g    = mk(conn)
      assert(counts(conn, Vector.fill(20)(g.getNext()).flatten) == expected(name))
    }

  /** Sessions in turn over one store, each on a connection of its own
    * ([[TestFixtures.inTurnOverOneStore]]): the first crawls and indexes,
    * the later ones read what the earlier ones indexed. Each run is named
    * by its key in `expected`; one assertion reports every run.
    */
  private def pinOverOneStore(name: String)(runs: (String, WebDbConn => GetNexter)*): Unit =
    test(s"$name over one store costs exactly its pinned counts") {
      val conns = TestFixtures.inTurnOverOneStore(db)
      val got = runs.map { case (_, mk) =>
        val conn = conns.next(); twoPages(conn, mk(conn))
      }
      assert(got == runs.map { case (run, _) => expected(run) })
    }

  /** Two sessions of one kind over one store. */
  private def pinTwice(name: String)(mk: WebDbConn => GetNexter): Unit =
    pinOverOneStore(s"$name twice")(s"$name #1" -> mk, s"$name #2" -> mk)

  private def md(weights: (String, Double)*): (LinearRanking, Normalizer) = {
    val f = LinearRanking(weights)
    (f, TestFixtures.trueNorm(db, f.attrs))
  }

  private val filters = Seq("unfiltered" -> WebQuery.all, "cut=Ideal" -> WebQuery.all.andCat("cut", Set("Ideal")))

  // 1D on carat: some carat values hold more than k tuples, so tie groups
  // are crawled as well as searched.
  for ((label, base) <- filters; asc <- Seq(true, false)) {
    val dir = if (asc) "asc" else "desc"
    pin(s"1D-BASELINE carat $dir $label")(c => new OneDBaseline(c, base, "carat", asc))
    pin(s"1D-BINARY carat $dir $label")(c => new OneDBinary(c, base, "carat", asc))
    pin(s"1D-RERANK carat $dir $label")(c => new OneDRerank(c, base, "carat", asc))
  }

  // 1D on houses price under a zip filter: price follows the hidden ranking,
  // so each probe returns the next values of the order.
  for (zip <- Seq("90000", "90001"); asc <- Seq(true, false)) {
    val base = WebQuery.all.andCat("zip", Set(zip))
    pin(s"1D-RERANK houses price ${if (asc) "asc" else "desc"} zip=$zip", houses) { c =>
      new OneDRerank(c, base, "price", asc)
    }
  }

  for {
    (label, base) <- filters
    (fLabel, ws)  <- Seq(
      "price - 0.5 carat"             -> Seq("price" -> 1.0, "carat" -> -0.5),
      "price - 0.1 carat - 0.5 depth" -> Seq("price" -> 1.0, "carat" -> -0.1, "depth" -> -0.5),
    )
  } {
    def fn = md(ws: _*)
    pin(s"MD-BASELINE [$fLabel] $label") { c => val (f, n) = fn; new MDBaseline(c, base, f, n) }
    pin(s"MD-BINARY [$fLabel] $label") { c => val (f, n) = fn; new MDBinary(c, base, f, n) }
    pin(s"MD-RERANK [$fLabel] $label") { c => val (f, n) = fn; new MDRerank(c, base, f, n) }
    pin(s"MD-TA [$fLabel] $label") { c => val (f, n) = fn; new MDTA(c, base, f, n) }
  }

  // A page of MD-BASELINE fills its rounds from a page frontier; lone
  // get-nexts send the per-get-next search alone.
  pinGetNexts("MD-BASELINE [price - 0.5 carat] by twenty getNext() calls") { c =>
    val (f, n) = md("price" -> 1.0, "carat" -> -0.5); new MDBaseline(c, WebQuery.all, f, n)
  }

  // The lwr = 1.00 spike: 20 % of the table shares one lwr value, so every
  // strategy reaches its dense-region handling. An MD ranking on lwr alone
  // narrows a box to the spike itself.
  pin("1D-BASELINE lwr asc")(c => new OneDBaseline(c, WebQuery.all, "lwr", asc = true))
  pin("1D-BINARY lwr asc")(c => new OneDBinary(c, WebQuery.all, "lwr", asc = true))
  pinTwice("1D-RERANK lwr asc")(c => new OneDRerank(c, WebQuery.all, "lwr", asc = true))
  pin("MD-BASELINE [lwr]") { c => val (f, n) = md("lwr" -> 1.0); new MDBaseline(c, WebQuery.all, f, n) }
  pin("MD-BINARY [lwr]") { c => val (f, n) = md("lwr" -> 1.0); new MDBinary(c, WebQuery.all, f, n) }
  pin("MD-RERANK [lwr]") { c =>
    val (f, n) = md("lwr" -> 1.0); new MDRerank(c, WebQuery.all, f, n)
  }
  pin("MD-BASELINE [price + lwr]") { c =>
    val (f, n) = md("price" -> 1.0, "lwr" -> 1.0); new MDBaseline(c, WebQuery.all, f, n)
  }
  pin("MD-BINARY [price + lwr]") { c =>
    val (f, n) = md("price" -> 1.0, "lwr" -> 1.0); new MDBinary(c, WebQuery.all, f, n)
  }
  pinTwice("MD-RERANK [price + lwr]") { c =>
    val (f, n) = md("price" -> 1.0, "lwr" -> 1.0); new MDRerank(c, WebQuery.all, f, n)
  }
  pin("MD-RERANK [price + lwr] cut=Good") { c =>
    val (f, n) = md("price" -> 1.0, "lwr" -> 1.0); new MDRerank(c, WebQuery.all.andCat("cut", Set("Good")), f, n)
  }
  // An MD crawl through the spike a 1D session indexed reads the spike from
  // the store and crawls only the tuples around it.
  pinOverOneStore("1D-RERANK lwr asc, then MD-RERANK [price + lwr] cut=Good,")(
    "1D-RERANK lwr asc #1" -> (c => new OneDRerank(c, WebQuery.all, "lwr", asc = true)),
    "MD-RERANK [price + lwr] cut=Good after 1D-RERANK lwr asc" -> { c =>
      val (f, n) = md("price" -> 1.0, "lwr" -> 1.0); new MDRerank(c, WebQuery.all.andCat("cut", Set("Good")), f, n)
    },
  )

  // The ties-only probe: on 10 000 diamonds, the last prefix of a seen-key
  // round overflows with one lwr value's tie group alone, and one probe
  // below that value proves the next key.
  pin("1D-RERANK lwr desc shape=Round on 10 000 diamonds", TestFixtures.diamonds(spark, 0.05)) { c =>
    new OneDRerank(c, WebQuery.all.andCat("shape", Set("Round")), "lwr", asc = false)
  }

  // Min/max discovery (§II-B): the 1D-RERANK key search in each direction,
  // billed to the service, on a fresh service for each attribute set. The
  // searches run in lockstep, so rounds are those of the longest search.
  for (attrs <- WebData.diamondSchema.numeric.map(Seq(_)) :+ Seq("price", "lwr"))
    test(s"minMax(${attrs.mkString(", ")}) costs exactly its pinned queries and rounds") {
      val service = new Qr2Service(db)
      service.normalizer(attrs)
      assert((service.serviceAcc.queries, service.serviceAcc.rounds) == bootstrap(attrs.mkString(", ")))
    }

  /** Queries and rounds of discovering the bounds of the attributes. */
  private lazy val bootstrap: Map[String, (Long, Long)] = Map(
    "price"      -> (6L, 5L),
    "carat"      -> (6L, 6L),
    "depth"      -> (3L, 2L),
    "table_pct"  -> (3L, 2L),
    "lwr"        -> (3L, 3L),
    "price, lwr" -> (8L, 5L),
  )

  /** A change that moves any of these must say why. */
  private lazy val expected: Map[String, Pin] = Map(
    "1D-BASELINE carat asc unfiltered" ->
      Pin(12, 5, 3, 10, 41, Seq(12, 21, 28, 57, 108, 112, 146, 147, 151, 155, 230, 231, 235, 272, 275, 287, 327, 343, 357, 363)),
    "1D-BINARY carat asc unfiltered" ->
      Pin(25, 18, 3, 11, 41, Seq(12, 21, 28, 57, 108, 112, 146, 147, 151, 155, 230, 231, 235, 272, 275, 287, 327, 343, 357, 363)),
    "1D-RERANK carat asc unfiltered" ->
      Pin(12, 5, 3, 10, 41, Seq(12, 21, 28, 57, 108, 112, 146, 147, 151, 155, 230, 231, 235, 272, 275, 287, 327, 343, 357, 363)),
    "1D-BASELINE carat desc unfiltered" ->
      Pin(288, 288, 0, 0, 0, Seq(621, 541, 783, 595, 47, 70, 477, 44, 161, 644, 8, 294, 370, 628, 460, 467, 670, 50, 157, 375)),
    "1D-BINARY carat desc unfiltered" ->
      Pin(19, 19, 0, 0, 0, Seq(621, 541, 783, 595, 47, 70, 477, 44, 161, 644, 8, 294, 370, 628, 460, 467, 670, 50, 157, 375)),
    "1D-RERANK carat desc unfiltered" ->
      Pin(16, 10, 3, 0, 0, Seq(621, 541, 783, 595, 47, 70, 477, 44, 161, 644, 8, 294, 370, 628, 460, 467, 670, 50, 157, 375)),
    "1D-BASELINE carat asc cut=Ideal" ->
      Pin(8, 8, 0, 0, 0, Seq(12, 146, 155, 235, 275, 374, 637, 679, 14, 195, 441, 518, 545, 886, 971, 59, 62, 424, 470, 664)),
    "1D-BINARY carat asc cut=Ideal" ->
      Pin(26, 26, 0, 0, 0, Seq(12, 146, 155, 235, 275, 374, 637, 679, 14, 195, 441, 518, 545, 886, 971, 59, 62, 424, 470, 664)),
    "1D-RERANK carat asc cut=Ideal" ->
      Pin(5, 4, 1, 0, 0, Seq(12, 146, 155, 235, 275, 374, 637, 679, 14, 195, 441, 518, 545, 886, 971, 59, 62, 424, 470, 664)),
    "1D-BASELINE carat desc cut=Ideal" ->
      Pin(219, 219, 0, 0, 0, Seq(783, 644, 8, 294, 50, 668, 941, 767, 222, 30, 676, 721, 593, 384, 754, 705, 544, 712, 136, 15)),
    "1D-BINARY carat desc cut=Ideal" ->
      Pin(18, 18, 0, 0, 0, Seq(783, 644, 8, 294, 50, 668, 941, 767, 222, 30, 676, 721, 593, 384, 754, 705, 544, 712, 136, 15)),
    "1D-RERANK carat desc cut=Ideal" ->
      Pin(16, 8, 4, 0, 0, Seq(783, 644, 8, 294, 50, 668, 941, 767, 222, 30, 676, 721, 593, 384, 754, 705, 544, 712, 136, 15)),
    "1D-RERANK houses price asc zip=90000" ->
      Pin(24, 18, 3, 0, 0, Seq(977, 2360, 3555, 3237, 4189, 574, 2537, 3627, 253, 2173, 2308, 1549, 2992, 4068, 3760, 3971, 2145, 1758, 386, 3351)),
    "1D-RERANK houses price desc zip=90000" ->
      Pin(11, 7, 2, 0, 0, Seq(3705, 3248, 4108, 869, 1001, 2189, 72, 2909, 912, 1276, 2731, 3286, 4156, 4169, 1610, 1007, 694, 3750, 1003, 3279)),
    "1D-RERANK houses price asc zip=90001" ->
      Pin(21, 17, 2, 0, 0, Seq(1067, 1624, 4861, 3063, 2681, 3832, 3991, 2538, 4993, 4490, 2601, 4249, 711, 292, 4701, 809, 2413, 4397, 2118, 3234)),
    "1D-RERANK houses price desc zip=90001" ->
      Pin(14, 8, 3, 0, 0, Seq(1697, 4315, 2886, 4308, 2201, 2365, 4810, 4835, 484, 4414, 2285, 4768, 993, 675, 943, 4227, 4872, 634, 902, 3103)),
    "MD-BASELINE [price - 0.5 carat] unfiltered" ->
      Pin(110, 20, 19, 0, 0, Seq(608, 963, 158, 568, 543, 632, 485, 594, 268, 816, 113, 93, 449, 148, 759, 770, 957, 582, 876, 107)),
    "MD-BASELINE [price - 0.5 carat] by twenty getNext() calls" ->
      Pin(241, 43, 41, 0, 0, Seq(608, 963, 158, 568, 543, 632, 485, 594, 268, 816, 113, 93, 449, 148, 759, 770, 957, 582, 876, 107)),
    "MD-BINARY [price - 0.5 carat] unfiltered" ->
      Pin(83, 22, 14, 0, 0, Seq(608, 963, 158, 568, 543, 632, 485, 594, 268, 816, 113, 93, 449, 148, 759, 770, 957, 582, 876, 107)),
    "MD-RERANK [price - 0.5 carat] unfiltered" ->
      Pin(83, 22, 14, 0, 0, Seq(608, 963, 158, 568, 543, 632, 485, 594, 268, 816, 113, 93, 449, 148, 759, 770, 957, 582, 876, 107)),
    "MD-TA [price - 0.5 carat] unfiltered" ->
      Pin(565, 259, 154, 0, 0, Seq(608, 963, 158, 568, 543, 632, 485, 594, 268, 816, 113, 93, 449, 148, 759, 770, 957, 582, 876, 107)),
    "MD-BASELINE [price - 0.1 carat - 0.5 depth] unfiltered" ->
      Pin(72, 27, 27, 0, 0, Seq(41, 552, 518, 654, 441, 538, 62, 215, 735, 12, 642, 873, 176, 726, 725, 579, 860, 363, 742, 548)),
    "MD-BINARY [price - 0.1 carat - 0.5 depth] unfiltered" ->
      Pin(50, 18, 11, 0, 0, Seq(41, 552, 518, 654, 441, 538, 62, 215, 735, 12, 642, 873, 176, 726, 725, 579, 860, 363, 742, 548)),
    "MD-RERANK [price - 0.1 carat - 0.5 depth] unfiltered" ->
      Pin(50, 18, 11, 0, 0, Seq(41, 552, 518, 654, 441, 538, 62, 215, 735, 12, 642, 873, 176, 726, 725, 579, 860, 363, 742, 548)),
    "MD-TA [price - 0.1 carat - 0.5 depth] unfiltered" ->
      Pin(286, 124, 83, 0, 0, Seq(41, 552, 518, 654, 441, 538, 62, 215, 735, 12, 642, 873, 176, 726, 725, 579, 860, 363, 742, 548)),
    "MD-BASELINE [price - 0.5 carat] cut=Ideal" ->
      Pin(83, 17, 16, 0, 0, Seq(608, 543, 449, 63, 641, 954, 733, 694, 166, 912, 879, 442, 259, 689, 260, 88, 189, 875, 236, 156)),
    "MD-BINARY [price - 0.5 carat] cut=Ideal" ->
      Pin(53, 20, 9, 0, 0, Seq(608, 543, 449, 63, 641, 954, 733, 694, 166, 912, 879, 442, 259, 689, 260, 88, 189, 875, 236, 156)),
    "MD-RERANK [price - 0.5 carat] cut=Ideal" ->
      Pin(53, 20, 9, 0, 0, Seq(608, 543, 449, 63, 641, 954, 733, 694, 166, 912, 879, 442, 259, 689, 260, 88, 189, 875, 236, 156)),
    "MD-TA [price - 0.5 carat] cut=Ideal" ->
      Pin(166, 90, 38, 0, 0, Seq(608, 543, 449, 63, 641, 954, 733, 694, 166, 912, 879, 442, 259, 689, 260, 88, 189, 875, 236, 156)),
    "MD-BASELINE [price - 0.1 carat - 0.5 depth] cut=Ideal" ->
      Pin(60, 24, 22, 0, 0, Seq(41, 552, 518, 441, 538, 62, 12, 725, 860, 195, 290, 396, 522, 855, 673, 40, 720, 128, 614, 200)),
    "MD-BINARY [price - 0.1 carat - 0.5 depth] cut=Ideal" ->
      Pin(23, 13, 8, 0, 0, Seq(41, 552, 518, 441, 538, 62, 12, 725, 860, 195, 290, 396, 522, 855, 673, 40, 720, 128, 614, 200)),
    "MD-RERANK [price - 0.1 carat - 0.5 depth] cut=Ideal" ->
      Pin(23, 13, 8, 0, 0, Seq(41, 552, 518, 441, 538, 62, 12, 725, 860, 195, 290, 396, 522, 855, 673, 40, 720, 128, 614, 200)),
    "MD-TA [price - 0.1 carat - 0.5 depth] cut=Ideal" ->
      Pin(127, 63, 32, 0, 0, Seq(41, 552, 518, 441, 538, 62, 12, 725, 860, 195, 290, 396, 522, 855, 673, 40, 720, 128, 614, 200)),
    "1D-BASELINE lwr asc" ->
      Pin(60, 11, 9, 58, 210, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "1D-BINARY lwr asc" ->
      Pin(71, 22, 9, 58, 210, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "1D-RERANK lwr asc #1" ->
      Pin(60, 11, 9, 58, 210, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "1D-RERANK lwr asc #2" ->
      Pin(1, 1, 0, 0, 0, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "MD-BASELINE [lwr]" ->
      Pin(61, 11, 10, 58, 210, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "MD-BINARY [lwr]" ->
      Pin(64, 15, 9, 58, 210, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "MD-RERANK [lwr]" ->
      Pin(64, 13, 9, 60, 214, Seq(1, 2, 9, 11, 16, 20, 25, 26, 27, 31, 42, 45, 46, 66, 67, 73, 81, 86, 92, 95)),
    "MD-BASELINE [price + lwr]" ->
      Pin(76, 27, 26, 0, 0, Seq(146, 735, 545, 869, 623, 185, 640, 374, 844, 195, 439, 310, 736, 664, 585, 424, 343, 832, 949, 723)),
    "MD-BINARY [price + lwr]" ->
      Pin(38, 21, 9, 0, 0, Seq(146, 735, 545, 869, 623, 185, 640, 374, 844, 195, 439, 310, 736, 664, 585, 424, 343, 832, 949, 723)),
    "MD-RERANK [price + lwr] #1" ->
      Pin(27, 9, 4, 22, 72, Seq(146, 735, 545, 869, 623, 185, 640, 374, 844, 195, 439, 310, 736, 664, 585, 424, 343, 832, 949, 723)),
    "MD-RERANK [price + lwr] #2" ->
      Pin(4, 4, 0, 0, 0, Seq(146, 735, 545, 869, 623, 185, 640, 374, 844, 195, 439, 310, 736, 664, 585, 424, 343, 832, 949, 723)),
    "MD-RERANK [price + lwr] cut=Good" ->
      Pin(31, 13, 4, 23, 72, Seq(735, 869, 640, 832, 983, 636, 917, 409, 319, 301, 970, 415, 126, 280, 210, 213, 372, 489, 42, 515)),
    "1D-RERANK lwr desc shape=Round on 10 000 diamonds" ->
      Pin(43, 19, 10, 30, 117, Seq(7160, 9638, 380, 742, 1594, 3226, 4062, 6097, 6357, 6526, 6711, 6731, 6919, 7651, 8437, 8813, 549, 760, 2004, 2502)),
    "MD-RERANK [price + lwr] cut=Good after 1D-RERANK lwr asc" ->
      Pin(9, 9, 0, 1, 72, Seq(735, 869, 640, 832, 983, 636, 917, 409, 319, 301, 970, 415, 126, 280, 210, 213, 372, 489, 42, 515)),
  )
}

object CostPinSpec {
  final case class Pin(
      queries: Long,
      rounds: Long,
      parallelRounds: Long,
      crawlQueries: Long,
      crawlTuples: Long,
      ids: Seq[Long],
  )
}

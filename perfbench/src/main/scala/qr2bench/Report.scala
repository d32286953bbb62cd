package qr2bench

import org.apache.commons.math3.distribution.BetaDistribution
import repro.webdb.DbStats

/** A named measurement with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Turns page samples and spans into the metrics the benchmark prints. */
object Report {

  /** Linearly interpolated quantile; 0 for an empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s   = xs.sorted
      val pos = q * (s.size - 1)
      val lo  = pos.toInt
      val hi  = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  private def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  /** Milliseconds a [[Calibration]] slice takes on the reference host
    * (about what it takes on an unloaded 4-core x86 cloud VM).
    */
  val SliceRefMs = 3.0

  /** Each page's time in seconds: its fastest over the epochs, which all
    * replay the same pages (interference from other tenants of the host
    * only ever adds time), multiplied by `scale`.
    */
  def pageSeconds(epochs: Seq[Epoch], scale: Double): Vector[Double] = {
    val byPage = epochs.flatMap(_.pages).groupMapReduce(p => (p.session, p.page))(_.wallNs)(math.min)
    epochs.head.pages.map(p => byPage((p.session, p.page)) / 1e9 * scale)
  }

  /** Scale that puts the epochs' fastest page times at the reference host
    * speed: the reference slice time over the lower quartile of every
    * slice timed in them. Both the fastest page times and that quartile
    * describe the host's quiet moments; on runs of one seed their ratio
    * spread less than a page time over its epoch's median slice did.
    */
  def hostScale(epochs: Seq[Epoch]): Double =
    SliceRefMs * 1e6 / quantile(epochs.flatMap(_.calibNs).map(_.toDouble), 0.25)

  /** Harrell–Davis estimate of the `q` quantile: a weighted mean of all
    * order statistics, with Beta((n + 1)q, (n + 1)(1 − q)) weights. Page
    * times cluster by session shape and leave gaps between the clusters;
    * a single order statistic jumps across such a gap when a few pages
    * move, while this estimate moves with them.
    */
  def smoothQuantile(xs: Seq[Double], q: Double): Double =
    if (xs.size < 2) xs.headOption.getOrElse(0.0)
    else {
      val s    = xs.sorted
      val n    = s.size
      val beta = new BetaDistribution(null, (n + 1) * q, (n + 1) * (1 - q))
      var acc  = 0.0
      var prev = 0.0
      var i    = 0
      while (i < n) {
        val cdf = if (i == n - 1) 1.0 else beta.cumulativeProbability((i + 1).toDouble / n)
        acc += (cdf - prev) * s(i)
        prev = cdf
        i += 1
      }
      acc
    }

  /** Each page's time in seconds at the reference host speed. */
  def refSeconds(epochs: Seq[Epoch]): Vector[Double] = pageSeconds(epochs, hostScale(epochs))

  /** Service time per page (simulated latency not slept), from per-page
    * seconds; `prefix` names the variant.
    */
  def pageMs(prefix: String, pageS: Vector[Double]): Seq[Metric] = Seq(
    Metric(s"${prefix}page_ms_p50", smoothQuantile(pageS, 0.5) * 1e3, "ms"),
    Metric(s"${prefix}page_ms_p90", smoothQuantile(pageS, 0.9) * 1e3, "ms"),
  )

  /** The user's wait per page: simulated web-database latency of the page's
    * rounds plus its service time, from per-page seconds.
    */
  def userS(prefix: String, epochs: Seq[Epoch], pageS: Vector[Double]): Seq[Metric] = {
    val waitS = epochs.head.pages.lazyZip(pageS).map((p, s) => p.rounds * DbStats.DefaultLatencyMs / 1e3 + s)
    Seq(
      Metric(s"${prefix}page_user_s_p50", smoothQuantile(waitS, 0.5), "s"),
      Metric(s"${prefix}page_user_s_p90", smoothQuantile(waitS, 0.9), "s"),
    )
  }

  /** What the user sees, from the untraced epochs; counts come from the
    * first epoch, which every epoch repeats. Service time per page is not
    * among them: on a shared host it drifts by up to 1.8× between runs
    * minutes apart, which no calibration slice tried here followed, so it
    * is printed with the table and reported per layer, without a bound.
    */
  def endToEnd(epochs: Seq[Epoch], setupS: Double): Seq[Metric] = {
    val first = epochs.head.pages
    userS("", epochs, refSeconds(epochs)) ++ Seq(
      Metric("queries_per_page", ratio(first.map(_.queries).sum, first.size), "count"),
      Metric("setup_s", setupS, "s"),
    )
  }

  /** Figures printed but not gated: service time per page at the reference
    * host speed, pages per second of it (a mean, so it follows the few
    * heaviest sessions and drifts with the seed), the same figures in plain
    * wall-clock, and the host's slice time.
    */
  def unGated(epochs: Seq[Epoch]): Seq[Metric] = {
    val refS  = refSeconds(epochs)
    val wallS = pageSeconds(epochs, 1.0)
    pageMs("", refS) ++ Seq(Metric("pages_per_s", ratio(refS.size, refS.sum), "1/s")) ++
      pageMs("wall.", wallS) ++ userS("wall.", epochs, wallS) ++ Seq(
        Metric("wall.pages_per_s", ratio(wallS.size, wallS.sum), "1/s"),
        Metric("host.slice_us", quantile(epochs.flatMap(_.calibNs).map(_ / 1e3), 0.5), "us"),
      )
  }

  /** Per-layer metrics of the traced epochs. Times come from the spans;
    * counts come from the accountants and the stores, per epoch.
    */
  def perLayer(
      epochs: Seq[Epoch],
      spans: Seq[Span],
      onSpark: Boolean,
      k: Int,
      retainedMb: Double,
      overheadFrac: Double,
  ): Seq[Metric] = {
    val requests = spans.filter(_.kind == "request")
    val pageSp   = spans.filter(_.kind == "page")
    val openSp   = spans.filter(s => s.kind == "open" && s.end > 0)
    val dur      = (s: Span) => (s.end - s.start).toDouble
    val childNs  = spans.filter(s => s.kind == "request" || s.kind == "open")
      .groupMapReduce(_.parent)(dur)(_ + _)
    val selfMs   = pageSp.map(p => (dur(p) - childNs.getOrElse(p.id, 0.0)) / 1e6)
    val reqNs    = requests.map(dur)
    val backend  =
      if (onSpark) Seq("webdb.spark_ms_p50" -> 0.5, "webdb.spark_ms_p90" -> 0.9)
        .map { case (n, q) => Metric(n, quantile(reqNs, q) / 1e6, "ms") }
      else Seq("webdb.local_us_p50" -> 0.5, "webdb.local_us_p90" -> 0.9)
        .map { case (n, q) => Metric(n, quantile(reqNs, q) / 1e3, "us") }

    val pages    = epochs.flatMap(_.pages)
    val n        = epochs.size.toDouble
    val queries  = pages.map(_.queries).sum.toDouble
    val crawlQ   = pages.map(_.crawlQueries).sum.toDouble
    val stores   = epochs.flatMap(_.stores)
    val crawlNs  = requests.filter(_.caller == "crawl").map(dur).sum
    backend ++ Seq(
      Metric("webdb.busy_frac", ratio(reqNs.sum, pageSp.map(dur).sum), "frac"),
      Metric("webdb.overflow_frac", ratio(requests.count(_.overflow), requests.size), "frac"),
      Metric("webdb.empty_frac", ratio(requests.count(_.empty), requests.size), "frac"),
      Metric("webdb.queries_per_round", ratio(queries, pages.map(_.rounds).sum), "count"),
      Metric("webdb.parallel_query_frac", ratio(pages.map(_.parallelQueries).sum, queries), "frac"),
      Metric("webdb.repeat_frac", ratio(requests.count(_.repeat), requests.size), "frac"),
      Metric("crawl.share", ratio(crawlQ, queries), "frac"),
      Metric("crawl.backend_ms_per_page", ratio(crawlNs / 1e6, pageSp.size), "ms"),
      Metric("crawl.yield", ratio(stores.map(_.distinctTuples).sum, crawlQ * k), "frac"),
      Metric("core.self_ms_p50", quantile(selfMs, 0.5), "ms"),
      Metric("core.self_ms_p90", quantile(selfMs, 0.9), "ms"),
      Metric("core.rounds_per_page", ratio(pages.map(_.rounds).sum, pages.size), "count"),
      Metric("service.open_ms_p50", quantile(openSp.map(dur(_) / 1e6), 0.5), "ms"),
      Metric("service.open_ms_p90", quantile(openSp.map(dur(_) / 1e6), 0.9), "ms"),
      Metric("service.bootstrap_queries", pages.map(_.bootQueries).sum / n, "count"),
      Metric("store.entries", stores.map(_.entries).sum / n, "count"),
      Metric("store.indexed_tuples", stores.map(_.indexedTuples).sum / n, "count"),
      Metric("store.warm_crawl_queries", pages.filter(_.coldPos > 0).map(_.crawlQueries).sum / n, "count"),
      Metric("host.slice_us", quantile(epochs.flatMap(_.calibNs).map(_ / 1e3), 0.5), "us"),
      Metric("jvm.retained_mb", retainedMb, "MB"),
      Metric("trace.overhead_frac", overheadFrac, "frac"),
    )
  }

  /** The result line: `correct`, `attempted`, `failed` and the metrics. */
  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

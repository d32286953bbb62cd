package repro.webdb

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** The public search interface of a hidden web database.
  *
  * `rawTopK` models one HTTP search request: it returns the top-`k`
  * matching tuples under the *hidden* system ranking function plus an
  * overflow flag ("page 1 of many"). Third-party code must go through a
  * [[WebDbConn]] so every request is accounted.
  */
trait WebDb {
  def schema: WebSchema
  def k: Int
  private[webdb] def rawTopK(q: WebQuery): TopKResponse
}

/** One billed round-trip to the web database: the number of queries it
  * carried, and whether the crawler sent them.
  */
final case class BilledRound(queries: Int, crawl: Boolean)

/** The request counts of the paper's cost model, all derived from a log of
  * billed rounds.
  *
  * `queries` is the number of search requests sent to the web database (the
  * metric every table reports). `rounds` is the number of sequential
  * round-trips; a round whose batch contains more than one query is a
  * *parallel* round (the metric of Fig 2). `crawlQueries` tags the subset
  * of queries issued by the crawler (general-positioning fix + dense-region
  * indexing) so benches can separate discovery from crawling cost;
  * `crawlTuples` counts the tuples those crawls returned, which gives the
  * ⌈n/k⌉ lower bound on their cost.
  */
sealed trait RoundLog {
  protected def log: collection.IndexedSeq[BilledRound]
  def crawlTuples: Long

  def batchSizes: Vector[Int] = log.iterator.map(_.queries).toVector
  def queries: Long           = log.iterator.map(_.queries.toLong).sum
  def rounds: Long            = log.size.toLong
  def parallelRounds: Long    = log.count(_.queries > 1).toLong
  def crawlQueries: Long      = log.iterator.filter(_.crawl).map(_.queries.toLong).sum
}

/** Request accountant: the log of the rounds a connection billed, appended
  * to only by [[WebDbConn]], plus the tuples its crawls retrieved.
  */
final class Accountant extends RoundLog {
  protected val log  = mutable.ArrayBuffer.empty[BilledRound]
  private val crawls = mutable.ArrayBuffer.empty[Int] // tuples retrieved by each crawl

  def crawlTuples: Long = crawls.iterator.map(_.toLong).sum

  private[webdb] def bill(round: BilledRound): Unit = log += round
  private[webdb] def crawled(tuples: Int): Unit     = crawls += tuples

  def snapshot: DbStats = DbStats(log.toVector, crawlTuples)

  /** The rounds billed and the tuples crawled after snapshot `prev`. */
  def since(prev: DbStats): DbStats =
    DbStats(log.view.drop(prev.log.size).toVector, crawlTuples - prev.crawlTuples)
}

/** Immutable snapshot of an [[Accountant]]. `simulatedMs` converts rounds
  * to wall-clock using the per-round-trip latency calibrated in DESIGN.md
  * §5 (the paper's 27 queries / 33 s Zillow data point → ~1.2 s).
  */
final case class DbStats(log: Vector[BilledRound], crawlTuples: Long) extends RoundLog {
  /** ⌈n/k⌉ for the n tuples crawled: the fewest top-k queries that could
    * have retrieved them.
    */
  def crawlLowerBound(k: Int): Long = (crawlTuples + k - 1) / k

  def sequentialRounds: Long = rounds - parallelRounds
  def parallelFraction: Double = if (rounds == 0) 0.0 else parallelRounds.toDouble / rounds
  /** Fraction of *queries* that travelled inside a parallel batch (Fig 2's
    * "more than 90% of queries were submitted in parallel").
    */
  def parallelQueryFraction: Double = {
    val par = batchSizes.filter(_ > 1).map(_.toLong).sum
    if (queries == 0) 0.0 else par.toDouble / queries
  }
  def simulatedMs: Long = rounds * DbStats.DefaultLatencyMs
}

object DbStats {
  /** Per-round-trip latency of the real web databases (DESIGN.md §5). */
  val DefaultLatencyMs: Long = 1200L
  val empty: DbStats = DbStats(Vector.empty, 0L)
}

/** Accounted connection to a web database. All algorithm code talks to the
  * database through this class; `batch` models one parallel round of
  * requests (QR2 issues independent queries concurrently — §II-B of the
  * paper), `topK` is a batch of one.
  *
  * The connection answers from its [[AnswerCache]] what the cache proves:
  * an exact memo answers repeated queries, and the [[CompleteRegions]] of
  * the billed responses that did not overflow and of the finished crawls,
  * and its indexed regions, answer the queries inside them: when at most k
  * region tuples match, they are the answer, with `overflow = false`,
  * exactly as the web database would return it. Otherwise the query is
  * sent: a crawled region lacks the hidden rank order. Before either, the
  * schema answers: a query that is unsatisfiable, or whose interval on some
  * attribute misses that attribute's advertised domain, matches no tuple
  * (the [[WebSchema]] contract), so its answer is the empty page. Local answers are not
  * billed; the accountant `acc` bills only the queries this connection
  * sends. Neither the cache nor the web database sees a vacuous
  * constraint ([[WebSchema.canonical]]): the full probe `(lo − 1, hi]` of
  * an ascending 1D search, `[lo, hi + 1)` of a descending one and an MD
  * root box are all "the filter alone", one memo key, billed once.
  *
  * A [[repro.service.Qr2Service]] gives every session's connection its one
  * cache, so a session reuses the answers every earlier session of the
  * service was billed for (QR2's shared cache, §II-B, extended from dense
  * regions to every proven answer). A connection built on its own keeps a
  * private, empty cache: it reuses only its own answers.
  */
final class WebDbConn(val db: WebDb, val acc: Accountant = new Accountant, val cache: AnswerCache = new AnswerCache) {
  def schema: WebSchema = db.schema
  def k: Int = db.k

  /** Number of distinct answers held by the cache's memo. */
  def memoSize: Int = cache.memoSize

  /** One sequential request (a round of size 1). */
  def topK(q: WebQuery): TopKResponse = batch(Seq(q)).head

  /** One parallel round of independent requests. Physical execution is
    * sequential in the simulator; the accountant records the round shape,
    * which is what the paper's Fig 2 measures. Only queries neither the
    * schema nor the cache answers are billed; a round of such local
    * answers issues no requests at all. The round returns the answers it
    * looked up or received, whatever other connections do to the cache
    * meanwhile.
    */
  def batch(qs: Seq[WebQuery], crawl: Boolean = false): Seq[TopKResponse] = {
    require(qs.nonEmpty, "empty batch")
    val canon    = qs.map(schema.canonical)
    val distinct = canon.distinct
    val answers  = cache.answers(distinct, k, knownEmpty)
    val misses   = distinct.filterNot(answers.contains)
    if (misses.nonEmpty) {
      acc.bill(BilledRound(misses.size, crawl))
      val received = misses.map(q => q -> db.rawTopK(q))
      cache.received(received)
      answers ++= received
    }
    canon.map(answers)
  }

  /** The answers to `qs` the schema and the cache give without a request,
    * if they answer every one of them.
    */
  def local(qs: Seq[WebQuery]): Option[Seq[TopKResponse]] = {
    val canon   = qs.map(schema.canonical)
    val answers = cache.answers(canon.distinct, k, knownEmpty)
    if (canon.forall(answers.contains)) Some(canon.map(answers)) else None
  }

  /** True when the schema shows `q` matches no tuple: `q` is unsatisfiable
    * or its interval on some attribute misses that attribute's domain.
    */
  private def knownEmpty(q: WebQuery): Boolean =
    q.unsatisfiable ||
      q.num.exists { case (a, iv) => schema.numDomains.get(a).exists(iv.intersect(_).isEmpty) }

  /** Every tuple matching `q`, if `q` was answered without overflow or
    * lies inside a complete or indexed region of the cache.
    */
  def content(q: WebQuery): Option[Vector[WebTuple]] = cache.content(schema.canonical(q))

  /** 1D: [[AnswerCache.coverageFrom]]. */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double): Option[CompleteRegions.Coverage] =
    cache.coverageFrom(base, attr, asc, lo, schema.numDomains(attr))

  /** Register a finished crawl, once: `q` with every tuple matching it,
    * among the cache's indexed regions when the crawl is `indexed`, among
    * its regions otherwise ([[AnswerCache.crawled]]).
    */
  def crawled(q: WebQuery, tuples: Vector[WebTuple], indexed: Boolean): Unit = {
    cache.crawled(schema.canonical(q), tuples, indexed)
    acc.crawled(tuples.size)
  }
}

object WebDbConn {
  /** Per-round parallelism cap: the QR2 web service's request thread pool
    * (DESIGN.md §7). Search rounds and crawl rounds both obey it.
    */
  val MaxPar = 8
}

/** Driver-side web database: the full table collected once, presorted by
  * (hidden system score, id). `rawTopK` is a linear scan in rank order with
  * early exit at k+1 matches — semantically identical to [[SparkWebDb]]
  * (a test proves the equivalence) but fast enough for large parameter
  * sweeps that issue tens of thousands of simulated requests.
  */
final class LocalWebDb(
    ranked: Vector[WebTuple],
    val schema: WebSchema,
    val k: Int,
) extends WebDb {

  /** Every tuple, in hidden-rank order — test/bench ground-truth only;
    * never handed to the reranking algorithms.
    */
  def allTuples: Vector[WebTuple] = ranked

  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val hits = ranked.iterator.filter(q.matches).take(k + 1).toVector
    TopKResponse(hits.take(k), overflow = hits.size > k)
  }
}

object LocalWebDb {

  /** Build from a generated DataFrame carrying the hidden
    * [[WebData.SysScoreCol]] score. Rank order is (hidden score asc, id asc)
    * — ties in the hidden score resolve deterministically so both backends
    * return identical pages.
    */
  def fromDataFrame(df: DataFrame, schema: WebSchema, k: Int): LocalWebDb = {
    val rows = df.orderBy(col(WebData.SysScoreCol).asc, col(schema.idCol).asc).collect().toVector
    new LocalWebDb(rows.map(r => SparkWebDb.rowToTuple(r, schema)), schema, k)
  }
}

/** DataFrame-backed web database: each search request is a Catalyst
  * pipeline `filter → orderBy(hidden score, id) → limit(k+1)` over the
  * cached table. This is the "real" substrate — the whole simulated web
  * site is a Spark query.
  */
final class SparkWebDb(df: DataFrame, val schema: WebSchema, val k: Int) extends WebDb {

  private val cached: DataFrame = df.cache()

  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val rows = cached
      .filter(SparkWebDb.queryToColumn(q))
      .orderBy(col(WebData.SysScoreCol).asc, col(schema.idCol).asc)
      .limit(k + 1)
      .collect()
    TopKResponse(rows.take(k).toVector.map(r => SparkWebDb.rowToTuple(r, schema)), rows.length > k)
  }
}

object SparkWebDb {

  /** Translate a [[WebQuery]] into a Catalyst filter Column. */
  def queryToColumn(q: WebQuery): Column = {
    val numConds = q.num.toSeq.flatMap { case (a, iv) =>
      Seq(if (iv.loIncl) col(a) >= lit(iv.lo) else col(a) > lit(iv.lo),
        if (iv.hiIncl) col(a) <= lit(iv.hi) else col(a) < lit(iv.hi))
    }
    val catConds = q.cat.toSeq.map { case (a, vs) => col(a).isin(vs.toSeq: _*) }
    (numConds ++ catConds).foldLeft(lit(true))(_ && _)
  }

  /** Project a result Row onto the public attributes of the schema. */
  def rowToTuple(r: Row, schema: WebSchema): WebTuple =
    WebTuple(
      id = r.getAs[Long](schema.idCol),
      num = schema.numeric.map(a => a -> r.getAs[Double](a)).toMap,
      cat = schema.categorical.map(a => a -> r.getAs[String](a)).toMap,
    )
}

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

/** Mutable request accountant — the paper's cost model.
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
final class Accountant {
  var queries: Long       = 0L
  var rounds: Long        = 0L
  var parallelRounds: Long = 0L
  var crawlQueries: Long  = 0L
  var crawlTuples: Long   = 0L
  val batchSizes: mutable.Buffer[Int] = mutable.Buffer.empty

  def snapshot: DbStats =
    DbStats(queries, rounds, parallelRounds, crawlQueries, batchSizes.toVector, crawlTuples)

  /** Difference accountant-style stats between two snapshots. */
  def since(prev: DbStats): DbStats =
    DbStats(
      queries - prev.queries,
      rounds - prev.rounds,
      parallelRounds - prev.parallelRounds,
      crawlQueries - prev.crawlQueries,
      batchSizes.toVector.drop(prev.batchSizes.size),
      crawlTuples - prev.crawlTuples,
    )
}

/** Immutable snapshot of an [[Accountant]]. `simulatedMs` converts rounds
  * to wall-clock using the per-round-trip latency calibrated in DESIGN.md
  * §5 (the paper's 27 queries / 33 s Zillow data point → ~1.2 s).
  */
final case class DbStats(
    queries: Long,
    rounds: Long,
    parallelRounds: Long,
    crawlQueries: Long,
    batchSizes: Vector[Int],
    crawlTuples: Long = 0L,
) {
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
  def simulatedMs(latencyMsPerRound: Long = DbStats.DefaultLatencyMs): Long =
    rounds * latencyMsPerRound
}

object DbStats {
  /** Per-round-trip latency of the real web databases (DESIGN.md §5). */
  val DefaultLatencyMs: Long = 1200L
  val empty: DbStats = DbStats(0, 0, 0, 0, Vector.empty)
}

/** Accounted connection to a web database. All algorithm code talks to the
  * database through this class; `batch` models one parallel round of
  * requests (QR2 issues independent queries concurrently — §II-B of the
  * paper), `topK` is a batch of one.
  *
  * The connection memoizes responses for its lifetime — QR2's *session
  * variable*: "used to store the tuples that are already seen … in order to
  * accelerate the query processing and subsequent get-next operations"
  * (§II-A). A repeated query is answered from the session cache and is not
  * billed (no request leaves the service); `memoize = false` disables the
  * cache where raw interface behaviour is wanted.
  */
final class WebDbConn(
    val db: WebDb,
    val acc: Accountant = new Accountant,
    val memoize: Boolean = true,
) {
  def schema: WebSchema = db.schema
  def k: Int = db.k

  private val memo = mutable.HashMap.empty[WebQuery, TopKResponse]

  /** Number of distinct responses held by the session cache. */
  def memoSize: Int = memo.size

  /** One sequential request (a round of size 1). */
  def topK(q: WebQuery, crawl: Boolean = false): TopKResponse =
    batch(Seq(q), crawl).head

  /** One parallel round of independent requests. Physical execution is
    * sequential in the simulator; the accountant records the round shape,
    * which is what the paper's Fig 2 measures. Only cache misses are
    * billed; a round of pure cache hits issues no requests at all.
    */
  def batch(qs: Seq[WebQuery], crawl: Boolean = false): Seq[TopKResponse] = {
    require(qs.nonEmpty, "empty batch")
    if (!memoize) {
      record(qs.size, crawl)
      return qs.map(db.rawTopK)
    }
    val misses = qs.distinct.filterNot(memo.contains)
    if (misses.nonEmpty) {
      record(misses.size, crawl)
      misses.foreach(q => memo.update(q, db.rawTopK(q)))
    }
    qs.map(memo)
  }

  private def record(n: Int, crawl: Boolean): Unit = {
    acc.rounds += 1
    if (n > 1) acc.parallelRounds += 1
    acc.queries += n
    if (crawl) acc.crawlQueries += n
    acc.batchSizes += n
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
    if (q.unsatisfiable) return TopKResponse(Vector.empty, overflow = false)
    val hits = new mutable.ArrayBuffer[WebTuple](k + 1)
    val it = ranked.iterator
    while (it.hasNext && hits.size <= k) {
      val t = it.next()
      if (q.matches(t)) hits += t
    }
    TopKResponse(hits.take(k).toVector, overflow = hits.size > k)
  }
}

object LocalWebDb {

  /** Build from a generated DataFrame carrying a hidden `sysCol` score.
    * Rank order is (sysCol asc, id asc) — ties in the hidden score resolve
    * deterministically so both backends return identical pages.
    */
  def fromDataFrame(
      df: DataFrame,
      schema: WebSchema,
      k: Int,
      sysCol: String = WebData.SysScoreCol,
  ): LocalWebDb = {
    val rows = df
      .orderBy(col(sysCol).asc, col(schema.idCol).asc)
      .collect()
      .toVector
    new LocalWebDb(rows.map(r => SparkWebDb.rowToTuple(r, schema)), schema, k)
  }
}

/** DataFrame-backed web database: each search request is a Catalyst
  * pipeline `filter → orderBy(hidden score, id) → limit(k+1)` over the
  * cached table. This is the "real" substrate — the whole simulated web
  * site is a Spark query.
  */
final class SparkWebDb(
    df: DataFrame,
    val schema: WebSchema,
    val k: Int,
    sysCol: String = WebData.SysScoreCol,
) extends WebDb {

  private val cached: DataFrame = df.cache()

  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    if (q.unsatisfiable) return TopKResponse(Vector.empty, overflow = false)
    val rows = cached
      .filter(SparkWebDb.queryToColumn(q))
      .orderBy(col(sysCol).asc, col(schema.idCol).asc)
      .limit(k + 1)
      .collect()
    TopKResponse(rows.take(k).toVector.map(r => SparkWebDb.rowToTuple(r, schema)), rows.length > k)
  }
}

object SparkWebDb {

  /** Translate a [[WebQuery]] into a Catalyst filter Column. */
  def queryToColumn(q: WebQuery): Column = {
    val numConds = q.num.toSeq.flatMap { case (a, iv) =>
      val loC = if (iv.loIncl) col(a) >= lit(iv.lo) else col(a) > lit(iv.lo)
      val hiC = if (iv.hiIncl) col(a) <= lit(iv.hi) else col(a) < lit(iv.hi)
      Seq(loC, hiC)
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

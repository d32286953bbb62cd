package repro.service

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.crawl.Crawler
import repro.webdb._

import scala.collection.concurrent.TrieMap
import scala.collection.mutable

/** How the user filled the ranking section of the UI (§II-C). */
sealed trait RankSpec {
  def attrs: Seq[String]
  /** The linear scoring function the spec denotes (1D ascending = +1). */
  def toLinear: LinearRanking
}

/** 1D ranking: attribute + direction, like a SQL ORDER BY. */
final case class OneDRank(attr: String, asc: Boolean = true) extends RankSpec {
  def attrs: Seq[String]      = Seq(attr)
  def toLinear: LinearRanking = LinearRanking.oneD(attr, asc)
}

/** MD ranking: slider weights in [-1, 1] per attribute; score is the dot
  * product with the min-max-normalized attribute values; lower is better.
  */
final case class MDRank(weights: Seq[(String, Double)]) extends RankSpec {
  def attrs: Seq[String]      = weights.map(_._1)
  def toLinear: LinearRanking = LinearRanking(weights)
}

/** Which get-next strategy serves the session. */
sealed trait Algo
object Algo {
  case object Baseline extends Algo
  case object Binary   extends Algo
  case object Rerank   extends Algo
  /** Threshold Algorithm (MD only; degenerates to RERANK in 1D). */
  case object TA extends Algo
  val all: Seq[Algo] = Seq(Baseline, Binary, Rerank, TA)
}

/** The QR2 third-party reranking service (Fig 1 of the paper): wraps one
  * web database, owns the answer cache every session reads and extends,
  * whose indexed regions are the dense-region ("MySQL") cache, seeded from
  * `seed`, and the min-max normalization bounds (discovered through the
  * 1D algorithm, as the paper prescribes), and opens per-user sessions
  * that answer get-next and get-page with any of the strategies.
  *
  * Lock order: the service's lock, then the cache's.
  */
final class Qr2Service(val db: WebDb, seed: DenseRegionStore = DenseRegionStore.empty) {

  /** Accountant for service-level bootstrap traffic (min/max discovery,
    * cache verification) — shared overhead, not billed to any session.
    * Only code holding the service's lock sends traffic through it.
    */
  val serviceAcc = new Accountant

  /** Every answer the service was billed for, every complete region
    * proven from them, by any session or by min/max discovery, and every
    * region indexed crawls fetched, starting from those of `seed` in
    * canonical form (a store built elsewhere, or loaded from disk). Each
    * session's connection reads and extends it, whatever its strategy; an
    * answer read from it bills nothing.
    */
  val cache = new AnswerCache(seed.canonical(db.schema))

  /** The dense-region cache as it stands: a snapshot of the cache's
    * indexed regions, to persist or to inspect.
    */
  def store: DenseRegionStore = cache.store

  private val minMaxCache = TrieMap.empty[String, (Double, Double)]

  /** True min/max of `attr`, discovered on first use via 1D-RERANK in each
    * direction ("obtaining the min and max values on each attribute is
    * simply doable using the 1D-RERANK algorithm", §II-B). Cached until
    * [[verifyCache]]; see [[minMaxes]].
    */
  def minMax(attr: String): (Double, Double) = minMaxes(Seq(attr))(attr)

  /** Min-max normalizer over the given ranking attributes. */
  def normalizer(attrs: Seq[String]): Normalizer = Normalizer(minMaxes(attrs))

  /** The bounds the service holds, by attribute. */
  def knownBounds: Map[String, (Double, Double)] = minMaxCache.readOnlySnapshot().toMap

  /** The bounds of `attrs`. Those not yet known are discovered together,
    * under the service's lock, so concurrent first uses discover each
    * attribute once; a failed discovery keeps no bound of any of them.
    */
  private def minMaxes(attrs: Seq[String]): Map[String, (Double, Double)] = {
    val known = attrs.flatMap(a => minMaxCache.get(a).map(a -> _)).toMap
    if (known.size == attrs.distinct.size) known
    else synchronized {
      minMaxCache ++= discoverMinMax(attrs.distinct.filterNot(minMaxCache.contains))
      attrs.map(a => a -> minMaxCache(a)).toMap
    }
  }

  /** Discovery runs only the key search, in each direction, on the whole
    * database: the normalizer needs the extreme values, not the tuples
    * sharing them. The 2m searches of `attrs` run in lockstep
    * ([[KeySearch.lockstep]]): each round carries the next probe of every
    * search still running, so discovery takes as many rounds as its longest
    * search, not the sum of them all. Billed to the service.
    */
  private def discoverMinMax(attrs: Seq[String]): Seq[(String, (Double, Double))] = {
    val conn   = new WebDbConn(db, serviceAcc, cache)
    val chains = for (a <- attrs; asc <- Seq(true, false)) yield new OneDRerank(conn, WebQuery.all, a, asc)
    val ends   = KeySearch.lockstep(conn, chains.map(_.firstValue)).zip(chains).map { case (v, c) =>
      v.getOrElse(throw new IllegalStateException(s"empty database: no extreme for ${c.attr}"))
    }
    attrs.indices.map(i => attrs(i) -> ((ends(2 * i), ends(2 * i + 1))))
  }

  /** Open a user session: filter predicates + ranking spec + strategy. */
  def newSession(base: WebQuery, spec: RankSpec, algo: Algo = Algo.Rerank): Qr2Session = {
    val acc  = new Accountant
    val conn = new WebDbConn(db, acc, cache)
    val impl: GetNexter = spec match {
      case OneDRank(a, asc) =>
        algo match {
          case Algo.Baseline          => new OneDBaseline(conn, base, a, asc)
          case Algo.Binary            => new OneDBinary(conn, base, a, asc)
          case Algo.Rerank | Algo.TA  => new OneDRerank(conn, base, a, asc)
        }
      case md @ MDRank(ws) =>
        val norm = normalizer(md.attrs)
        algo match {
          case Algo.Baseline => new MDBaseline(conn, base, LinearRanking(ws), norm)
          case Algo.Binary   => new MDBinary(conn, base, LinearRanking(ws), norm)
          case Algo.Rerank   => new MDRerank(conn, base, LinearRanking(ws), norm)
          case Algo.TA       => new MDTA(conn, base, LinearRanking(ws), norm)
        }
    }
    new Qr2Session(this, impl, acc, base, spec)
  }

  /** Boot-time cache verification (§II-B "before the system boots up we
    * verify the cache and update the changes from the web database"):
    * re-crawl every indexed region through a connection of its own, whose
    * private cache holds none of the service's answers, make the fresh
    * regions the cache's indexed regions while emptying the rest of it,
    * which may hold answers the database has since changed
    * ([[AnswerCache.reset]]), and forget the min/max bounds found from
    * those answers: the next use discovers them again. Returns the number
    * of regions refreshed.
    */
  def verifyCache(): Int = synchronized {
    val conn    = new WebDbConn(db, serviceAcc)
    val entries = store.allEntries
    cache.reset(DenseRegionStore(entries.map(e => e.copy(tuples = Crawler.crawlQuery(conn, e.box.toQuery())))))
    minMaxCache.clear()
    entries.size
  }
}

/** One user session: incremental get-next / get-page over the chosen
  * strategy, plus the statistics panel of the demo UI (query cost and
  * processing time — §II-C "Search results and statistics").
  */
final class Qr2Session(
    val service: Qr2Service,
    private val impl: GetNexter,
    private val acc: Accountant,
    val base: WebQuery,
    val spec: RankSpec,
) {

  private val results = mutable.Buffer.empty[WebTuple]

  /** Tuples already shown to this user, in rank order. */
  def seen: Vector[WebTuple] = results.toVector

  def getNext(): Option[WebTuple] = {
    val t = impl.getNext()
    t.foreach(results += _)
    t
  }

  /** The next page of `pageSize` results (the demo's get-next button). */
  def getPage(pageSize: Int): Vector[WebTuple] = {
    val page = impl.next(pageSize)
    results ++= page
    page
  }

  /** Session cost so far (the statistics panel numbers). */
  def stats: DbStats = acc.snapshot

  /** Boxes the session's branch-and-bound passed over without a query
    * ([[MDBranchAndBound.boxesPassed]]); 0 under every other strategy.
    */
  def boxesPassed: Long = impl match {
    case b: MDBranchAndBound => b.boxesPassed
    case _                   => 0L
  }

  /** Page-frontier boxes the session's MD-BASELINE drew into the idle
    * slots of its rounds ([[MDBaseline.boxesFilled]]); 0 under every other
    * strategy.
    */
  def boxesFilled: Long = impl match {
    case b: MDBaseline => b.boxesFilled
    case _             => 0L
  }

  /** Simulated processing time: rounds at `DbStats.DefaultLatencyMs` each. */
  def simulatedMs: Long = stats.simulatedMs

  /** The statistics panel string, e.g. `"27 queries, 33.0 s"`. */
  def statsPanel: String =
    f"${stats.queries} queries, ${simulatedMs / 1000.0}%.1f s"

  /** Present the discovered results as a re-ranked DataFrame (the search
    * results table of the UI, produced by the distributed re-rank operator).
    */
  def resultsAsDataFrame(spark: SparkSession): DataFrame = {
    val schema = service.db.schema
    val df     = Reranker.tuplesToDataFrame(spark, schema, seen)
    spec match {
      case md: MDRank =>
        Reranker.rerank(df, md.toLinear, service.normalizer(md.attrs), schema.idCol)
      case od: OneDRank =>
        // 1D order is normalization-invariant; normalize over the domain.
        Reranker.rerank(df, od.toLinear, Normalizer.fromDomains(schema, od.attrs), schema.idCol)
    }
  }
}

package repro

import org.apache.spark.sql.SparkSession
import repro.core.{LinearRanking, Normalizer}
import repro.webdb._

import scala.collection.concurrent.TrieMap

/** Shared, memoized test data: the synthetic web databases are deterministic
  * in (sf, seed), so one driver-side copy per configuration serves every
  * suite in the single test JVM.
  */
object TestFixtures {

  private val localCache = TrieMap.empty[(String, Double, Int), LocalWebDb]

  def diamonds(spark: SparkSession, sf: Double = 0.005, k: Int = 10): LocalWebDb =
    localCache.getOrElseUpdate(("diamonds", sf, k), WebData.diamondsLocal(spark, sf, k))

  def houses(spark: SparkSession, sf: Double = 0.005, k: Int = 10): LocalWebDb =
    localCache.getOrElseUpdate(("houses", sf, k), WebData.housesLocal(spark, sf, k))

  /** Connections in turn over one store, as sessions of services each
    * booted from the store the previous one left: each connection's
    * private cache is seeded with the indexed regions of the previous
    * connection's cache ([[AnswerCache.store]], read when the next
    * connection opens), the first with `store`.
    */
  def inTurnOverOneStore(db: WebDb, store: DenseRegionStore = DenseRegionStore.empty): Iterator[WebDbConn] =
    Iterator.iterate(new AnswerCache(store))(prev => new AnswerCache(prev.store)).map(c => new WebDbConn(db, cache = c))

  /** A store holding each region with the given tuples, in order. */
  def storeOf(regions: (Box, Seq[WebTuple])*): DenseRegionStore =
    DenseRegionStore(regions.map { case (b, ts) => DenseRegionStore.Entry(b, ts.toVector) }.toVector)

  /** Exhaustive ground truth: all matching tuples in (score, id) order —
    * what an omniscient service would return page by page.
    */
  def groundTruth(
      db: LocalWebDb,
      base: WebQuery,
      f: LinearRanking,
      norm: Normalizer,
  ): Vector[WebTuple] =
    db.allTuples
      .filter(base.matches)
      .map(t => (f.score(t, norm), t))
      .sortBy { case (s, t) => (s, t.id) }
      .map(_._2)

  /** Ground truth for a 1D order (normalization-invariant). */
  def groundTruth1D(db: LocalWebDb, base: WebQuery, attr: String, asc: Boolean): Vector[WebTuple] = {
    val f = LinearRanking.oneD(attr, asc)
    groundTruth(db, base, f, Normalizer.fromDomains(db.schema, Seq(attr)))
  }

  /** Data-true normalizer over the ranking attributes. */
  def trueNorm(db: LocalWebDb, attrs: Seq[String]): Normalizer =
    Normalizer.fromTuples(db.allTuples, attrs)
}

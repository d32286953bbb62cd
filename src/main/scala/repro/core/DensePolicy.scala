package repro.core

import repro.crawl.Crawler
import repro.service.DenseRegionStore
import repro.webdb._

/** How a search resolves a region that still overflows the top-k interface
  * once it is narrower than the search's give-up width. This is the one
  * decision in which BINARY and RERANK differ (Asudeh/Zhang/Das, VLDB'16,
  * ref [11] of the QR2 paper); the search loops themselves are shared.
  *
  *  - [[DensePolicy.Unindexed]] (BINARY, BASELINE) narrows to machine
  *    resolution, then crawls the region conditioned on the user filter and
  *    indexes nothing in the store; the filtered crawl stays in the
  *    connection's answer cache like any complete region.
  *  - [[DensePolicy.Indexed]] (RERANK, and TA's sorted-access iterators)
  *    gives up early, crawls the region *without* the user filter so the
  *    result serves every later filter, and adds it to the shared
  *    [[DenseRegionStore]].
  *
  * The policy is also the one place that decides which complete regions a
  * search reads: those of the connection's [[AnswerCache]] (in a service,
  * the one cache all its sessions share, whatever their strategy), and
  * under `Indexed` the store's as well.
  *
  * @param width1D give-up width of the 1D halving loop, as a fraction of the
  *                attribute's domain
  * @param widthMD give-up width of an MD box's widest dimension, relative to
  *                that dimension's domain
  * @param observedMin 1D: narrow an overflowing probe to its smallest
  *                returned key (RERANK's observed-min shortcut, a known
  *                matching bound at least as tight as the midpoint) instead
  *                of to the probe's own upper end, and prove later keys
  *                from the keys earlier probes returned
  *                ([[OneDHalving]]'s prefix round)
  * @param indexed the shared store this policy reads and extends, if any
  */
sealed abstract class DensePolicy(
    val width1D: Double,
    val widthMD: Double,
    val observedMin: Boolean,
    val indexed: Option[DenseRegionStore],
) {

  /** Every tuple matching `q`, when a complete region holds them. */
  final def content(conn: WebDbConn, q: WebQuery): Option[Vector[WebTuple]] =
    conn.content(q).orElse(indexed.flatMap(_.content(q)))

  /** 1D: the complete region reaching furthest beyond key `lo` of `attr`
    * ([[CompleteRegions.coverageFrom]]).
    */
  final def coverageFrom(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean, lo: Double)
      : Option[CompleteRegions.Coverage] =
    CompleteRegions.furthest(conn.coverageFrom(base, attr, asc, lo) ++
      indexed.flatMap(_.coverageFrom(base, attr, asc, lo, conn.schema.numDomains(attr))))

  /** 1D: the key interval to crawl when `(lo, hi]` is dense. */
  def sliver(lo: Double, hi: Double): Interval

  /** Crawl `region` and return every tuple in it matching `base`. */
  def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple]
}

object DensePolicy {

  case object Unindexed extends DensePolicy(width1D = 1e-7, widthMD = 1e-6, observedMin = false, indexed = None) {
    def sliver(lo: Double, hi: Double): Interval = Interval.openClosed(lo, hi)
    def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple] =
      Crawler.crawlQuery(conn, region.toQuery(base))
  }

  final case class Indexed(store: DenseRegionStore)
      extends DensePolicy(width1D = 1e-3, widthMD = 1e-2, observedMin = true, indexed = Some(store)) {

    /** Closed, so the indexed region covers the frontier `lo` and later
      * coverage lookups find it contiguous.
      */
    def sliver(lo: Double, hi: Double): Interval = Interval(lo, hi)

    def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple] = {
      val ts = Crawler.crawlQuery(conn, region.toQuery(WebQuery.all), Some(store))
      store.add(region, ts)
      ts.filter(base.matches)
    }
  }
}

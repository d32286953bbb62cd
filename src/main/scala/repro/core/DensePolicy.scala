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
  *    keeps nothing beyond the session.
  *  - [[DensePolicy.Indexed]] (RERANK, and TA's sorted-access iterators)
  *    gives up early, crawls the region *without* the user filter so the
  *    result serves every later filter, and adds it to the shared
  *    [[DenseRegionStore]], which it consults before sending a query.
  *
  * @param width1D give-up width of the 1D halving loop, as a fraction of the
  *                attribute's domain
  * @param widthMD give-up width of an MD box's widest dimension, relative to
  *                that dimension's domain
  * @param observedMin 1D: narrow an overflowing probe to its smallest
  *                returned key (RERANK's observed-min shortcut, a known
  *                matching bound at least as tight as the midpoint) instead
  *                of to the probe's own upper end
  */
sealed abstract class DensePolicy(val width1D: Double, val widthMD: Double, val observedMin: Boolean) {

  /** Every tuple of `region` matching `base`, when known without a query. */
  def lookup(base: WebQuery, region: Box): Option[Vector[WebTuple]]

  /** 1D: the indexed stretch of `attr` just beyond key `lo`, as
    * [[DenseRegionStore.coverageFrom]] reports it.
    */
  def coverageFrom(attr: String, asc: Boolean, lo: Double): Option[(Double, Boolean, Vector[WebTuple])]

  /** 1D: the key interval to crawl when `(lo, hi]` is dense. */
  def sliver(lo: Double, hi: Double): Interval

  /** Crawl `region` and return every tuple in it matching `base`. */
  def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple]
}

object DensePolicy {

  case object Unindexed extends DensePolicy(width1D = 1e-7, widthMD = 1e-6, observedMin = false) {
    def lookup(base: WebQuery, region: Box): Option[Vector[WebTuple]] = None
    def coverageFrom(attr: String, asc: Boolean, lo: Double): Option[(Double, Boolean, Vector[WebTuple])] =
      None
    def sliver(lo: Double, hi: Double): Interval = Interval.openClosed(lo, hi)
    def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple] =
      Crawler.crawlQuery(conn, region.toQuery(base))
  }

  final case class Indexed(store: DenseRegionStore)
      extends DensePolicy(width1D = 1e-3, widthMD = 1e-2, observedMin = true) {

    def lookup(base: WebQuery, region: Box): Option[Vector[WebTuple]] =
      store.lookupBox(region).map(_.filter(t => region.contains(t) && base.matches(t)))

    def coverageFrom(attr: String, asc: Boolean, lo: Double): Option[(Double, Boolean, Vector[WebTuple])] =
      store.coverageFrom(attr, asc, lo)

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

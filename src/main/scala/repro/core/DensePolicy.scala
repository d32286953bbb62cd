package repro.core

import repro.crawl.Crawler
import repro.webdb._

/** How a search resolves a region that still overflows the top-k interface
  * once it is narrower than the search's give-up width. This is the one
  * decision in which BINARY and RERANK differ (Asudeh/Zhang/Das, VLDB'16,
  * ref [11] of the QR2 paper); the search loops themselves are shared.
  *
  *  - [[DensePolicy.Unindexed]] (BINARY, BASELINE) narrows to machine
  *    resolution, then crawls the region conditioned on the user filter;
  *    the filtered crawl joins the regions of the connection's
  *    [[AnswerCache]] like any complete region.
  *  - [[DensePolicy.Indexed]] (RERANK, and TA's sorted-access iterators)
  *    gives up early, crawls the region *without* the user filter so the
  *    result serves every later filter, and indexes it among the indexed
  *    regions of the connection's cache.
  *
  * The policy does not decide which complete regions a search reads: every
  * strategy reads the connection's cache ([[WebDbConn.content]],
  * [[WebDbConn.coverageFrom]]), indexed regions included.
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
  */
sealed abstract class DensePolicy(val width1D: Double, val widthMD: Double, val observedMin: Boolean) {

  /** 1D: the key interval to crawl when `(lo, hi]` is dense. */
  def sliver(lo: Double, hi: Double): Interval

  /** Crawl `region` and return every tuple in it matching `base`. */
  def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple]
}

object DensePolicy {

  case object Unindexed extends DensePolicy(width1D = 1e-7, widthMD = 1e-6, observedMin = false) {
    def sliver(lo: Double, hi: Double): Interval = Interval.openClosed(lo, hi)
    def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple] =
      Crawler.crawlQuery(conn, region.toQuery(base))
  }

  case object Indexed extends DensePolicy(width1D = 1e-3, widthMD = 1e-2, observedMin = true) {

    /** Closed, so the indexed region covers the frontier `lo` and later
      * coverage lookups find it contiguous.
      */
    def sliver(lo: Double, hi: Double): Interval = Interval(lo, hi)

    def crawl(conn: WebDbConn, base: WebQuery, region: Box): Vector[WebTuple] =
      Crawler.crawlQuery(conn, region.toQuery(WebQuery.all), indexed = true).filter(base.matches)
  }
}

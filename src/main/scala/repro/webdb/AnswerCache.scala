package repro.webdb

import scala.collection.mutable

/** The answers a web database has given, kept for reuse: an exact memo of
  * every response, the [[CompleteRegions]] proven from them (responses
  * that did not overflow, and finished crawls), and, as its indexed tier,
  * the [[DenseRegionStore]] of the regions indexed crawls fetched. Lookups
  * read the memo, then the regions, then the store. A hidden database's
  * answer depends only on the query, so every connection sharing a cache
  * reuses every answer any of them was billed for. A
  * [[repro.service.Qr2Service]] hands its one cache, over its store, to
  * every session and to min/max discovery; a [[WebDbConn]] built on its
  * own keeps a private cache over a fresh store.
  *
  * Lookups and inserts run under the cache's lock, which they hold while
  * they take the store's; requests to the web database run outside it, so
  * two connections that miss the same query at once may both send it.
  */
final class AnswerCache(val store: DenseRegionStore = new DenseRegionStore) {
  private val memo    = mutable.HashMap.empty[WebQuery, TopKResponse]
  private val regions = new CompleteRegions

  /** Number of distinct answers held by the memo. */
  def memoSize: Int = synchronized(memo.size)

  /** The answers the cache gives to `qs` without a request: the memo's,
    * the empty page for each query `knownEmpty` holds, and the matches of a
    * complete region holding at most `k` of them. The last two are added
    * to the memo.
    */
  private[webdb] def answers(qs: Seq[WebQuery], k: Int, knownEmpty: WebQuery => Boolean)
      : mutable.Map[WebQuery, TopKResponse] = synchronized {
    val out = mutable.HashMap.empty[WebQuery, TopKResponse]
    for (q <- qs) memo.get(q).orElse {
      val local = if (knownEmpty(q)) Some(Vector.empty) else inRegion(q).filter(_.size <= k)
      local.map { ts =>
        val res = TopKResponse(ts, overflow = false)
        memo.update(q, res)
        res
      }
    }.foreach(out.update(q, _))
    out
  }

  /** Keep billed responses; each one that did not overflow becomes a
    * complete region.
    */
  private[webdb] def received(rs: Seq[(WebQuery, TopKResponse)]): Unit = synchronized {
    rs.foreach { case (q, res) =>
      memo.update(q, res)
      if (!res.overflow) regions.add(q, res.tuples.toVector)
    }
  }

  /** Register a finished crawl, once: `q` with every tuple matching it.
    * The store holds boxes: an indexed crawl of a box is kept there, and
    * any other crawl joins the regions.
    */
  def crawled(q: WebQuery, tuples: Vector[WebTuple], indexed: Boolean): Unit =
    if (indexed && q.cat.isEmpty) store.add(Box(q.num), tuples) else synchronized(regions.add(q, tuples))

  /** Every tuple matching `q`, if `q` was answered without overflow or
    * lies inside a complete region of the cache or the store.
    */
  def content(q: WebQuery): Option[Vector[WebTuple]] = synchronized {
    memo.get(q).filterNot(_.overflow).map(_.tuples.toVector).orElse(inRegion(q))
  }

  /** 1D: [[CompleteRegions.coverageFrom]] over the regions and the store. */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double, domain: Interval)
      : Option[CompleteRegions.Coverage] = synchronized {
    CompleteRegions.furthest(regions.coverageFrom(base, attr, asc, lo, domain) ++
      store.coverageFrom(base, attr, asc, lo, domain))
  }

  /** Forget every answer of the memo and the regions, for when the
    * database may have changed. The store is left as it is: boot-time
    * verification ([[repro.service.Qr2Service.verifyCache]]) re-crawls it.
    */
  def clear(): Unit = synchronized {
    memo.clear()
    regions.clear()
  }

  /** The tuples matching `q` of a region holding it, else of a stored one. */
  private def inRegion(q: WebQuery): Option[Vector[WebTuple]] = regions.content(q).orElse(store.content(q))
}

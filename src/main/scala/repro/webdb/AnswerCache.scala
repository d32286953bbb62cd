package repro.webdb

import scala.collection.mutable

/** The answers a web database has given, kept for reuse: an exact memo of
  * every response, the [[CompleteRegions]] proven from them (responses
  * that did not overflow, and finished crawls), and the indexed regions:
  * the boxes indexed crawls fetched, QR2's dense-region cache, seeded from
  * a [[DenseRegionStore]] and read back as one ([[store]]). Lookups read
  * the memo, then the regions, then the indexed regions. A hidden
  * database's answer depends only on the query, so every connection
  * sharing a cache reuses every answer any of them was billed for. A
  * [[repro.service.Qr2Service]] hands its one cache to every session and
  * to min/max discovery; a [[WebDbConn]] built on its own keeps a private,
  * empty cache.
  *
  * Lookups and inserts run under the cache's one lock; requests to the web
  * database run outside it, so two connections that miss the same query at
  * once may both send it.
  */
final class AnswerCache(seed: DenseRegionStore = DenseRegionStore.empty) {
  private val memo    = mutable.HashMap.empty[WebQuery, TopKResponse]
  private val regions = new CompleteRegions
  private val indexed = new CompleteRegions
  reset(seed)

  /** Number of distinct answers held by the memo. */
  def memoSize: Int = synchronized(memo.size)

  /** The indexed regions as they stand, in the order they were indexed. */
  def store: DenseRegionStore = DenseRegionStore(synchronized(indexed.all).map { case (q, ts) =>
    DenseRegionStore.Entry(Box(q.num), ts)
  })

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

  /** Register a finished crawl, once: `q` with every tuple matching it. An
    * indexed crawl joins the indexed regions, which are boxes; any other
    * crawl joins the regions.
    */
  def crawled(q: WebQuery, tuples: Vector[WebTuple], indexed: Boolean): Unit = synchronized {
    require(!indexed || q.cat.isEmpty, s"an indexed region is a box: $q")
    (if (indexed) this.indexed else regions).add(q, tuples)
  }

  /** Every tuple matching `q`, if `q` was answered without overflow or
    * lies inside a complete or indexed region.
    */
  def content(q: WebQuery): Option[Vector[WebTuple]] = synchronized {
    memo.get(q).filterNot(_.overflow).map(_.tuples.toVector).orElse(inRegion(q))
  }

  /** 1D: [[CompleteRegions.coverageFrom]] over the regions and the indexed
    * regions.
    */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double, domain: Interval)
      : Option[CompleteRegions.Coverage] = synchronized {
    CompleteRegions.furthest(regions.coverageFrom(base, attr, asc, lo, domain) ++
      indexed.coverageFrom(base, attr, asc, lo, domain))
  }

  /** [[CompleteRegions.content]] over the indexed regions alone: what an
    * indexed crawl reads of a sub-query instead of sending it.
    */
  def stored(q: WebQuery): Option[Vector[WebTuple]] = synchronized(indexed.content(q))

  /** [[CompleteRegions.cut]] over the indexed regions alone: a region
    * holding more than `k` of `q`'s tuples, which an indexed crawl reads
    * instead of crawling that part of `q`.
    */
  def cut(q: WebQuery, k: Int): Option[CompleteRegions.Cut] = synchronized(indexed.cut(q, k))

  /** Make `fresh` the indexed regions and forget every answer of the memo
    * and the regions, in one step, for when the database may have changed
    * (boot-time verification, [[repro.service.Qr2Service.verifyCache]]).
    */
  def reset(fresh: DenseRegionStore): Unit = synchronized {
    memo.clear()
    regions.clear()
    indexed.clear()
    fresh.entries.foreach(e => indexed.add(e.box.toQuery(), e.tuples))
  }

  /** The tuples matching `q` of a region holding it, else of an indexed one. */
  private def inRegion(q: WebQuery): Option[Vector[WebTuple]] = regions.content(q).orElse(indexed.content(q))
}

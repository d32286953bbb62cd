package repro.webdb

import scala.collection.mutable

/** The answers a web database has given, kept for reuse: an exact memo of
  * every response and the [[CompleteRegions]] proven from them (responses
  * that did not overflow, and finished crawls). A hidden database's answer
  * depends only on the query, so every connection sharing a cache reuses
  * every answer any of them was billed for. A [[repro.service.Qr2Service]]
  * hands its one cache to every session and to min/max discovery; a
  * [[WebDbConn]] built on its own keeps a private cache.
  *
  * Lookups and inserts run under the cache's lock; requests to the web
  * database run outside it, so two connections that miss the same query at
  * once may both send it.
  */
final class AnswerCache {
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
      val local = if (knownEmpty(q)) Some(Vector.empty) else regions.content(q).filter(_.size <= k)
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

  /** Register a finished crawl: `q` with every tuple matching it. */
  def crawled(q: WebQuery, tuples: Vector[WebTuple]): Unit = synchronized(regions.add(q, tuples))

  /** Every tuple matching `q`, if `q` was answered without overflow or
    * lies inside a complete region.
    */
  def content(q: WebQuery): Option[Vector[WebTuple]] = synchronized {
    memo.get(q).filterNot(_.overflow).map(_.tuples.toVector).orElse(regions.content(q))
  }

  /** 1D: [[CompleteRegions.coverageFrom]] over the cache's regions. */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double, domain: Interval)
      : Option[CompleteRegions.Coverage] =
    synchronized(regions.coverageFrom(base, attr, asc, lo, domain))

  /** Forget every answer, for when the database may have changed. */
  def clear(): Unit = synchronized {
    memo.clear()
    regions.clear()
  }
}

package repro.crawl

import repro.webdb._

import scala.collection.mutable

/** Hidden-database crawler — reimplementation of the technique of
  * Sheng et al., "Optimal algorithms for crawling a hidden database in the
  * web" (VLDB 2012), reference [8] of the QR2 paper.
  *
  * Given a conjunctive query whose answer overflows the top-k interface,
  * the crawler retrieves *every* matching tuple by recursively partitioning
  * the query region on the attributes of the public interface until no
  * sub-query overflows. An overflowing query is split by, in order of
  * preference:
  *
  *  1. *rank-shrink*: the median of the tuples the query returned, on the
  *     numeric attribute whose returned values spread widest relative to
  *     the query's interval. The cut leaves at least one returned tuple on
  *     each side, so both children match strictly fewer tuples than their
  *     parent and every overflowing query makes progress. Choosing by
  *     spread avoids the attribute the hidden ranking follows: there the
  *     returned values bunch at one end of the interval, and a split would
  *     only peel off about k/2 tuples;
  *  2. the midpoint of the widest (domain-normalized) numeric interval,
  *     when the returned tuples agree on every numeric attribute;
  *  3. when every numeric constraint has collapsed to a point, halving a
  *     categorical attribute's value set;
  *  4. when every attribute is fully pinned and the query still overflows,
  *     the database holds more than k fully-identical tuples and crawling
  *     is impossible through the public interface — the simulator's
  *     generators guarantee this never happens.
  *
  * QR2 invokes the crawler for (a) the *general positioning* fix — more
  * than system-k tuples sharing one attribute value — and (b) dense-region
  * indexing in the RERANK algorithms. Pending sub-queries are independent:
  * one frontier queue sends up to [[WebDbConn.MaxPar]] of them per parallel round,
  * contributing to the parallel-iteration counts of Fig 2. In an indexed
  * crawl, a sub-query lying inside an indexed region of the connection's
  * cache is answered from that region and not sent. A sub-query an
  * indexed region *cuts* ([[CompleteRegions.cut]]: the region holds it on
  * every attribute but one, and more than k of its tuples) is split at the
  * region's bounds on that attribute, the probe/remainder split of Dar et
  * al. (VLDB'96): the part inside is read from the region and only the
  * remainder pieces are crawled. So a crawl through an indexed spike pays
  * for the tuples around it, not for the spike again.
  */
object Crawler {

  /** Retrieve every tuple matching `q`. Queries, and the tuples
    * retrieved, are tagged as crawl traffic in the connection's accountant,
    * and `q` with its tuples is registered once ([[WebDbConn.crawled]]):
    * among the indexed regions of the connection's cache when the crawl is
    * `indexed`, among its regions otherwise. Only an indexed crawl reads
    * the indexed regions ([[AnswerCache.stored]], [[AnswerCache.cut]]):
    * sub-queries contained in one are answered from it at no cost, and
    * those one cuts are crawled only outside it.
    *
    * @throws IllegalStateException if the region cannot be partitioned
    *         further yet still overflows (more than k identical tuples).
    * @throws IllegalArgumentException if an indexed crawl's `q` constrains
    *         a categorical attribute: an indexed region is a box.
    */
  def crawlQuery(conn: WebDbConn, q: WebQuery, indexed: Boolean = false): Vector[WebTuple] = {
    val schema   = conn.schema
    val cache    = Option.when(indexed)(conn.cache)
    val out      = mutable.LinkedHashMap.empty[Long, WebTuple]
    val frontier = mutable.Queue(q)
    while (frontier.nonEmpty) {
      val round = mutable.Buffer.empty[WebQuery]
      while (frontier.nonEmpty && round.size < WebDbConn.MaxPar) {
        val sub = frontier.dequeue()
        cache.flatMap(_.stored(sub)) match {
          case Some(ts) => ts.foreach(t => out.update(t.id, t))
          case None =>
            cache.flatMap(_.cut(sub, conn.k)) match {
              case Some((a, iv, ts)) =>
                ts.foreach(t => out.update(t.id, t))
                frontier.prependAll(schema.outside(sub, a, iv))
              case None => round += sub
            }
        }
      }
      if (round.nonEmpty) {
        val responses = conn.batch(round.toSeq, crawl = true)
        round.lazyZip(responses).foreach { (sub, res) =>
          res.tuples.foreach(t => out.update(t.id, t))
          if (res.overflow) frontier ++= partition(schema, sub, res.tuples)
        }
      }
    }
    val all = out.values.toVector
    conn.crawled(q, all, indexed)
    all
  }

  /** Split an overflowing query, which returned `returned`, into two
    * disjoint sub-queries covering it.
    */
  private[crawl] def partition(schema: WebSchema, q: WebQuery, returned: Seq[WebTuple]): Seq[WebQuery] = {
    def interval(a: String): Interval = q.num.getOrElse(a, schema.numDomains(a))
    def cut(a: String, c: Double): Seq[WebQuery] = {
      val iv = interval(a)
      Seq(q.and(a, iv.copy(hi = c, hiIncl = true)), q.and(a, iv.copy(lo = c, loIncl = false)))
    }

    // Rank-shrink: widest returned spread relative to the query's interval.
    val spread = schema.numeric.flatMap { a =>
      val vs = returned.map(_.num(a))
      if (vs.max == vs.min) None
      else Some((a, (vs.max - vs.min) / interval(a).width))
    }
    if (spread.nonEmpty) {
      val a      = spread.maxBy(_._2)._1
      val sorted = returned.map(_.num(a)).sorted
      val median = sorted((sorted.size - 1) / 2)
      // The cut keeps `≤ c` left and `> c` right; never cut at the maximum.
      val c = if (median < sorted.last) median else sorted.filter(_ < sorted.last).last
      return cut(a, c)
    }
    // Returned tuples agree on every numeric attribute — midpoint split of
    // the widest splittable interval, width measured relative to the
    // advertised domain so heterogeneous scales compare fairly.
    val numeric = schema.numeric
      .map(a => (a, interval(a).width / math.max(schema.numDomains(a).width, 1e-12)))
      .filter(_._2 > 0)
    if (numeric.nonEmpty) {
      val a = numeric.maxBy(_._2)._1
      return cut(a, interval(a).mid)
    }
    // All numeric constraints are points — partition a categorical facet.
    val cats = schema.categorical
      .map(a => a -> q.cat.getOrElse(a, schema.catDomains(a).toSet))
      .filter(_._2.size > 1)
    cats.headOption match {
      case Some((a, vs)) =>
        val sorted     = vs.toSeq.sorted
        val (lhs, rhs) = sorted.splitAt(sorted.size / 2)
        Seq(q.andCat(a, lhs.toSet), q.andCat(a, rhs.toSet))
      case None =>
        throw new IllegalStateException(
          s"cannot crawl: query fully pinned but still overflows (>k identical tuples): $q")
    }
  }
}

package repro.core

import repro.service.DenseRegionStore
import repro.webdb._

import scala.collection.mutable

/** Shared skeleton of the three 1D get-next strategies.
  *
  * A get-next first drains the *pending tie group* — all tuples sharing the
  * current attribute value. When the group is exhausted the strategy-specific
  * [[findNextKey]] locates the next distinct attribute value with at least
  * one matching tuple, and [[materializeGroup]] fetches the full value group
  * (via one top-k query, or — when more than system-k tuples share the value,
  * the paper's *general positioning* problem — via the crawler, as the
  * [[DensePolicy]] directs).
  *
  * All strategies search in key space (`κ = +A` ascending, `κ = −A`
  * descending) so one implementation serves both slider directions.
  */
abstract class OneDAlgorithm(
    val conn: WebDbConn,
    val base: WebQuery,
    val attr: String,
    val asc: Boolean,
    policy: DensePolicy,
) extends GetNexter {

  protected val ks: KeySpace = KeySpace(attr, asc, conn.schema.numDomains(attr))

  private val pending            = mutable.Queue.empty[WebTuple]
  private var frontier: Option[Double] = None // key of the current value group
  private var exhausted          = false

  final def getNext(): Option[WebTuple] = {
    if (pending.nonEmpty) return Some(pending.dequeue())
    if (exhausted) return None
    findNextKey(frontier) match {
      case None => exhausted = true; None
      case Some(kv) =>
        val v     = ks.raw(kv)
        val group = materializeGroup(v).sortBy(_.id)
        require(group.nonEmpty, s"findNextKey returned key $kv with no matching tuple ($attr=$v)")
        pending ++= group
        frontier = Some(kv)
        getNext()
    }
  }

  /** Key of the next distinct matching attribute value strictly beyond the
    * frontier (`None` once no further value exists). Strategy-specific.
    */
  protected def findNextKey(frontierKey: Option[Double]): Option[Double]

  /** The best matching attribute value (the minimum ascending, the maximum
    * descending), found by the key search alone: the value's tie group is
    * not fetched. This is all min/max discovery needs. Called on a fresh
    * searcher it sends no prefix round ([[OneDHalving]]): nothing is seen
    * yet, and a prefix round would prove values after the first, which
    * discovery never asks for.
    */
  final def firstValue(): Option[Double] = findNextKey(None).map(ks.raw)

  /** All matching tuples with `attr = v`. Overflowing value groups are
    * crawled — the QR2 fix for >k tuples sharing a value. A group inside a
    * complete region the policy reads ([[DensePolicy.content]]) is read
    * from it. A value group is a dense region too: under
    * [[DensePolicy.Indexed]] it is indexed when crawled.
    */
  private def materializeGroup(v: Double): Vector[WebTuple] = {
    val group = Box(Map(attr -> Interval.point(v)))
    policy.content(conn, group.toQuery(base)).getOrElse {
      val res = conn.topK(group.toQuery(base))
      if (!res.overflow) res.tuples.toVector else policy.crawl(conn, base, group)
    }
  }

  /** Exclusive lower search bound in key space: the frontier, or just below
    * the advertised domain on the first call.
    */
  protected final def startKey(frontierKey: Option[Double]): Double =
    frontierKey.getOrElse(ks.keyDomain.lo - 1.0)

  /** Width of the key domain (for relative density thresholds). */
  protected final def domainWidth: Double = math.max(ks.keyDomain.width, 1e-12)

  /** (key, id) of every tuple a probe returned, for the searcher's
    * lifetime, when the policy narrows to observed keys
    * ([[DensePolicy.observedMin]]): each is a known matching key.
    */
  private val seen = mutable.TreeSet.empty[(Double, Long)]

  /** The seen keys beyond `lo`, ascending, one per seen tuple. */
  protected final def seenBeyond(lo: Double): Iterator[Double] =
    seen.iteratorFrom((lo, Long.MaxValue)).map(_._1).dropWhile(_ <= lo)

  /** Probe `base ∧ attr ∈ raw(kIv)` for every key interval, in one round
    * through the accounted connection.
    */
  protected final def probes(kIvs: Seq[Interval]): Seq[TopKResponse] = {
    val rs = conn.batch(kIvs.map(kIv => base.and(attr, ks.toRaw(kIv))))
    if (policy.observedMin) for (r <- rs; t <- r.tuples) seen += ((ks.key(t.num(attr)), t.id))
    rs
  }

  protected final def probe(kIv: Interval): TopKResponse = probes(Seq(kIv)).head

  protected final def minKey(res: TopKResponse): Double =
    res.tuples.iterator.map(t => ks.key(t.num(attr))).min
}

/** 1D-BASELINE — query the whole remaining interval and narrow the upper
  * bound to the smallest returned value until the query no longer
  * overflows. Cheap when the hidden system ranking is positively correlated
  * with the requested order (the first pages already contain the smallest
  * values); O(#distinct values) queries when anti-correlated. It reads no
  * coverage from complete regions: that shortcut is the halving loop's.
  */
final class OneDBaseline(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean)
    extends OneDAlgorithm(conn, base, attr, asc, DensePolicy.Unindexed) {

  protected def findNextKey(frontierKey: Option[Double]): Option[Double] = {
    val lo                     = startKey(frontierKey)
    var cand: Option[Double]   = None // smallest *matching* key seen so far
    while (true) {
      val iv = cand match {
        case Some(c) => Interval(lo, c, loIncl = false, hiIncl = false)
        case None    => Interval(lo, ks.keyDomain.hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl)
      }
      if (iv.isEmpty) return cand
      val res = probe(iv)
      if (res.isEmpty) return cand
      val mk = minKey(res)
      if (!res.overflow) return Some(mk)
      cand = Some(mk) // strictly decreases: the probe interval excluded the old cand
    }
    sys.error("unreachable")
  }
}

/** 1D-BINARY and 1D-RERANK — one halving search of the key interval
  * `(lo, hi]`: probe the left half; empty → move right, no overflow →
  * answer, overflow → recurse left. A complete region the policy reads
  * ([[DensePolicy.coverageFrom]]) that covers the frontier answers first,
  * or is skipped.
  * The [[DensePolicy]] decides the rest:
  *
  *  - [[DensePolicy.Unindexed]] (BINARY) narrows an overflowing probe to
  *    its midpoint, all the way down to machine resolution, and then crawls
  *    the remaining sliver. Insensitive to the correlation between user and
  *    system ranking, but it pays many probes in a dense region;
  *  - [[DensePolicy.Indexed]] (RERANK) narrows to the smallest value an
  *    overflowing probe returned (the observed-min shortcut), crawls and
  *    indexes the sliver once it is narrower than the policy's give-up
  *    width, and answers from — or skips past — indexed stretches at no
  *    web-DB cost. It also proves the next key from the tuples already
  *    seen, as below.
  *
  * Every key a probe returned is a matching key, and under `Indexed` the
  * search keeps them for its lifetime (QR2's session variable keeps "the
  * tuples that are already seen", §II-A). With seen keys beyond `lo`, the
  * full probe `(lo, max]` gives way to one parallel round of prefixes
  * `(lo, c]` ending at seen keys ([[prefixEnds]]). The widest prefix that
  * does not overflow holds every tuple of its stretch, so its smallest key
  * is the answer; the connection keeps it as a complete region, which
  * answers the following get-nexts and value groups unbilled. When every
  * prefix overflows, the halving starts below the smallest seen key, after
  * one more prefix probe if the round returned a key below its narrowest
  * end. With no seen key beyond `lo`, the search starts with the full
  * probe.
  */
class OneDHalving(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean, policy: DensePolicy)
    extends OneDAlgorithm(conn, base, attr, asc, policy) {

  protected def findNextKey(frontierKey: Option[Double]): Option[Double] = {
    var lo = startKey(frontierKey)

    // Answer from, or skip past, contiguous coverage: the furthest-reaching
    // complete region of the answer cache or the store beyond `lo`.
    var covered = true
    while (covered) policy.coverageFrom(conn, base, attr, asc, lo) match {
      case Some((covEnd, covIncl, ts)) =>
        val cand = ts.iterator.filter(base.matches).map(t => ks.key(t.num(attr))).filter(_ > lo).minOption
        if (cand.isDefined) return cand
        // The stretch is empty under this filter. An open end leaves `covEnd`
        // itself uncovered: probe it before skipping.
        if (!covIncl && !probe(Interval.point(covEnd)).isEmpty) return Some(covEnd)
        lo = covEnd
      case None => covered = false
    }

    var hi   = ks.keyDomain.hi
    val full = Interval(lo, hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl)
    if (full.isEmpty) return None
    if (seenBeyond(lo).hasNext) {
      // A seen key beyond `lo` is a matching bound, so the full probe is
      // moot: prove the answer from a prefix, or halve below the smallest
      // seen key.
      val ends = prefixEnds(lo)
      if (ends.nonEmpty) {
        probes(ends.map(Interval.openClosed(lo, _))).find(!_.overflow).foreach(r => return Some(minKey(r)))
        // The round returned a key below its narrowest end: one more prefix.
        val c = seenBeyond(lo).next()
        if (c < ends.last) {
          val res = probe(Interval.openClosed(lo, c))
          if (!res.overflow) return Some(minKey(res))
        }
      }
      hi = seenBeyond(lo).next()
    } else {
      val first = probe(full)
      if (first.isEmpty) return None
      if (!first.overflow) return Some(minKey(first))
      if (policy.observedMin) hi = minKey(first)
    }
    // Invariant: (lo, hi] contains at least one matching tuple — with the
    // observed-min shortcut, `hi` itself is a matching key.
    while (true) {
      if (hi - lo <= policy.width1D * domainWidth) {
        if (policy.observedMin) {
          // Cheap resolution attempt before declaring the sliver dense.
          val open = Interval.open(lo, hi)
          if (open.isEmpty) return Some(hi)
          val res = probe(open)
          if (res.isEmpty) return Some(hi)
          if (!res.overflow) return Some(minKey(res))
          hi = minKey(res)
        }
        val ts = policy.crawl(conn, base, Box(Map(attr -> ks.toRaw(policy.sliver(lo, hi)))))
        return Some(ts.iterator.map(t => ks.key(t.num(attr))).filter(_ > lo).min)
      }
      val mid = lo + (hi - lo) / 2
      val res = probe(Interval.openClosed(lo, mid))
      if (res.isEmpty) lo = mid
      else if (!res.overflow) return Some(minKey(res))
      else hi = if (policy.observedMin) minKey(res) else mid
    }
    sys.error("unreachable")
  }

  /** Ends of the prefixes to probe beyond `lo`, widest first: of the
    * distinct seen keys `c_1 < … < c_m` holding at most k seen tuples,
    * `c_m`, `c_⌈m/2⌉` and `c_1`. A prefix holding more than k seen tuples
    * overflows for sure and is not sent.
    */
  private def prefixEnds(lo: Double): Seq[Double] = {
    val keys = seenBeyond(lo).take(conn.k + 1).toVector
    val cs   = (if (keys.size > conn.k) keys.takeWhile(_ < keys.last) else keys).distinct
    if (cs.isEmpty) Nil else Seq(cs.last, cs((cs.size + 1) / 2 - 1), cs.head).distinct
  }
}

/** 1D-BINARY: the halving loop under [[DensePolicy.Unindexed]]. */
final class OneDBinary(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean)
    extends OneDHalving(conn, base, attr, asc, DensePolicy.Unindexed)

/** 1D-RERANK: the halving loop under [[DensePolicy.Indexed]] on `store`. */
final class OneDRerank(
    conn: WebDbConn,
    base: WebQuery,
    attr: String,
    asc: Boolean,
    store: DenseRegionStore = new DenseRegionStore,
) extends OneDHalving(conn, base, attr, asc, DensePolicy.Indexed(store))

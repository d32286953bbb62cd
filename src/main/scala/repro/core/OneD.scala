package repro.core

import repro.crawl.Crawler
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
  * the paper's *general positioning* problem — via the [[Crawler]]).
  *
  * All strategies search in key space (`κ = +A` ascending, `κ = −A`
  * descending) so one implementation serves both slider directions.
  */
abstract class OneDAlgorithm(
    val conn: WebDbConn,
    val base: WebQuery,
    val attr: String,
    val asc: Boolean,
) extends GetNexter {

  protected val ks: KeySpace = KeySpace(attr, asc, conn.schema.numDomains(attr))

  /** Ids already returned to the user (the session's "seen" cache). */
  val emitted: mutable.LinkedHashSet[Long] = mutable.LinkedHashSet.empty

  private val pending            = mutable.Queue.empty[WebTuple]
  private var frontier: Option[Double] = None // key of the current value group
  private var exhausted          = false

  final def getNext(): Option[WebTuple] = {
    if (pending.nonEmpty) {
      val t = pending.dequeue()
      emitted += t.id
      return Some(t)
    }
    if (exhausted) return None
    findNextKey(frontier) match {
      case None =>
        exhausted = true
        None
      case Some(kv) =>
        val v     = ks.raw(kv)
        val group = materializeGroup(v).filter(base.matches).sortBy(_.id)
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
    * not fetched. This is all min/max discovery needs.
    */
  final def firstValue(): Option[Double] = findNextKey(None).map(ks.raw)

  /** All matching tuples with `attr = v`. Overflowing value groups are
    * crawled — the QR2 fix for >k tuples sharing a value.
    */
  protected def materializeGroup(v: Double): Vector[WebTuple] = {
    val gq  = base.and(attr, Interval.point(v))
    val res = conn.topK(gq)
    if (!res.overflow) res.tuples.toVector
    else Crawler.crawlQuery(conn, gq)
  }

  /** Exclusive lower search bound in key space: the frontier, or just below
    * the advertised domain on the first call.
    */
  protected final def startKey(frontierKey: Option[Double]): Double =
    frontierKey.getOrElse(ks.keyDomain.lo - 1.0)

  /** Width of the key domain (for relative density thresholds). */
  protected final def domainWidth: Double = math.max(ks.keyDomain.width, 1e-12)

  /** Probe `base ∧ attr ∈ raw(kIv)` through the accounted connection. */
  protected final def probe(kIv: Interval, crawl: Boolean = false): TopKResponse =
    conn.topK(base.and(attr, ks.toRaw(kIv)), crawl)

  protected final def minKey(res: TopKResponse): Double =
    res.tuples.iterator.map(t => ks.key(t.num(attr))).min
}

/** 1D-BASELINE — query the whole remaining interval and narrow the upper
  * bound to the smallest returned value until the query no longer
  * overflows. Cheap when the hidden system ranking is positively correlated
  * with the requested order (the first pages already contain the smallest
  * values); O(#distinct values) queries when anti-correlated.
  */
final class OneDBaseline(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean)
    extends OneDAlgorithm(conn, base, attr, asc) {

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

object OneDBinary {
  /** Fraction of the domain below which pure halving gives up and crawls
    * (machine-resolution scale — the point of BINARY is that it pays many
    * probes before getting here).
    */
  val Resolution: Double = 1e-7
}

/** 1D-BINARY — pure halving of the search interval: probe the left half;
  * empty → move right, overflow → recurse left, else answer. Insensitive to
  * the correlation between user and system ranking, but degrades badly in
  * dense regions: it halves all the way down to [[OneDBinary.Resolution]]
  * before falling back to a (counted, un-indexed) crawl.
  */
final class OneDBinary(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean)
    extends OneDAlgorithm(conn, base, attr, asc) {

  protected def findNextKey(frontierKey: Option[Double]): Option[Double] = {
    var lo  = startKey(frontierKey)
    var hi  = ks.keyDomain.hi
    val full = Interval(lo, hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl)
    if (full.isEmpty) return None
    val first = probe(full)
    if (first.isEmpty) return None
    if (!first.overflow) return Some(minKey(first))
    // Invariant: (lo, hi] contains at least one matching tuple.
    while (true) {
      if (hi - lo <= OneDBinary.Resolution * domainWidth) {
        // Dense region: exhaustively crawl the remaining sliver (conditioned
        // on the user filter; BINARY does not index what it crawls).
        val ts = Crawler.crawlQuery(conn, base.and(attr, ks.toRaw(Interval.openClosed(lo, hi))))
        return Some(ts.iterator.map(t => ks.key(t.num(attr))).min)
      }
      val mid = lo + (hi - lo) / 2
      val res = probe(Interval.openClosed(lo, mid))
      if (res.isEmpty) lo = mid
      else if (!res.overflow) return Some(minKey(res))
      else hi = mid
    }
    sys.error("unreachable")
  }
}

object OneDRerank {
  /** Density threshold: an interval narrower than this fraction of the
    * domain that still overflows is declared dense, crawled once
    * (unconditioned, so the result is reusable), and indexed.
    */
  val DenseEps: Double = 1e-3
}

/** 1D-RERANK — binary search augmented with
  *
  *  1. the *observed-min shortcut*: an overflowing probe still reveals its
  *     smallest returned value, a known matching inclusive upper bound that
  *     is at least as tight as the midpoint;
  *  2. the *dense-region oracle*: below [[OneDRerank.DenseEps]] of the
  *     domain the remaining interval is crawled unconditioned, indexed in
  *     the shared [[DenseRegionStore]], and answered locally;
  *  3. index reuse: a stored region covering the frontier serves get-nexts
  *     (and lets the search skip the covered stretch) at zero web-DB cost.
  */
final class OneDRerank(
    conn: WebDbConn,
    base: WebQuery,
    attr: String,
    asc: Boolean,
    val store: DenseRegionStore = new DenseRegionStore,
) extends OneDAlgorithm(conn, base, attr, asc) {

  protected def findNextKey(frontierKey: Option[Double]): Option[Double] = {
    var lo = startKey(frontierKey)

    // Index lookup: skip/answer over any contiguous indexed coverage.
    var covered = true
    while (covered) {
      store.coverageFrom(attr, asc, lo) match {
        case Some((covEnd, covIncl, ts)) =>
          val cand = ts.iterator
            .filter(t => base.matches(t) && ks.key(t.num(attr)) > lo)
            .map(t => ks.key(t.num(attr)))
            .minOption
          cand match {
            case Some(kv) => return Some(kv)
            case None =>
              // The indexed stretch is empty under this filter. An open end
              // leaves `covEnd` itself unindexed: probe it before skipping.
              if (!covIncl && !probe(Interval.point(covEnd)).isEmpty) return Some(covEnd)
              lo = covEnd
          }
        case None => covered = false
      }
    }

    var hi = ks.keyDomain.hi
    if (lo >= hi) return None
    val first = probe(Interval(lo, hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl))
    if (first.isEmpty) return None
    if (!first.overflow) return Some(minKey(first))
    var hiMatch = true
    hi = minKey(first) // observed-min shortcut; hi is a known matching value
    // Invariant: (lo, hi] contains at least one matching tuple.
    while (true) {
      if (hi - lo <= OneDRerank.DenseEps * domainWidth) {
        if (hiMatch) {
          // Cheap resolution attempt before declaring the sliver dense.
          val open = Interval.open(lo, hi)
          if (open.isEmpty) return Some(hi)
          val res = probe(open)
          if (res.isEmpty) return Some(hi)
          if (!res.overflow) return Some(minKey(res))
          hi = minKey(res)
          if (hi - lo > OneDRerank.DenseEps * domainWidth) { /* keep halving */ }
          else return Some(crawlAndIndex(lo, hi))
        } else return Some(crawlAndIndex(lo, hi))
      } else {
        val mid = lo + (hi - lo) / 2
        val res = probe(Interval.openClosed(lo, mid))
        if (res.isEmpty) lo = mid
        else if (!res.overflow) return Some(minKey(res))
        else { hi = minKey(res); hiMatch = true }
      }
    }
    sys.error("unreachable")
  }

  /** Crawl the closed key interval `[lo, hi]` *without* the user filter,
    * index it for every future session, and return the smallest matching
    * key beyond `lo`.
    */
  private def crawlAndIndex(lo: Double, hi: Double): Double = {
    val rawIv = ks.toRaw(Interval(lo, hi)) // closed — keeps coverage contiguous
    val ts    = Crawler.crawlQuery(conn, WebQuery.all.and(attr, rawIv), Some(store))
    store.add(Box(Map(attr -> rawIv)), ts)
    ts.iterator
      .filter(t => base.matches(t) && ks.key(t.num(attr)) > lo)
      .map(t => ks.key(t.num(attr)))
      .min // non-empty: the invariant guarantees a match in (lo, hi]
  }

  /** Value groups resolve from the index when available; crawled groups are
    * crawled unconditioned and indexed (point regions are dense regions too).
    */
  override protected def materializeGroup(v: Double): Vector[WebTuple] = {
    val pointBox = Box(Map(attr -> Interval.point(v)))
    store.lookupBox(pointBox) match {
      case Some(ts) => ts.filter(_.num(attr) == v)
      case None =>
        val res = conn.topK(base.and(attr, Interval.point(v)))
        if (!res.overflow) res.tuples.toVector
        else {
          val all = Crawler.crawlQuery(conn, WebQuery.all.and(attr, Interval.point(v)), Some(store))
          store.add(pointBox, all)
          all
        }
    }
  }
}

package repro.core

import repro.webdb._

import scala.annotation.tailrec
import scala.collection.mutable

/** Shared skeleton of the three 1D get-next strategies.
  *
  * A get-next first drains the *pending tie group* — all tuples sharing the
  * current attribute value. When the group is exhausted the strategy-specific
  * key [[search]] locates the next distinct attribute value with at least
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
    KeySearch.run(conn, search(frontier)) match {
      case None => exhausted = true; None
      case Some(kv) =>
        val v     = ks.raw(kv)
        val group = materializeGroup(v).sortBy(_.id)
        require(group.nonEmpty, s"the key search returned key $kv with no matching tuple ($attr=$v)")
        pending ++= group
        frontier = Some(kv)
        getNext()
    }
  }

  /** The search, in step form, for the key of the next distinct matching
    * attribute value strictly beyond the frontier (`None` once no further
    * value exists). Strategy-specific.
    */
  protected def search(frontierKey: Option[Double]): KeySearch

  /** The search for the best matching attribute value (the minimum
    * ascending, the maximum descending), in step form, by the key search
    * alone: the value's tie group is not fetched. This is all min/max
    * discovery needs, and it runs these searches in lockstep
    * ([[KeySearch.lockstep]]). On a fresh searcher it sends no prefix round
    * ([[OneDHalving]]): nothing is seen yet, and a prefix round would prove
    * values after the first, which discovery never asks for.
    */
  final def firstValue: KeySearch = search(None).map(ks.raw)

  /** All matching tuples with `attr = v`. Overflowing value groups are
    * crawled — the QR2 fix for >k tuples sharing a value. A group inside a
    * complete or indexed region of the connection's cache
    * ([[WebDbConn.content]]) is read from it. A value group is a dense
    * region too: under [[DensePolicy.Indexed]] it is indexed when crawled.
    */
  private def materializeGroup(v: Double): Vector[WebTuple] = {
    val group = Box(Map(attr -> Interval.point(v)))
    conn.content(group.toQuery(base)).getOrElse {
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

  /** Probe `base ∧ attr ∈ raw(kIv)` for every key interval, in one round,
    * and continue with the answers.
    */
  protected final def probes(kIvs: Seq[Interval])(resume: Seq[TopKResponse] => KeySearch): KeySearch =
    KeySearch.Ask(kIvs.map(kIv => base.and(attr, ks.toRaw(kIv))), { rs =>
      if (policy.observedMin) for (r <- rs; t <- r.tuples) seen += ((ks.key(t.num(attr)), t.id))
      resume(rs)
    })

  protected final def probe(kIv: Interval)(resume: TopKResponse => KeySearch): KeySearch =
    probes(Seq(kIv))(rs => resume(rs.head))

  protected final def minKey(res: TopKResponse): Double =
    res.tuples.iterator.map(t => ks.key(t.num(attr))).min

  protected final def found(key: Double): KeySearch = KeySearch.Found(Some(key))
}

/** A 1D key search in step form: either the answer, or one round of
  * queries to send and how the search continues with their answers. A
  * search holds no connection; its driver sends each round, so
  * independent searches can share rounds ([[KeySearch.lockstep]]). A step
  * that crawls sends the crawl's own rounds while it runs.
  */
sealed trait KeySearch {

  /** The same search, with `f` applied to the key it finds. */
  final def map(f: Double => Double): KeySearch = this match {
    case KeySearch.Found(key)           => KeySearch.Found(key.map(f))
    case KeySearch.Ask(queries, resume) => KeySearch.Ask(queries, rs => resume(rs).map(f))
  }
}

object KeySearch {

  /** The search's answer: the key found, or `None` when no key exists. */
  final case class Found(key: Option[Double]) extends KeySearch

  /** One round of `queries`; `resume` takes their answers, in order. */
  final case class Ask(queries: Seq[WebQuery], resume: Seq[TopKResponse] => KeySearch) extends KeySearch

  val none: KeySearch = Found(None)

  /** Run one search through `conn`, one round per step. */
  def run(conn: WebDbConn, search: KeySearch): Option[Double] = lockstep(conn, Seq(search)).head

  /** Run `searches` together through `conn`. Each search first takes every
    * step the connection answers locally; then one round carries the next
    * queries of every search still asking, in order. The searches thus take
    * as many rounds as the longest of them, and each sends the queries it
    * sends alone, unless another's answer lets the connection answer one
    * locally. A round holding more than [[WebDbConn.MaxPar]] queries is
    * sent as several. Deterministic: the searches resume in order, on the
    * calling thread. Returns their answers, in order.
    */
  def lockstep(conn: WebDbConn, searches: Seq[KeySearch]): Seq[Option[Double]] = {
    @tailrec def advance(s: KeySearch): KeySearch = s match {
      case Ask(qs, resume) =>
        conn.local(qs) match {
          case Some(rs) => advance(resume(rs))
          case None     => s
        }
      case done: Found => done
    }
    var steps = searches.toVector.map(advance)
    while (steps.exists(_.isInstanceOf[Ask])) {
      val answers = steps
        .flatMap { case Ask(qs, _) => qs; case _: Found => Nil }
        .grouped(WebDbConn.MaxPar)
        .flatMap(conn.batch(_))
        .toVector
      var at = 0
      steps = steps.map {
        case Ask(qs, resume) =>
          val rs = answers.slice(at, at + qs.size)
          at += qs.size
          advance(resume(rs))
        case done: Found => done
      }
    }
    steps.map { case Found(key) => key; case _: Ask => sys.error("unreachable") }
  }
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

  protected def search(frontierKey: Option[Double]): KeySearch = narrow(startKey(frontierKey), None)

  /** Probe `(lo, cand)`, where `cand` is the smallest matching key seen so
    * far (the rest of the domain before one is seen).
    */
  private def narrow(lo: Double, cand: Option[Double]): KeySearch = {
    val iv = cand match {
      case Some(c) => Interval(lo, c, loIncl = false, hiIncl = false)
      case None    => Interval(lo, ks.keyDomain.hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl)
    }
    if (iv.isEmpty) KeySearch.Found(cand)
    else probe(iv) { res =>
      if (res.isEmpty) KeySearch.Found(cand)
      else if (!res.overflow) found(minKey(res))
      // strictly decreases: the probe interval excluded the old cand
      else narrow(lo, Some(minKey(res)))
    }
  }
}

/** 1D-BINARY and 1D-RERANK — one halving search of the key interval
  * `(lo, hi]`: probe the left half; empty → move right, no overflow →
  * answer, overflow → recurse left. A complete or indexed region of the
  * connection's cache ([[WebDbConn.coverageFrom]]) that covers the frontier
  * answers first, or is skipped.
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
  * end. If the last prefix sent, `(lo, c]`, returned only tuples keyed `c`,
  * its overflow came from `c`'s tie group alone, and the open `(lo, c)` is
  * probed once first: empty, `c` is the answer; no overflow, its smallest
  * key is. With no seen key beyond `lo`, the search starts with the full
  * probe.
  */
class OneDHalving(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean, policy: DensePolicy)
    extends OneDAlgorithm(conn, base, attr, asc, policy) {

  protected def search(frontierKey: Option[Double]): KeySearch = fromCoverage(startKey(frontierKey))

  /** Answer from, or skip past, contiguous coverage: the furthest-reaching
    * complete or indexed region of the answer cache beyond `lo`.
    */
  private def fromCoverage(lo: Double): KeySearch = conn.coverageFrom(base, attr, asc, lo) match {
    case Some((covEnd, covIncl, ts)) =>
      ts.iterator.filter(base.matches).map(t => ks.key(t.num(attr))).filter(_ > lo).minOption match {
        case Some(c) => found(c)
        // The stretch is empty under this filter. An open end leaves
        // `covEnd` itself uncovered: probe it before skipping.
        case None if !covIncl =>
          probe(Interval.point(covEnd))(res => if (res.isEmpty) fromCoverage(covEnd) else found(covEnd))
        case None => fromCoverage(covEnd)
      }
    case None =>
      val full = Interval(lo, ks.keyDomain.hi, loIncl = false, hiIncl = ks.keyDomain.hiIncl)
      if (full.isEmpty) KeySearch.none
      else if (seenBeyond(lo).hasNext) fromSeen(lo)
      else probe(full) { first =>
        if (first.isEmpty) KeySearch.none
        else if (!first.overflow) found(minKey(first))
        else halve(lo, if (policy.observedMin) minKey(first) else ks.keyDomain.hi)
      }
  }

  /** A seen key beyond `lo` is a matching bound, so the full probe is moot:
    * prove the answer from a prefix, or halve below the smallest seen key.
    */
  private def fromSeen(lo: Double): KeySearch = {
    val ends = prefixEnds(lo)
    if (ends.isEmpty) halve(lo, seenBeyond(lo).next())
    else probes(ends.map(Interval.openClosed(lo, _))) { rs =>
      rs.find(!_.overflow) match {
        case Some(res) => found(minKey(res))
        case None =>
          // The round returned a key below its narrowest end: one more prefix.
          val c = seenBeyond(lo).next()
          if (c < ends.last)
            probe(Interval.openClosed(lo, c))(res => if (!res.overflow) found(minKey(res)) else belowTies(lo, c, res))
          else belowTies(lo, c, rs.last)
      }
    }
  }

  /** Every prefix overflowed, the last one sent `(lo, c]` with `last`. If
    * `last` holds only tuples keyed `c`, the overflow came from `c`'s tie
    * group alone, and one probe of the open `(lo, c)` may settle the key
    * before any halving.
    */
  private def belowTies(lo: Double, c: Double, last: TopKResponse): KeySearch = {
    val open = Interval.open(lo, c)
    if (open.isEmpty || last.tuples.exists(t => ks.key(t.num(attr)) != c)) halve(lo, seenBeyond(lo).next())
    else probe(open) { res =>
      if (res.isEmpty) found(c)
      else if (!res.overflow) found(minKey(res))
      else halve(lo, minKey(res))
    }
  }

  /** Halve `(lo, hi]`. Invariant: it contains at least one matching tuple —
    * with the observed-min shortcut, `hi` itself is a matching key.
    */
  private def halve(lo: Double, hi: Double): KeySearch =
    if (hi - lo <= policy.width1D * domainWidth) sliver(lo, hi)
    else {
      val mid = lo + (hi - lo) / 2
      probe(Interval.openClosed(lo, mid)) { res =>
        if (res.isEmpty) halve(mid, hi)
        else if (!res.overflow) found(minKey(res))
        else halve(lo, if (policy.observedMin) minKey(res) else mid)
      }
    }

  /** `(lo, hi]` is narrower than the give-up width: crawl it, after a cheap
    * resolution attempt under the observed-min shortcut.
    */
  private def sliver(lo: Double, hi: Double): KeySearch = {
    def crawl(hi: Double): KeySearch = {
      val ts = policy.crawl(conn, base, Box(Map(attr -> ks.toRaw(policy.sliver(lo, hi)))))
      found(ts.iterator.map(t => ks.key(t.num(attr))).filter(_ > lo).min)
    }
    val open = Interval.open(lo, hi)
    if (!policy.observedMin) crawl(hi)
    else if (open.isEmpty) found(hi)
    else probe(open) { res =>
      if (res.isEmpty) found(hi)
      else if (!res.overflow) found(minKey(res))
      else crawl(minKey(res))
    }
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

/** 1D-RERANK: the halving loop under [[DensePolicy.Indexed]]. */
final class OneDRerank(conn: WebDbConn, base: WebQuery, attr: String, asc: Boolean)
    extends OneDHalving(conn, base, attr, asc, DensePolicy.Indexed)

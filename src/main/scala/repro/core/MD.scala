package repro.core

import repro.crawl.Crawler
import repro.service.DenseRegionStore
import repro.webdb._

import scala.collection.mutable

object MDAlgorithm {
  /** Per-round parallelism cap (thread pool of the QR2 web service). */
  val MaxPar = 8
  /** Tie tolerance when comparing candidate scores to box bounds. */
  val TieEps = 1e-9
}

/** Shared skeleton of the MD get-next strategies: candidate bookkeeping,
  * the session-level cache of *resolved* boxes (QR2's session variable —
  * a box whose query did not overflow is fully known and never re-queried
  * within the session), and the parallel round executor.
  */
abstract class MDAlgorithm(
    val conn: WebDbConn,
    val base: WebQuery,
    val f: LinearRanking,
    val norm: Normalizer,
    val maxPar: Int = MDAlgorithm.MaxPar,
) extends GetNexter {

  /** Ids already returned to the user. */
  val emitted: mutable.LinkedHashSet[Long] = mutable.LinkedHashSet.empty

  /** Search box: the advertised domains of the ranking attributes clipped
    * by any numeric constraint of the user filter on those attributes.
    */
  protected val initialBox: Box = Box(
    f.attrs.map { a =>
      val dom = conn.schema.numDomains(a)
      a -> base.num.get(a).map(dom.intersect).getOrElse(dom)
    }.toMap)

  protected def scoreOf(t: WebTuple): Double = f.score(t, norm)

  /** (score, id)-lexicographic candidate order — the output order of the
    * ground truth, so ties resolve deterministically.
    */
  protected def better(a: (Double, WebTuple), b: (Double, WebTuple)): Boolean =
    a._1 < b._1 || (a._1 == b._1 && a._2.id < b._2.id)

  protected def minScoreOf(b: Box): Double = RankContour.minScore(f, b, norm)

  /** Widest dimension, width measured relative to the advertised domain. */
  protected def widestDim(b: Box): (String, Double) =
    b.dims
      .map { case (a, iv) => (a, iv.width / math.max(conn.schema.numDomains(a).width, 1e-12)) }
      .maxBy(_._2)

  // -------------------------------------------------------------------
  // Session cache of resolved boxes: box → its complete matching content.
  // -------------------------------------------------------------------
  private val resolved = mutable.Buffer.empty[(Box, Vector[WebTuple])]

  protected def cacheResolved(box: Box, ts: Seq[WebTuple]): Unit =
    resolved += ((box, ts.toVector))

  /** Full content of `box` if a resolved superset is cached. */
  protected def fromSessionCache(box: Box): Option[Vector[WebTuple]] =
    resolved.collectFirst { case (rb, ts) if box.containedIn(rb) => ts.filter(box.contains) }

  /** Unemitted tuples of a response, as (score, tuple) candidates. */
  protected def candidates(ts: Seq[WebTuple]): Seq[(Double, WebTuple)] =
    ts.filter(t => !emitted.contains(t.id)).map(t => (scoreOf(t), t))

  /** Score of the most recently emitted tuple. Every tuple scoring strictly
    * below it has already been emitted (the output is in score order), so a
    * box whose *maximum* achievable score is below it can only contain seen
    * tuples — [[exhaustedBelowContour]] prunes such boxes without a query.
    * This is the lower rank-contour of the session's history.
    */
  protected var lastEmittedScore: Double = Double.NegativeInfinity

  protected def exhaustedBelowContour(b: Box): Boolean =
    RankContour.maxScore(f, b, norm) < lastEmittedScore

  protected def emit(best: Option[(Double, WebTuple)]): Option[WebTuple] =
    best.map { case (s, t) => emitted += t.id; lastEmittedScore = s; t }
}

object MDBinary {
  /** Machine-resolution give-up width for pure branch-and-bound. */
  val Resolution: Double = 1e-6
}

/** MD-BINARY — best-first branch-and-bound over boxes: a priority queue
  * ordered by the box's best achievable score; every round pops all boxes
  * that could still beat the current candidate (up to the parallelism cap)
  * and queries them as **one parallel batch** — these are exactly the
  * paper's parallel verification / subspace-search queries. Overflowing
  * boxes split at the midpoint of their (relatively) widest dimension.
  * Dense boxes degrade to a crawl at machine resolution, un-indexed.
  */
class MDBinary(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    maxPar: Int = MDAlgorithm.MaxPar,
) extends MDAlgorithm(conn, base, f, norm, maxPar) {

  private final case class Entry(ms: Double, serial: Long, box: Box)
  private implicit val entryOrd: Ordering[Entry] =
    Ordering.by((e: Entry) => (-e.ms, -e.serial)) // PriorityQueue is a max-heap
  private var serial = 0L

  def getNext(): Option[WebTuple] = {
    val pq = mutable.PriorityQueue.empty[Entry]
    def push(b: Box): Unit =
      if (!b.isEmpty && !exhaustedBelowContour(b)) {
        serial += 1; pq.enqueue(Entry(minScoreOf(b), serial, b))
      }
    push(initialBox)

    var best: Option[(Double, WebTuple)] = None
    def bound: Double = best.map(_._1 + MDAlgorithm.TieEps).getOrElse(Double.PositiveInfinity)
    def consider(ts: Seq[WebTuple]): Unit =
      candidates(ts).foreach(c => if (best.forall(b => better(c, b))) best = Some(c))

    while (pq.nonEmpty && pq.head.ms < bound) {
      // Collect one round: session-cache hits resolve for free; the rest
      // form a parallel batch.
      val round = mutable.Buffer.empty[Entry]
      while (pq.nonEmpty && pq.head.ms < bound && round.size < maxPar) {
        val e = pq.dequeue()
        fromSessionCache(e.box) match {
          case Some(ts) => consider(ts)
          case None     => round += e
        }
      }
      if (round.nonEmpty) {
        val responses = conn.batch(round.toSeq.map(_.box.toQuery(base)))
        round.toSeq.lazyZip(responses).foreach { (e, res) =>
          consider(res.tuples)
          if (!res.overflow) cacheResolved(e.box, res.tuples)
          else if (widestDim(e.box)._2 <= MDBinary.Resolution) {
            val ts = Crawler.crawlQuery(conn, e.box.toQuery(base))
            cacheResolved(e.box, ts)
            consider(ts)
          } else {
            val (b1, b2) = e.box.split(widestDim(e.box)._1)
            push(b1); push(b2)
          }
        }
      }
    }
    emit(best)
  }
}

object MDRerank {
  /** Density threshold: a box narrower than this fraction of the domain in
    * its widest dimension that still overflows is crawled (unconditioned)
    * and indexed in the shared store.
    */
  val DenseEps: Double = 1e-2
}

/** MD-RERANK — MD-BINARY plus the on-the-fly dense-region index: boxes
  * contained in an already-indexed region resolve locally at zero cost, and
  * boxes that are still overflowing below [[MDRerank.DenseEps]] width are
  * crawled once *without* the user filter and indexed for every future
  * session and user.
  */
final class MDRerank(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    val store: DenseRegionStore = new DenseRegionStore,
    maxPar: Int = MDAlgorithm.MaxPar,
) extends MDAlgorithm(conn, base, f, norm, maxPar) {

  private final case class Entry(ms: Double, serial: Long, box: Box)
  private implicit val entryOrd: Ordering[Entry] =
    Ordering.by((e: Entry) => (-e.ms, -e.serial))
  private var serial = 0L

  def getNext(): Option[WebTuple] = {
    val pq = mutable.PriorityQueue.empty[Entry]
    def push(b: Box): Unit =
      if (!b.isEmpty && !exhaustedBelowContour(b)) {
        serial += 1; pq.enqueue(Entry(minScoreOf(b), serial, b))
      }
    push(initialBox)

    var best: Option[(Double, WebTuple)] = None
    def bound: Double = best.map(_._1 + MDAlgorithm.TieEps).getOrElse(Double.PositiveInfinity)
    def consider(ts: Seq[WebTuple]): Unit =
      candidates(ts).foreach(c => if (best.forall(b => better(c, b))) best = Some(c))

    /** Local resolution: session cache, then the shared dense-region index. */
    def local(box: Box): Option[Vector[WebTuple]] =
      fromSessionCache(box).orElse(
        store.lookupBox(box).map(_.filter(t => box.contains(t) && base.matches(t))))

    while (pq.nonEmpty && pq.head.ms < bound) {
      val round = mutable.Buffer.empty[Entry]
      while (pq.nonEmpty && pq.head.ms < bound && round.size < maxPar) {
        val e = pq.dequeue()
        local(e.box) match {
          case Some(ts) => consider(ts)
          case None     => round += e
        }
      }
      if (round.nonEmpty) {
        val responses = conn.batch(round.toSeq.map(_.box.toQuery(base)))
        round.toSeq.lazyZip(responses).foreach { (e, res) =>
          consider(res.tuples)
          if (!res.overflow) cacheResolved(e.box, res.tuples)
          else if (widestDim(e.box)._2 <= MDRerank.DenseEps) {
            // Dense box: crawl unconditioned, index for everyone, resolve.
            val ts = Crawler.crawlQuery(conn, e.box.toQuery(WebQuery.all), Some(store))
            store.add(e.box, ts)
            consider(ts.filter(base.matches))
          } else {
            val (b1, b2) = e.box.split(widestDim(e.box)._1)
            push(b1); push(b2)
          }
        }
      }
    }
    emit(best)
  }
}

/** MD-BASELINE — "broad queries that cover the search space": query the
  * bounding box of the region of interest `{f < s*}`; every response either
  * improves the best-known solution (the contour tightens, the box is
  * re-clipped) or the box splits in two. No best-first ordering — the whole
  * frontier is re-verified every round, which is cheap when the hidden
  * ranking is positively correlated with `f` (the first broad query already
  * surfaces a near-optimal tuple) and expensive otherwise.
  */
final class MDBaseline(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    maxPar: Int = MDAlgorithm.MaxPar,
) extends MDAlgorithm(conn, base, f, norm, maxPar) {

  def getNext(): Option[WebTuple] = {
    var best: Option[(Double, WebTuple)] = None
    def sStar: Double = best.map(_._1 + MDAlgorithm.TieEps).getOrElse(Double.PositiveInfinity)
    def consider(ts: Seq[WebTuple]): Unit =
      candidates(ts).foreach(c => if (best.forall(b => better(c, b))) best = Some(c))

    var work: Vector[Box] =
      Vector(initialBox).filterNot(b => b.isEmpty || exhaustedBelowContour(b))
    while (work.nonEmpty) {
      val keep                  = mutable.Buffer.empty[Box]
      val (roundBoxes, later)   = work.splitAt(maxPar)
      keep ++= later
      // Session-cache hits resolve for free; the rest go out in parallel.
      val (cached, toQuery) = roundBoxes.partitionMap { b =>
        fromSessionCache(b) match {
          case Some(ts) => Left(ts)
          case None     => Right(b)
        }
      }
      cached.foreach(consider)
      if (toQuery.nonEmpty) {
        val responses = conn.batch(toQuery.map(_.toQuery(base)))
        toQuery.lazyZip(responses).foreach { (box, res) =>
          consider(res.tuples)
          if (!res.overflow) cacheResolved(box, res.tuples)
          else if (widestDim(box)._2 <= MDBinary.Resolution) {
            val ts = Crawler.crawlQuery(conn, box.toQuery(base))
            cacheResolved(box, ts)
            consider(ts)
          } else {
            val clipped = RankContour.clip(f, box, sStar, norm)
            if (clipped.isEmpty) () // nothing below the contour in this box
            else if (RankContour.shrank(box, clipped)) keep += clipped
            else {
              val (b1, b2) = box.split(widestDim(box)._1)
              keep ++= Seq(b1, b2)
                .map(b => RankContour.clip(f, b, sStar, norm))
                .filterNot(_.isEmpty)
            }
          }
        }
      }
      // Re-clip the frontier against the tightened contour and drop boxes
      // that can no longer contain an improvement (above the upper contour)
      // or only already-emitted tuples (below the session's lower contour).
      work = keep.toVector
        .map(b => RankContour.clip(f, b, sStar, norm))
        .filterNot(b => b.isEmpty || exhaustedBelowContour(b))
        .filter(b => minScoreOf(b) < sStar)
    }
    emit(best)
  }
}

package repro.core

import repro.service.DenseRegionStore
import repro.webdb._

import scala.collection.mutable

object MDAlgorithm {
  /** Tie tolerance when comparing candidate scores to box bounds. */
  val TieEps = 1e-9
}

/** The seen, not-yet-emitted tuples of a session in (score, id) order —
  * the output order of the ground truth, so ties resolve deterministically
  * — plus the ids already emitted, which never come back, and the score of
  * the last emitted tuple.
  */
final class Candidates(score: WebTuple => Double) {
  private val pending = mutable.TreeMap.empty[(Double, Long), WebTuple]
  private val emitted = mutable.HashSet.empty[Long]
  private var last    = Double.NegativeInfinity

  /** Keep the tuples of `ts` that were not emitted yet. */
  def add(ts: IterableOnce[WebTuple]): Unit =
    ts.iterator.filterNot(t => emitted.contains(t.id)).foreach(t => pending.update((score(t), t.id), t))

  /** The best candidate with its score. */
  def best: Option[(Double, WebTuple)] = pending.headOption.map { case ((s, _), t) => (s, t) }

  /** Remove and return the best candidate; it is never added again. */
  def emit(): Option[WebTuple] = best.map { case (s, t) =>
    pending.remove((s, t.id)); emitted += t.id; last = s; t
  }

  /** Score of the last emitted tuple, −∞ before the first. */
  def lastEmitted: Double = last

  /** Forget the candidates; the emitted ids are kept. */
  def clear(): Unit = pending.clear()
}

/** Shared skeleton of the MD get-next strategies: the session's
  * [[Candidates]] and the parallel round executor. A get-next runs
  * [[search]], which improves the best candidate until no box can beat it,
  * and emits that candidate.
  */
abstract class MDAlgorithm(
    val conn: WebDbConn,
    val base: WebQuery,
    val f: LinearRanking,
    val norm: Normalizer,
    policy: DensePolicy,
) extends GetNexter {

  protected val candidates = new Candidates(f.score(_, norm))

  /** Search box: the advertised domains of the ranking attributes clipped
    * by any numeric constraint of the user filter on those attributes.
    */
  protected val initialBox: Box = Box(
    f.attrs.map { a =>
      val dom = conn.schema.numDomains(a)
      a -> base.num.get(a).map(dom.intersect).getOrElse(dom)
    }.toMap)

  protected def minScoreOf(b: Box): Double = RankContour.minScore(f, b, norm)

  /** Widest dimension, width measured relative to the advertised domain. */
  protected def widestDim(b: Box): (String, Double) =
    b.dims.map { case (a, iv) => (a, iv.width / math.max(conn.schema.numDomains(a).width, 1e-12)) }.maxBy(_._2)

  /** The rank-contour `s*`: the best candidate's score (plus the tie
    * tolerance), or +∞ before any candidate.
    */
  protected def sStar: Double =
    candidates.best.map(_._1 + MDAlgorithm.TieEps).getOrElse(Double.PositiveInfinity)

  final def getNext(): Option[WebTuple] = {
    search()
    candidates.emit()
  }

  /** Improve the best candidate until no unexplored box can beat it. */
  protected def search(): Unit

  /** One round of the search. Boxes are drawn from `boxes` until it runs
    * dry or [[WebDbConn.MaxPar]] of them need a query; a box inside a
    * complete region the policy reads ([[DensePolicy.content]]) resolves
    * locally, and the rest go out as **one parallel batch**. The
    * responses are considered in batch order: a box overflowing at the
    * policy's give-up width is crawled, any other overflowing box is handed
    * to `overflow` at once, so the caller sees `s*` as the earlier
    * responses of the round left it.
    */
  protected final def round(boxes: Iterator[Box])(overflow: Box => Unit): Unit = {
    val batch = mutable.Buffer.empty[Box]
    while (batch.size < WebDbConn.MaxPar && boxes.hasNext) {
      val box = boxes.next()
      val known = policy.content(conn, box.toQuery(base))
      if (known.isDefined) candidates.add(known.get) else batch += box
    }
    if (batch.nonEmpty) {
      val responses = conn.batch(batch.toSeq.map(_.toQuery(base)))
      batch.lazyZip(responses).foreach { (box, res) =>
        candidates.add(res.tuples)
        if (res.overflow && widestDim(box)._2 <= policy.widthMD) candidates.add(policy.crawl(conn, base, box))
        else if (res.overflow) overflow(box)
      }
    }
  }
}

/** MD-BINARY and MD-RERANK — best-first branch-and-bound over boxes: a
  * priority queue ordered by the box's best achievable score; every round
  * pops the boxes that could still beat the current candidate and queries
  * them as one parallel batch — these are exactly the paper's parallel
  * verification / subspace-search queries. Overflowing boxes split at the
  * midpoint of their (relatively) widest dimension. The [[DensePolicy]]
  * decides how a box that is still overflowing at its give-up width is
  * resolved and whether indexed regions resolve boxes locally.
  *
  * The queue and the candidates last for the whole session, so a get-next
  * resumes where the previous one stopped and nothing is re-walked. After
  * the get-next that emitted score `s`, every queued box has a best score
  * of at least `s` plus the tie tolerance, so none lies below the
  * session's lower rank-contour.
  */
class MDBranchAndBound(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    policy: DensePolicy,
) extends MDAlgorithm(conn, base, f, norm, policy) {

  import MDBranchAndBound.Entry
  private implicit val entryOrd: Ordering[Entry] =
    Ordering.by((e: Entry) => (-e.ms, -e.serial)) // max-heap: lowest ms, then oldest, first
  private var serial = 0L
  private val pq     = mutable.PriorityQueue.empty[Entry]

  private def push(b: Box): Unit =
    if (!b.isEmpty) { serial += 1; pq.enqueue(Entry(minScoreOf(b), serial, b)) }

  push(initialBox)

  protected def search(): Unit = {
    def viable: Boolean = pq.nonEmpty && pq.head.ms < sStar
    // The iterator is lazy: each pop re-checks `s*` as local hits tighten it.
    while (viable)
      round(Iterator.continually(pq).takeWhile(_ => viable).map(_.dequeue().box)) { box =>
        val (b1, b2) = box.split(widestDim(box)._1)
        push(b1); push(b2)
      }
  }
}

object MDBranchAndBound {
  private final case class Entry(ms: Double, serial: Long, box: Box)
}

/** MD-BINARY: branch-and-bound under [[DensePolicy.Unindexed]] — a box is
  * crawled only at machine resolution, under the user filter.
  */
final class MDBinary(conn: WebDbConn, base: WebQuery, f: LinearRanking, norm: Normalizer)
    extends MDBranchAndBound(conn, base, f, norm, DensePolicy.Unindexed)

/** MD-RERANK: branch-and-bound under [[DensePolicy.Indexed]] on `store` —
  * the on-the-fly dense-region index: boxes contained in an indexed region
  * resolve locally at zero cost, and a dense box is crawled once *without*
  * the user filter and indexed for every future session and user.
  */
final class MDRerank(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    store: DenseRegionStore = new DenseRegionStore,
) extends MDBranchAndBound(conn, base, f, norm, DensePolicy.Indexed(store))

/** MD-BASELINE — "broad queries that cover the search space": query the
  * bounding box of the region of interest `{f < s*}`; every response either
  * improves the best-known solution (the contour tightens, the box is
  * re-clipped) or the box splits in two. No best-first ordering — the whole
  * frontier is re-verified every round, which is cheap when the hidden
  * ranking is positively correlated with `f` (the first broad query already
  * surfaces a near-optimal tuple) and expensive otherwise.
  */
final class MDBaseline(conn: WebDbConn, base: WebQuery, f: LinearRanking, norm: Normalizer)
    extends MDAlgorithm(conn, base, f, norm, DensePolicy.Unindexed) {

  /** Score of the most recently emitted tuple. Every tuple scoring strictly
    * below it has already been emitted (the output is in score order), so a
    * box whose *maximum* achievable score is below it can only contain seen
    * tuples and is pruned without a query. This is the lower rank-contour
    * of the session's history.
    */
  private def exhaustedBelowContour(b: Box): Boolean =
    RankContour.maxScore(f, b, norm) < candidates.lastEmitted

  /** Starts from the root with no candidates on every get-next: keeping
    * them across get-nexts doubles the queries of the BASELINE pins.
    */
  protected def search(): Unit = {
    candidates.clear()
    var work = Vector(initialBox).filterNot(b => b.isEmpty || exhaustedBelowContour(b))
    while (work.nonEmpty) {
      val (now, later) = work.splitAt(WebDbConn.MaxPar)
      val keep         = mutable.Buffer.from(later)
      round(now.iterator) { box =>
        val clipped = RankContour.clip(f, box, sStar, norm)
        if (clipped.isEmpty) () // nothing below the contour in this box
        else if (RankContour.shrank(box, clipped)) keep += clipped
        else {
          val (b1, b2) = box.split(widestDim(box)._1)
          keep ++= Seq(b1, b2).map(b => RankContour.clip(f, b, sStar, norm)).filterNot(_.isEmpty)
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
  }
}

package repro.core

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

  /** True when `t` was emitted. */
  def wasEmitted(t: WebTuple): Boolean = emitted.contains(t.id)

  /** Score of the r-th best candidate, if there are r candidates. */
  def scoreAt(r: Int): Option[Double] = pending.keysIterator.drop(r - 1).nextOption().map(_._1)

  /** `t` was emitted from another pool: drop it; it is never added again. */
  def drop(t: WebTuple): Unit = {
    pending.remove((score(t), t.id)); emitted += t.id
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

  /** True when `b` is no wider than the policy's give-up width: an
    * overflowing query of it is crawled, not split.
    */
  protected def atGiveUpWidth(b: Box): Boolean = widestDim(b)._2 <= policy.widthMD

  /** One round of the search. Up to [[WebDbConn.MaxPar]] required boxes
    * are drawn from `boxes`, all at the `s*` the round began with, and the
    * `riding` boxes fill the slots the caller left idle; a box inside a
    * complete or indexed region of the connection's cache
    * ([[WebDbConn.content]]) resolves locally, and the rest go out as
    * **one parallel batch**. The answers are considered in draw order,
    * local or sent: a required box overflowing at the policy's give-up
    * width is crawled, any other overflowing box is handed to `overflow`
    * at once, so the caller sees `s*` as the answers of the boxes drawn
    * before it left it. The tuples of the required boxes join the
    * candidates; every tuple of the round goes to [[seen]]. The boxes need
    * not be ones the search queued: [[MDBranchAndBound]] hands in the box
    * its descent reached, and learns from `overflow` whether it was split.
    *
    * What a round draws depends only on the search's state when it
    * begins, not on which of its boxes the caches answer; a box answers
    * the same whether it resolves locally or is sent, and its answer is
    * considered at the same place. So a session that repeats an earlier
    * one on the same answer cache draws the same boxes and sends only
    * queries the cache holds: it bills nothing.
    */
  protected final def round(boxes: Iterator[Box], riding: Seq[Box] = Nil)(overflow: Box => Unit): Unit = {
    val required = boxes.take(WebDbConn.MaxPar).toVector
    val drawn    = required ++ riding.filterNot(required.contains)
    require(drawn.size <= WebDbConn.MaxPar, s"${drawn.size} boxes in one round")
    def add(box: Box, ts: Seq[WebTuple]): Unit = {
      if (required.contains(box)) candidates.add(ts)
      seen(ts)
    }
    val known = drawn.map(box => conn.content(box.toQuery(base)))
    val batch = drawn.zip(known).collect { case (box, None) => box }
    val sent =
      if (batch.isEmpty) Map.empty[Box, TopKResponse]
      else batch.zip(conn.batch(batch.map(_.toQuery(base)))).toMap
    drawn.lazyZip(known).foreach { (box, local) =>
      val res = local.fold(sent(box))(TopKResponse(_, overflow = false))
      add(box, res.tuples)
      if (res.overflow && atGiveUpWidth(box) && required.contains(box)) add(box, policy.crawl(conn, base, box))
      else if (res.overflow) overflow(box)
    }
  }

  /** Every tuple a [[round]] returns, from required and riding boxes. */
  protected def seen(ts: Seq[WebTuple]): Unit = ()
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
  * A popped box of which only one half could still beat the candidate is
  * not queried (a *descent*): the search queues the other half and moves
  * into the viable one, level after level, while exactly one half is
  * viable, the box is wider than the give-up width and the descent is
  * shorter than the session's *reach*. The box it reached goes to the
  * round like any popped box. The reach starts at one level. It doubles
  * after every round in which each descended box overflowed and was
  * split, and falls back to one level after a round in which one was
  * not: it came back complete, resolved locally, or was crawled at the
  * give-up width. The halves still cover the box, so a candidate is
  * emitted, as before, only when no queued box can beat it.
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

  import MDBranchAndBound.{Entry, MaxReach}
  private implicit val entryOrd: Ordering[Entry] =
    Ordering.by((e: Entry) => (-e.ms, -e.serial)) // max-heap: lowest ms, then oldest, first
  private var serial = 0L
  private val pq     = mutable.PriorityQueue.empty[Entry]
  private var reach  = 1
  private var passed = 0L

  /** Boxes the session passed over without a query while descending. */
  def boxesPassed: Long = passed

  private def push(b: Box): Unit =
    if (!b.isEmpty) { serial += 1; pq.enqueue(Entry(minScoreOf(b), serial, b)) }

  private def viable(b: Box): Boolean = !b.isEmpty && minScoreOf(b) < sStar

  /** The box reached from `box` by descending, within the reach, into its
    * only viable half while it has one; each half passed over is queued.
    * Returns the box and whether it is a descendant of `box`.
    */
  private def descend(box: Box): (Box, Boolean) = {
    var b      = box
    var levels = 0
    var more   = true
    while (more && levels < reach && !atGiveUpWidth(b)) {
      val (b1, b2) = b.split(widestDim(b)._1)
      (viable(b1), viable(b2)) match {
        case (true, false) => push(b2); b = b1; levels += 1
        case (false, true) => push(b1); b = b2; levels += 1
        case _             => more = false
      }
    }
    passed += levels
    (b, levels > 0)
  }

  push(initialBox)

  protected def search(): Unit = {
    def viableHead: Boolean = pq.nonEmpty && pq.head.ms < sStar
    while (viableHead) {
      val descended = mutable.Set.empty[Box]
      var split     = 0
      // Draws stop at the first queued box that cannot beat `s*`.
      round(Iterator.continually(pq).takeWhile(_ => viableHead).map { q =>
        val (b, moved) = descend(q.dequeue().box)
        if (moved) descended += b
        b
      }) { box =>
        if (descended(box)) split += 1
        val (b1, b2) = box.split(widestDim(box)._1)
        push(b1); push(b2)
      }
      if (descended.nonEmpty) reach = if (split == descended.size) math.min(2 * reach, MaxReach) else 1
    }
  }
}

object MDBranchAndBound {
  private final case class Entry(ms: Double, serial: Long, box: Box)

  /** Bound on the reach, far beyond any descent's depth (each level halves
    * one dimension, and none halves past the give-up width), so doubling
    * stops before the `Int` overflows.
    */
  private val MaxReach = 1 << 16
}

/** MD-BINARY: branch-and-bound under [[DensePolicy.Unindexed]] — a box is
  * crawled only at machine resolution, under the user filter.
  */
final class MDBinary(conn: WebDbConn, base: WebQuery, f: LinearRanking, norm: Normalizer)
    extends MDBranchAndBound(conn, base, f, norm, DensePolicy.Unindexed)

/** MD-RERANK: branch-and-bound under [[DensePolicy.Indexed]] — the
  * on-the-fly dense-region index: boxes contained in an indexed region
  * resolve locally at zero cost, and a dense box is crawled once *without*
  * the user filter and indexed for every future session and user.
  */
final class MDRerank(conn: WebDbConn, base: WebQuery, f: LinearRanking, norm: Normalizer)
    extends MDBranchAndBound(conn, base, f, norm, DensePolicy.Indexed)

/** MD-BASELINE — "broad queries that cover the search space": query the
  * bounding box of the region of interest `{f < s*}`; every response either
  * improves the best-known solution (the contour tightens, the box is
  * re-clipped) or the box splits in two. No best-first ordering — the whole
  * frontier is re-verified every round, which is cheap when the hidden
  * ranking is positively correlated with `f` (the first broad query already
  * surfaces a near-optimal tuple) and expensive otherwise.
  *
  * A page (`next(n)`) keeps a second frontier beside the get-next search:
  * the search box clipped at `sPage`, the score of the r-th best tuple the
  * page has seen, where r is the number of results the page still owes
  * (+∞ until r tuples have been seen), plus the tie tolerance. Its boxes
  * ride in the rounds the search sends anyway (`nextRound`), which
  * would otherwise leave most of their slots idle (QR2 §II-B); once it is
  * empty, every tuple that could be among the page's remaining results has
  * been seen, and they are emitted with no further search (Fagin/Lotem/
  * Naor's rule: emit once proven).
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

  /** `boxes` clipped at `s`, without the ones that can no longer contain a
    * tuple scoring below `s` (above the upper contour) or contain only
    * already-emitted tuples (below the session's lower contour).
    */
  private def refine(boxes: Seq[Box], s: Double): Vector[Box] =
    boxes.iterator
      .map(b => RankContour.clip(f, b, s, norm))
      .filterNot(b => b.isEmpty || exhaustedBelowContour(b))
      .filter(b => minScoreOf(b) < s)
      .toVector

  /** An overflowing box narrowed at `s`: clipped when that shrinks it,
    * split at its widest dimension otherwise.
    */
  private def narrow(box: Box, s: Double): Seq[Box] = {
    val clipped = RankContour.clip(f, box, s, norm)
    if (clipped.isEmpty) Nil // nothing below the contour in this box
    else if (RankContour.shrank(box, clipped)) Seq(clipped)
    else {
      val (b1, b2) = box.split(widestDim(box)._1)
      Seq(b1, b2).map(b => RankContour.clip(f, b, s, norm)).filterNot(_.isEmpty)
    }
  }

  /** Every box the session has drawn, required or riding. */
  private val drawn = mutable.HashSet.empty[Box]
  private var filled = 0L

  /** Page-frontier boxes the session drew into the slots of its rounds. */
  def boxesFilled: Long = filled

  /** The page frontier of the running `next(n)`: `owed` results to go,
    * the tuples the page has seen and not emitted, and the boxes that could
    * still hold one of its remaining results. A frontier box that overflows
    * at the give-up width gives the frontier up for the rest of the page:
    * it never crawls.
    */
  private final class Page(var owed: Int) {
    val tuples   = new Candidates(f.score(_, norm))
    var frontier = refine(Vector(initialBox), Double.PositiveInfinity)
    var givenUp  = false

    def sPage: Double = tuples.scoreAt(owed).map(_ + MDAlgorithm.TieEps).getOrElse(Double.PositiveInfinity)

    /** Every tuple that could be one of the `owed` results has been seen. */
    def proven: Boolean = !givenUp && frontier.isEmpty

    /** Replace the boxes that `rode` in a round by what their answers left
      * of them: an answered box leaves, an `overflowed` one is narrowed.
      * The narrowing waits for the whole round, so it reads `sPage` as the
      * round left it, whichever of the round's boxes the cache answered;
      * `sPage` only falls during a page, so that is also the lower of its
      * values at the start and at the end of the round.
      */
    def advance(rode: Seq[Box], overflowed: Seq[Box]): Unit =
      if (overflowed.exists(atGiveUpWidth)) { givenUp = true; frontier = Vector.empty }
      else if (!givenUp) {
        val s = sPage
        frontier = refine(frontier.filterNot(rode.contains) ++ overflowed.flatMap(narrow(_, s)), s)
      }
  }

  private var page: Option[Page] = None

  override protected def seen(ts: Seq[WebTuple]): Unit =
    page.foreach(_.tuples.add(ts.filterNot(candidates.wasEmitted)))

  /** A page of up to `n` results: `n` get-nexts sharing one page frontier,
    * which is dropped when the page is done.
    */
  override def next(n: Int): Vector[WebTuple] = {
    val p = new Page(n)
    page = Some(p)
    try
      Vector.unfold(()) { _ =>
        if (p.owed == 0) None
        else getNext().map { t => p.tuples.drop(t); p.owed -= 1; (t, ()) }
      }
    finally page = None
  }

  /** The next round of the search over `work`: its required boxes, the
    * rest of `work`, and the page-frontier boxes that ride along. The page
    * frontier takes up to `MaxPar − 1` slots and the required boxes the
    * rest, at least one. A round whose required boxes the session has all
    * drawn before is answered from the cache, so it takes no riding box,
    * which would make it billed; the test reads the session's own state
    * only, so a repeated session draws the same boxes.
    */
  private def nextRound(work: Vector[Box]): (Vector[Box], Vector[Box], Vector[Box]) = {
    val riding       = page.fold(Vector.empty[Box])(_.frontier.take(WebDbConn.MaxPar - 1))
    val (now, later) = work.splitAt(WebDbConn.MaxPar - riding.size)
    if (now.forall(drawn)) {
      val (all, rest) = work.splitAt(WebDbConn.MaxPar)
      (all, rest, Vector.empty)
    } else (now, later, riding)
  }

  /** Starts from the root with no candidates on every get-next: keeping
    * them across get-nexts doubles the queries of the get-next pin. The
    * page's tuples stay out of the candidates, so the search keeps the
    * `s*` and the boxes of a lone get-next; it stops once the page frontier
    * is proven, and then the page's best tuple is the next result.
    */
  protected def search(): Unit = {
    candidates.clear()
    def proven = page.exists(_.proven)
    var work = Vector(initialBox).filterNot(b => b.isEmpty || exhaustedBelowContour(b))
    while (work.nonEmpty && !proven) {
      val (now, later, riding) = nextRound(work)
      val keep                 = mutable.Buffer.from(later)
      val overflowed           = mutable.Buffer.empty[Box]
      round(now.iterator, riding) { box =>
        if (now.contains(box)) keep ++= narrow(box, sStar)
        if (riding.contains(box)) overflowed += box
      }
      drawn ++= now
      drawn ++= riding
      filled += riding.count(b => !now.contains(b))
      page.foreach(_.advance(riding, overflowed.toSeq))
      // Re-clip the frontier against the tightened contour.
      work = refine(keep.toSeq, sStar)
    }
    if (proven) page.flatMap(_.tuples.best).foreach { case (_, t) => candidates.add(Seq(t)) }
  }
}

package repro.core

import repro.service.DenseRegionStore
import repro.webdb.{WebDbConn, WebQuery, WebTuple}

import scala.collection.mutable

/** MD-TA — Fagin's Threshold Algorithm (Fagin/Lotem/Naor) implemented over
  * the hidden web database, footnote 3 of the QR2 paper: sorted access on
  * each ranking attribute is provided by a dedicated [[OneDRerank]]
  * iterator (ascending for positive weights, descending for negative ones);
  * random access is free because every web response carries the full tuple.
  *
  * The threshold `τ = Σ w_i · norm(frontier_i)` is the best score any
  * still-unseen tuple can reach; a candidate with score ≤ τ is safe to
  * emit. Because every matching tuple eventually appears in *every*
  * attribute order, exhaustion of any one iterator proves the candidate
  * pool is complete.
  */
final class MDTA(
    conn: WebDbConn,
    base: WebQuery,
    f: LinearRanking,
    norm: Normalizer,
    val store: DenseRegionStore = new DenseRegionStore,
) extends GetNexter {

  private val emitted: mutable.LinkedHashSet[Long] = mutable.LinkedHashSet.empty

  private final class Access(val attr: String, val w: Double) {
    val it = new OneDRerank(conn, base, attr, asc = w > 0, store)
    /** Contribution of a still-unseen tuple on this attribute can be no
      * better than the frontier term; before any access the bound is the
      * attribute's best possible contribution (0 for w>0, w for w<0 in
      * normalized space).
      */
    var frontierTerm: Double = if (w > 0) 0.0 else w
    var done: Boolean        = false
    def advance(): Option[WebTuple] = {
      val t = it.getNext()
      t match {
        case Some(tp) => frontierTerm = w * norm(attr, tp.num(attr))
        case None     => done = true
      }
      t
    }
  }

  private val accesses          = f.weights.map { case (a, w) => new Access(a, w) }
  private val pool              = mutable.LinkedHashMap.empty[Long, WebTuple]
  private var poolComplete      = false

  private def tau: Double = accesses.map(_.frontierTerm).sum

  private def bestCandidate: Option[(Double, WebTuple)] =
    pool.valuesIterator
      .filterNot(t => emitted.contains(t.id))
      .map(t => (f.score(t, norm), t))
      .minByOption { case (s, t) => (s, t.id) }

  def getNext(): Option[WebTuple] = {
    while (true) {
      val cand = bestCandidate
      if (poolComplete)
        return cand.map { case (_, t) => emitted += t.id; t }
      cand match {
        case Some((s, t)) if s <= tau + MDAlgorithm.TieEps =>
          emitted += t.id
          return Some(t)
        case _ =>
          // One round of sorted accesses (round-robin over the attributes).
          accesses.filterNot(_.done).foreach { acc =>
            acc.advance().foreach(t => pool.update(t.id, t))
          }
          if (accesses.exists(_.done)) poolComplete = true
      }
    }
    sys.error("unreachable")
  }
}

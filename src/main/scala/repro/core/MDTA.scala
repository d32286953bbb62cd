package repro.core

import repro.webdb.{WebDbConn, WebQuery, WebTuple}

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
final class MDTA(conn: WebDbConn, base: WebQuery, f: LinearRanking, norm: Normalizer) extends GetNexter {

  private final class Access(val attr: String, val w: Double) {
    val it = new OneDRerank(conn, base, attr, asc = w > 0)
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

  private val accesses     = f.weights.map { case (a, w) => new Access(a, w) }
  private val candidates   = new Candidates(f.score(_, norm))
  private var poolComplete = false

  private def tau: Double = accesses.map(_.frontierTerm).sum

  /** Emit the best candidate once it scores within `τ`, or once the pool is
    * complete; until then, one round of sorted accesses (round-robin over
    * the attributes) at a time.
    */
  def getNext(): Option[WebTuple] = {
    while (!poolComplete && !candidates.best.exists(_._1 <= tau + MDAlgorithm.TieEps)) {
      accesses.filterNot(_.done).foreach(acc => candidates.add(acc.advance()))
      if (accesses.exists(_.done)) poolComplete = true
    }
    candidates.emit()
  }
}

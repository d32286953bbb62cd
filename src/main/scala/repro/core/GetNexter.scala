package repro.core

import repro.webdb.WebTuple

/** The paper's "Get-Next" primitive: each call discovers the next-best
  * tuple under the user-specified ranking function, issuing as few queries
  * to the hidden web database as possible. Implementations keep per-session
  * state (seen tuples, tie-group queues) so repeated calls are
  * incremental; the answers and complete regions the session reads live in
  * its `WebDbConn`'s answer cache.
  */
trait GetNexter {

  /** Discover the next tuple in user-ranking order; `None` once the result
    * set under the session's filter is exhausted.
    */
  def getNext(): Option[WebTuple]

  /** A page: up to `n` further tuples, the results of `n` get-nexts
    * (stops early on exhaustion). The page size lets a strategy share work
    * across the page's get-nexts: [[MDBaseline]] fills its rounds' idle
    * slots from a page-wide frontier and emits the rest of the page once
    * that frontier is proven.
    */
  def next(n: Int): Vector[WebTuple] = {
    val b    = Vector.newBuilder[WebTuple]
    var i    = 0
    var done = false
    while (i < n && !done) getNext() match {
      case Some(t) => b += t; i += 1
      case None    => done = true
    }
    b.result()
  }
}

package repro.webdb

import java.util.concurrent.atomic.AtomicInteger

/** A backend whose `failAt`-th request (counting from 1) throws; every
  * other request reaches `inner`.
  */
final class FailingWebDb(inner: WebDb, failAt: Int) extends WebDb {
  private val sent      = new AtomicInteger
  def schema: WebSchema = inner.schema
  def k: Int            = inner.k
  private[webdb] def rawTopK(q: WebQuery): TopKResponse =
    if (sent.incrementAndGet() == failAt) throw new java.io.IOException(s"request $failAt failed")
    else inner.rawTopK(q)
}

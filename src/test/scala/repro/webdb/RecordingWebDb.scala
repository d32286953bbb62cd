package repro.webdb

import scala.collection.mutable

/** A backend that records every request reaching it, with its response and
  * the stack of the thread that sent it.
  */
final class RecordingWebDb(inner: WebDb) extends WebDb {
  val log    = mutable.ArrayBuffer.empty[(WebQuery, TopKResponse)]
  val stacks = mutable.ArrayBuffer.empty[Seq[StackTraceElement]]
  def schema: WebSchema = inner.schema
  def k: Int            = inner.k
  def requests: Seq[WebQuery] = log.map(_._1).toSeq
  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val res = inner.rawTopK(q)
    log += ((q, res))
    stacks += Thread.currentThread().getStackTrace.toSeq
    res
  }
}

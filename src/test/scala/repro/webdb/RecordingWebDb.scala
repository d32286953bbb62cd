package repro.webdb

import scala.collection.mutable

/** A backend that records every request reaching it, with its response. */
final class RecordingWebDb(inner: WebDb) extends WebDb {
  val log = mutable.ArrayBuffer.empty[(WebQuery, TopKResponse)]
  def schema: WebSchema = inner.schema
  def k: Int            = inner.k
  def requests: Seq[WebQuery] = log.map(_._1).toSeq
  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val res = inner.rawTopK(q)
    log += ((q, res))
    res
  }
}

package repro.webdb

/** Benchmark probe around a backend: delegates every search request to
  * `inner` and reports it, with its start and end `System.nanoTime`, to
  * `onRequest`. It lives in `repro.webdb` only because `rawTopK` is
  * package-private; the service under test is not changed.
  */
final class TimedWebDb(
    inner: WebDb,
    onRequest: (WebQuery, TopKResponse, Long, Long) => Unit,
) extends WebDb {
  def schema: WebSchema = inner.schema
  def k: Int            = inner.k

  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val t0  = System.nanoTime()
    val res = inner.rawTopK(q)
    onRequest(q, res, t0, System.nanoTime())
    res
  }
}

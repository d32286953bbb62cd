package repro.webdb

/** A backend whose rows can be replaced while a service runs over it: the
  * web database changing between two requests.
  */
final class ChangingWebDb(@volatile var current: LocalWebDb) extends WebDb {
  def schema: WebSchema = current.schema
  def k: Int            = current.k
  private[webdb] def rawTopK(q: WebQuery): TopKResponse = current.rawTopK(q)
}

package repro.webdb

import org.apache.spark.sql.SparkSession

/** QR2's "MySQL" cache of fully-crawled dense regions (§II-B, "Managing
  * the dense region cache") in its persisted form, substituted here by a
  * Parquet dataset (DESIGN.md §5): an immutable snapshot of the indexed
  * regions of an [[AnswerCache]] ([[AnswerCache.store]]), and what a cache
  * is seeded with when a service boots ([[AnswerCache.reset]]).
  *
  * An entry records an axis-aligned region (a [[Box]] over a subset of the
  * numeric attributes) together with **every** tuple of the database inside
  * it — regions are crawled *unconditioned* on any user filter precisely so
  * the index is reusable across sessions and users.
  */
final case class DenseRegionStore(entries: Vector[DenseRegionStore.Entry]) {
  import DenseRegionStore.Entry

  def size: Int = entries.size

  def indexedTupleCount: Long = entries.iterator.map(_.tuples.size.toLong).sum

  def allEntries: Vector[Entry] = entries

  /** Every region in the form a connection over `schema` asks in
    * ([[WebSchema.canonical]]): a region keeping a vacuous constraint holds
    * no query that leaves the attribute out.
    */
  def canonical(schema: WebSchema): DenseRegionStore =
    DenseRegionStore(entries.map(e => e.copy(box = Box(schema.canonical(e.box.toQuery()).num))))

  // ---------------------------------------------------------------------
  // Persistence — stands in for the MySQL cache that survives restarts
  // ("before the system boots up we verify the cache", §II-B).
  // ---------------------------------------------------------------------

  /** Persist the store as one Parquet dataset at `path`, replacing what is
    * there: one row per region, holding its position, box and tuples.
    */
  def persist(spark: SparkSession, path: String): Unit = {
    import spark.implicits._
    entries.zipWithIndex.map(_.swap).toDS().write.mode("overwrite").parquet(path)
  }
}

object DenseRegionStore {

  /** A fully-crawled region and its complete tuple content. */
  final case class Entry(box: Box, tuples: Vector[WebTuple])

  val empty: DenseRegionStore = DenseRegionStore(Vector.empty)

  /** Load a store previously written by [[DenseRegionStore.persist]]. */
  def load(spark: SparkSession, path: String): DenseRegionStore = {
    import spark.implicits._
    // Position order, so `allEntries` and a later `persist` keep it.
    DenseRegionStore(spark.read.parquet(path).as[(Int, Entry)].collect().sortBy(_._1).map(_._2).toVector)
  }
}

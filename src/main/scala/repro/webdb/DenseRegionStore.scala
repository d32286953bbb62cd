package repro.webdb

import org.apache.spark.sql.SparkSession

/** Shared index of fully-crawled dense regions — QR2's "MySQL" cache
  * (§II-B, "Managing the dense region cache"), substituted here by an
  * in-memory store with Parquet persist/load (DESIGN.md §5).
  *
  * An entry records an axis-aligned region (a [[Box]] over a subset of the
  * numeric attributes) together with **every** tuple of the database inside
  * it — regions are crawled *unconditioned* on any user filter precisely so
  * the index is reusable across sessions and users. The store is the
  * indexed tier of an [[AnswerCache]], which owns it and reads it after its
  * own regions ([[CompleteRegions]], region query `box.toQuery()`): `content`
  * answers a query inside a region, `coverageFrom` reports how far a 1D
  * search may answer from, or skip past, a region, and `cut` finds a region
  * an indexed crawl may read part of a sub-query from.
  *
  * Methods are synchronized (QR2 is a multi-user service). Lock order: the
  * owning cache takes the store's lock while holding its own; the store
  * never calls the cache.
  */
final class DenseRegionStore {
  import DenseRegionStore.Entry

  private val regions = new CompleteRegions

  def size: Int = synchronized(regions.size)

  def indexedTupleCount: Long = synchronized(regions.tupleCount)

  def allEntries: Vector[Entry] = synchronized(regions.all).map { case (q, ts) => Entry(Box(q.num), ts) }

  /** Register a crawled region. */
  def add(box: Box, tuples: Seq[WebTuple]): Unit = synchronized(regions.add(box.toQuery(), tuples.toVector))

  /** Atomically replace the whole store content (boot-time verification). */
  def replaceAll(fresh: Seq[(Box, Seq[WebTuple])]): Unit = synchronized {
    regions.clear()
    fresh.foreach { case (b, ts) => add(b, ts) }
  }

  /** Rewrite every region in the form a connection over `schema` asks in
    * ([[WebSchema.canonical]]): a region keeping a vacuous constraint holds
    * no query that leaves the attribute out.
    */
  def canonicalize(schema: WebSchema): Unit = synchronized {
    replaceAll(allEntries.map(e => (Box(schema.canonical(e.box.toQuery()).num), e.tuples)))
  }

  /** [[CompleteRegions.content]] over the stored regions. */
  def content(q: WebQuery): Option[Vector[WebTuple]] = synchronized(regions.content(q))

  /** [[CompleteRegions.coverageFrom]] over the stored regions. */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double, domain: Interval)
      : Option[CompleteRegions.Coverage] =
    synchronized(regions.coverageFrom(base, attr, asc, lo, domain))

  /** [[CompleteRegions.cut]] over the stored regions: a region holding
    * more than `k` of `q`'s tuples, which the crawler reads instead of
    * crawling that part of `q`.
    */
  def cut(q: WebQuery, k: Int): Option[CompleteRegions.Cut] = synchronized(regions.cut(q, k))

  // ---------------------------------------------------------------------
  // Persistence — stands in for the MySQL cache that survives restarts
  // ("before the system boots up we verify the cache", §II-B).
  // ---------------------------------------------------------------------

  /** Persist the store as one Parquet dataset at `path`, replacing what is
    * there: one row per region, holding its position, box and tuples.
    */
  def persist(spark: SparkSession, path: String): Unit = {
    import spark.implicits._
    allEntries.zipWithIndex.map(_.swap).toDS().write.mode("overwrite").parquet(path)
  }
}

object DenseRegionStore {

  /** A fully-crawled region and its complete tuple content. */
  final case class Entry(box: Box, tuples: Vector[WebTuple])

  /** Load a store previously written by [[DenseRegionStore.persist]]. */
  def load(spark: SparkSession, path: String): DenseRegionStore = {
    import spark.implicits._
    val store = new DenseRegionStore
    // Position order, so `allEntries` and a later `persist` keep it.
    spark.read.parquet(path).as[(Int, Entry)].collect().sortBy(_._1)
      .foreach { case (_, e) => store.add(e.box, e.tuples) }
    store
  }
}

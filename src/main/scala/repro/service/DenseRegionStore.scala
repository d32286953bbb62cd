package repro.service

import org.apache.spark.sql.SparkSession
import repro.webdb.{Box, Interval, WebTuple}

import scala.collection.mutable

/** Shared index of fully-crawled dense regions — QR2's "MySQL" cache
  * (§II-B, "Managing the dense region cache"), substituted here by an
  * in-memory store with Parquet persist/load (DESIGN.md §5).
  *
  * An entry records an axis-aligned region (a [[Box]] over a subset of the
  * numeric attributes) together with **every** tuple of the database inside
  * it — regions are crawled *unconditioned* on any user filter precisely so
  * the index is reusable across sessions and users. Lookups:
  *
  *  - `lookupBox` — a region containing the probe box resolves an MD query
  *    locally at zero web-database cost;
  *  - `coverageFrom` — for the 1D strategies: how far beyond a frontier key
  *    is the axis contiguously covered by indexed regions, and which
  *    indexed tuples live there.
  *
  * The store is shared between all sessions of a [[Qr2Service]]; methods
  * are synchronized (QR2 is a multi-user service).
  */
final class DenseRegionStore {
  import DenseRegionStore.Entry

  private val entries = mutable.Buffer.empty[Entry]

  def size: Int = synchronized(entries.size)

  def indexedTupleCount: Long = synchronized(entries.map(_.tuples.size.toLong).sum)

  def allEntries: Vector[Entry] = synchronized(entries.toVector)

  /** Register a crawled region. */
  def add(box: Box, tuples: Seq[WebTuple]): Unit = synchronized {
    entries += Entry(box, tuples.toVector)
  }

  /** Atomically replace the whole store content (boot-time verification). */
  def replaceAll(fresh: Seq[(Box, Seq[WebTuple])]): Unit = synchronized {
    entries.clear()
    fresh.foreach { case (b, ts) => entries += Entry(b, ts.toVector) }
  }

  /** All indexed tuples of the first stored region containing `box`, if any. */
  def lookupBox(box: Box): Option[Vector[WebTuple]] = synchronized {
    entries.find(e => box.containedIn(e.box)).map(_.tuples)
  }

  /** 1D coverage query in key space. Looks for a stored single-attribute
    * region on `attr` whose key interval covers the open neighbourhood just
    * above `fromKeyExcl`; returns the key up to which the axis is covered
    * (inclusive iff the region's corresponding bound is) and the region's
    * tuples. The caller may answer from the tuples or skip `lo` past the
    * covered stretch.
    */
  def coverageFrom(attr: String, asc: Boolean, fromKeyExcl: Double): Option[(Double, Boolean, Vector[WebTuple])] =
    synchronized {
      val hits = entries.iterator.flatMap { e =>
        e.box.dims.get(attr) match {
          case Some(iv) if e.box.dims.size == 1 =>
            val kIv = if (asc) iv else iv.negate
            // An entry ending at the frontier covers nothing new (and would
            // stall the caller's skip-ahead loop).
            if (kIv.coversAbove(fromKeyExcl))
              Some((kIv.hi, kIv.hiIncl, e.tuples))
            else None
          case _ => None
        }
      }.toVector
      // Furthest-reaching cover wins (amortizes best).
      if (hits.isEmpty) None else Some(hits.maxBy(h => (h._1, h._2)))
    }

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
    // Position order: `lookupBox` answers from the first containing region.
    spark.read.parquet(path).as[(Int, Entry)].collect().sortBy(_._1)
      .foreach { case (_, e) => store.add(e.box, e.tuples) }
    store
  }
}

package repro.webdb

import scala.collection.mutable

/** Complete regions: queries, each held with every tuple of the database
  * matching it — the semantic region cache of Dar et al. (VLDB'96). QR2
  * keeps them at two scopes: the service's [[AnswerCache]] (billed
  * responses that did not overflow, and finished crawls, of every session)
  * and the shared dense-region store. A query inside a region is answered
  * from it without asking the web database; any containing region holds the
  * same matches.
  *
  * Regions are bucketed by shape: the set of numeric attributes they
  * constrain and their categorical sets. A region can contain a query only
  * if its numeric attributes are among the query's and each of its
  * categorical sets holds the query's, so a lookup scans only the buckets
  * that pass that test. Not thread-safe: a shared owner locks around it.
  */
final class CompleteRegions {
  import CompleteRegions.{Coverage, Region, Shape}

  private val buckets = mutable.LinkedHashMap.empty[Shape, mutable.ArrayBuffer[Region]]
  private var count   = 0
  /** The candidate buckets of each query shape looked up since the last
    * bucket was created: queries repeat a few shapes, so most lookups find
    * their buckets without testing every shape.
    */
  private val candidatesOf = mutable.HashMap.empty[Shape, Vector[mutable.ArrayBuffer[Region]]]

  /** Number of regions held. */
  def size: Int = count

  /** Number of tuples held, summed over the regions. */
  def tupleCount: Long = buckets.valuesIterator.flatMap(_.iterator).map(_.tuples.size.toLong).sum

  /** Every region with its tuples, oldest first. */
  def all: Vector[(WebQuery, Vector[WebTuple])] =
    buckets.valuesIterator.flatMap(_.iterator).toVector.sortBy(_.seq).map(r => (r.q, r.tuples))

  /** Register `q` with every tuple matching it. */
  def add(q: WebQuery, tuples: Vector[WebTuple]): Unit = {
    val shape = (q.num.keySet, q.cat)
    if (!buckets.contains(shape)) candidatesOf.clear()
    buckets.getOrElseUpdate(shape, mutable.ArrayBuffer.empty) += Region(count, q, tuples)
    count += 1
  }

  def clear(): Unit = {
    buckets.clear()
    candidatesOf.clear()
    count = 0
  }

  /** Every tuple matching `q`, if `q` lies inside a region. */
  def content(q: WebQuery): Option[Vector[WebTuple]] =
    candidates(q.num.keySet, q.cat)
      .flatMap(_.reverseIterator.find(r => q.within(r.q)))
      .nextOption()
      .map(_.tuples.filter(q.matches))

  /** 1D: the region reaching furthest beyond key `lo` of `attr` (negated
    * when descending) that holds every `base` tuple there, as (end key, end
    * inclusive, region tuples). The caller answers from the tuples or skips
    * `lo` past the end; a region ending at `lo` covers nothing beyond it.
    */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double): Option[Coverage] =
    CompleteRegions.furthest(candidates(base.num.keySet + attr, base.cat).flatMap(_.iterator).flatMap { r =>
      r.q.num.get(attr).map(iv => (iv, if (asc) iv else iv.negate)).collect {
        case (iv, kIv) if kIv.coversAbove(lo) && base.and(attr, iv).within(r.q) => (kIv.hi, kIv.hiIncl, r.tuples)
      }
    })

  /** The buckets whose regions could contain a query that constrains the
    * numeric attributes `attrs` and has the categorical sets `cat`.
    */
  private def candidates(attrs: Set[String], cat: Map[String, Set[String]]): Iterator[mutable.ArrayBuffer[Region]] =
    candidatesOf.getOrElseUpdate((attrs, cat), buckets.iterator.collect {
      case ((rAttrs, rCat), rs) if rAttrs.subsetOf(attrs) &&
          rCat.forall { case (a, vs) => cat.get(a).exists(_.subsetOf(vs)) } => rs
    }.toVector).iterator
}

object CompleteRegions {
  /** A covered key stretch: (end key, end inclusive, the region's tuples). */
  type Coverage = (Double, Boolean, Vector[WebTuple])

  /** A region's bucket key: its constrained numeric attributes and its
    * categorical sets.
    */
  private type Shape = (Set[String], Map[String, Set[String]])

  /** A region and its position in insertion order. */
  private final case class Region(seq: Int, q: WebQuery, tuples: Vector[WebTuple])

  /** The furthest-reaching of several coverages, which amortizes best. */
  def furthest(cs: IterableOnce[Coverage]): Option[Coverage] = cs.iterator.maxByOption(c => (c._1, c._2))
}

package repro.webdb

import scala.collection.mutable

/** Complete regions: queries, each held with every tuple of the database
  * matching it — the semantic region cache of Dar et al. (VLDB'96). The
  * service's [[AnswerCache]] keeps two sets: the regions proven from billed
  * responses that did not overflow and from finished crawls, and the
  * indexed regions of its dense-region cache. A query inside a region is
  * answered from it without asking the web database; any containing region
  * holds the same matches.
  *
  * Regions are bucketed by shape: the set of numeric attributes they
  * constrain and their categorical sets. A region can contain a query only
  * if its numeric attributes are among the query's and each of its
  * categorical sets holds the query's, so a lookup scans only the buckets
  * that pass that test. Not thread-safe: a shared owner locks around it.
  */
final class CompleteRegions {
  import CompleteRegions.{Coverage, Cut, Region, Shape}

  private val buckets = mutable.LinkedHashMap.empty[Shape, mutable.ArrayBuffer[Region]]
  private var count   = 0
  /** The candidate buckets of each query shape (and spare, see
    * `candidates`) looked up since the last bucket was created: queries
    * repeat a few shapes, so most lookups find their buckets without
    * testing every shape.
    */
  private val candidatesOf = mutable.HashMap.empty[(Shape, Int), Vector[mutable.ArrayBuffer[Region]]]

  /** Number of regions held. */
  def size: Int = count

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
    * inclusive, region tuples). A region leaving `attr` unconstrained
    * covers its whole advertised `domain`, and every key below it. The
    * caller answers from the tuples or skips `lo` past the end; a region
    * ending at `lo` covers nothing beyond it.
    */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double, domain: Interval): Option[Coverage] = {
    def key(iv: Interval) = if (asc) iv else iv.negate
    CompleteRegions.furthest(candidates(base.num.keySet + attr, base.cat).flatMap(_.iterator).flatMap { r =>
      val covers = r.q.num.get(attr) match {
        case Some(iv) => Some(key(iv)).filter(_.coversAbove(lo) && base.and(attr, iv).within(r.q))
        case None     => Some(key(domain)).filter(kIv => lo < kIv.hi && base.within(r.q))
      }
      covers.map(kIv => (kIv.hi, kIv.hiIncl, r.tuples))
    })
  }

  /** A region that cuts `q` where `q` does not lie inside any: it holds
    * `q` on each attribute it constrains but one numeric attribute, where
    * it overlaps `q`, and more than `k` of `q`'s tuples lie in it. Returns
    * that attribute, the region's interval on it, and `q`'s tuples inside
    * the region. Geometry is tested first, and tuples are counted only up
    * to `k + 1`.
    */
  def cut(q: WebQuery, k: Int): Option[Cut] =
    candidates(q.num.keySet, q.cat, spare = 1).flatMap(_.reverseIterator).flatMap { r =>
      r.q.num.iterator.filterNot { case (a, iv) => q.num.get(a).exists(_.subsetOf(iv)) }.take(2).toSeq match {
        case Seq((a, iv)) if !q.num.get(a).exists(_.intersect(iv).isEmpty) &&
            r.tuples.iterator.filter(q.matches).take(k + 1).size > k =>
          Some((a, iv, r.tuples.filter(q.matches)))
        case _ => None
      }
    }.nextOption()

  /** The buckets whose regions could contain a query that constrains the
    * numeric attributes `attrs` and has the categorical sets `cat`, or, with
    * one `spare`, contain it but on one numeric attribute the query leaves
    * unconstrained.
    */
  private def candidates(attrs: Set[String], cat: Map[String, Set[String]], spare: Int = 0)
      : Iterator[mutable.ArrayBuffer[Region]] =
    candidatesOf.getOrElseUpdate(((attrs, cat), spare), buckets.iterator.collect {
      case ((rAttrs, rCat), rs) if (rAttrs -- attrs).size <= spare &&
          rCat.forall { case (a, vs) => cat.get(a).exists(_.subsetOf(vs)) } => rs
    }.toVector).iterator
}

object CompleteRegions {
  /** A covered key stretch: (end key, end inclusive, the region's tuples). */
  type Coverage = (Double, Boolean, Vector[WebTuple])

  /** A region cutting a query ([[CompleteRegions.cut]]): (attribute, the
    * region's interval on it, the query's tuples inside the region).
    */
  type Cut = (String, Interval, Vector[WebTuple])

  /** A region's bucket key: its constrained numeric attributes and its
    * categorical sets.
    */
  private type Shape = (Set[String], Map[String, Set[String]])

  /** A region and its position in insertion order. */
  private final case class Region(seq: Int, q: WebQuery, tuples: Vector[WebTuple])

  /** The furthest-reaching of several coverages, which amortizes best. */
  def furthest(cs: IterableOnce[Coverage]): Option[Coverage] = cs.iterator.maxByOption(c => (c._1, c._2))
}

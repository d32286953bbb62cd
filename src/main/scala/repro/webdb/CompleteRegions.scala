package repro.webdb

import scala.collection.mutable

/** Complete regions: queries, each held with every tuple of the database
  * matching it — the semantic region cache of Dar et al. (VLDB'96). QR2
  * keeps them at two scopes: a session's billed responses and crawls
  * ([[WebDbConn]]) and the shared dense-region store. A query inside a
  * region is answered from it without asking the web database; any
  * containing region holds the same matches. Not thread-safe: a shared
  * owner locks around it.
  */
final class CompleteRegions {
  import CompleteRegions.Coverage

  private val regions = mutable.ArrayBuffer.empty[(WebQuery, Vector[WebTuple])]

  /** Every region with its tuples, oldest first. */
  def all: Vector[(WebQuery, Vector[WebTuple])] = regions.toVector

  /** Register `q` with every tuple matching it. */
  def add(q: WebQuery, tuples: Vector[WebTuple]): Unit = regions += ((q, tuples))

  def clear(): Unit = regions.clear()

  /** Every tuple matching `q`, if `q` lies inside a region. */
  def content(q: WebQuery): Option[Vector[WebTuple]] =
    regions.reverseIterator.find(r => q.within(r._1)).map(_._2.filter(q.matches))

  /** 1D: the region reaching furthest beyond key `lo` of `attr` (negated
    * when descending) that holds every `base` tuple there, as (end key, end
    * inclusive, region tuples). The caller answers from the tuples or skips
    * `lo` past the end; a region ending at `lo` covers nothing beyond it.
    */
  def coverageFrom(base: WebQuery, attr: String, asc: Boolean, lo: Double): Option[Coverage] =
    CompleteRegions.furthest(regions.iterator.flatMap { case (rq, ts) =>
      rq.num.get(attr).map(iv => (iv, if (asc) iv else iv.negate)).collect {
        case (iv, kIv) if kIv.coversAbove(lo) && base.and(attr, iv).within(rq) => (kIv.hi, kIv.hiIncl, ts)
      }
    })
}

object CompleteRegions {
  /** A covered key stretch: (end key, end inclusive, the region's tuples). */
  type Coverage = (Double, Boolean, Vector[WebTuple])

  /** The furthest-reaching of several coverages, which amortizes best. */
  def furthest(cs: IterableOnce[Coverage]): Option[Coverage] = cs.iterator.maxByOption(c => (c._1, c._2))
}

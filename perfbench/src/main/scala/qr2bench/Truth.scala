package qr2bench

import repro.core.{LinearRanking, Normalizer}
import repro.service.{MDRank, OneDRank}
import repro.webdb.LocalWebDb

import scala.collection.mutable

/** Exhaustive ground truth, computed from the catalogue's rows and never
  * from the service's state: the matching tuples in (score, id) order under
  * the data-true normalizer.
  */
object Truth {

  /** Ids of the first `n` answers of session `s`. */
  def topIds(db: LocalWebDb, s: SessionSpec, n: Int): Vector[Long] = {
    val (f, norm) = s.rank match {
      case OneDRank(a, asc) => (LinearRanking.oneD(a, asc), Normalizer.fromDomains(db.schema, Seq(a)))
      case md: MDRank       => (md.toLinear, Normalizer.fromTuples(db.allTuples, md.attrs))
    }
    def before(a: (Double, Long), b: (Double, Long)): Boolean =
      a._1 < b._1 || (a._1 == b._1 && a._2 < b._2)
    // Bounded heap whose head is the worst of the best n seen so far.
    val best = mutable.PriorityQueue.empty[(Double, Long)](Ordering.fromLessThan(before))
    db.allTuples.foreach { t =>
      if (s.base.matches(t)) {
        val c = (f.score(t, norm), t.id)
        if (best.size < n) best.enqueue(c)
        else if (before(c, best.head)) { best.dequeue(); best.enqueue(c) }
      }
    }
    best.toVector.sortWith(before).map(_._2)
  }
}

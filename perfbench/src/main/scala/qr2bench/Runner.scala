package qr2bench

import repro.service.{Qr2Service, Qr2Session}
import repro.webdb._

import scala.collection.mutable
import scala.util.control.NonFatal

/** One page as the user saw it. Counts are the session accountant's delta
  * plus the service accountant's delta (bootstrap traffic the page
  * triggered); the first page of a session includes `newSession`.
  */
final case class PageSample(
    session: Int,
    page: Int,
    coldPos: Int,
    wallNs: Long,
    queries: Long,
    rounds: Long,
    crawlQueries: Long,
    parallelQueries: Long,
    bootQueries: Long,
    bootRounds: Long,
    ids: Vector[Long],
    error: Option[String],
) {
  /** Everything that must repeat exactly when the same page is replayed. */
  def outcome: (Long, Long, Long, Long, Long, Long, Vector[Long], Boolean) =
    (queries, rounds, crawlQueries, parallelQueries, bootQueries, bootRounds, ids, error.isEmpty)
}

/** What a retired service's dense-region store held. */
final case class StoreEnd(entries: Int, indexedTuples: Long, distinctTuples: Int)

final case class Epoch(pages: Vector[PageSample], stores: Vector[StoreEnd], calibNs: Vector[Long])

/** Closed loop with one client: each session's pages are requested one
  * after the other, each only after the previous one returned. Accountant
  * snapshots are read outside the timed interval.
  */
final class Runner(sessions: Vector[SessionSpec], coldEvery: Int, pageSize: Int) {

  /** The services of the most recent epoch, alive until the next one starts
    * (so the heap after an epoch still holds their caches).
    */
  private var lastServices: Vector[Qr2Service] = Vector.empty

  /** Run the session list from fresh services over `backends`. A
    * calibration slice is timed before every session.
    */
  def epoch(backends: Vector[WebDb], tracer: Option[Tracer]): Epoch = {
    val pages  = Vector.newBuilder[PageSample]
    val stores = Vector.newBuilder[StoreEnd]
    val calib  = Vector.newBuilder[Long]
    def retire(): Unit = lastServices.foreach { svc =>
      val st = svc.store
      stores += StoreEnd(st.size, st.indexedTupleCount, st.allEntries.flatMap(_.tuples.map(_.id)).distinct.size)
    }
    lastServices = Vector.empty
    var i = 0
    while (i < sessions.size) {
      if (i == 0 || (coldEvery > 0 && i % coldEvery == 0)) {
        retire()
        lastServices = backends.map(db => new Qr2Service(tracer.fold(db)(timed(db, _))))
      }
      calib += Calibration.slice()
      pages ++= runSession(i, lastServices(sessions(i).cat), tracer)
      i += 1
    }
    retire()
    Epoch(pages.result(), stores.result(), calib.result())
  }

  private def timed(db: WebDb, tracer: Tracer): WebDb = {
    val answered = mutable.HashSet.empty[WebQuery]
    new TimedWebDb(db, (q, res, t0, t1) =>
      tracer.request(t0, t1, res.overflow, res.isEmpty, repeat = !answered.add(q)))
  }

  private def runSession(i: Int, svc: Qr2Service, tracer: Option[Tracer]): Vector[PageSample] = {
    val s        = sessions(i)
    val out      = Vector.newBuilder[PageSample]
    val sessSpan = tracer.map(_.begin("session"))
    var session: Qr2Session = null
    var p                   = 0
    var failed              = false
    while (p < s.pages && !failed) {
      val before    = if (session == null) DbStats.empty else session.stats
      val svcBefore = svc.serviceAcc.snapshot
      val pageSpan  = tracer.map(_.begin("page"))
      val t0        = System.nanoTime()
      val result =
        try {
          if (session == null) {
            val openSpan = tracer.map(_.begin("open"))
            session = svc.newSession(s.base, s.rank, s.algo)
            openSpan.foreach(sp => tracer.get.end(sp))
          }
          Right(session.getPage(pageSize))
        } catch { case NonFatal(e) => Left(e.toString) }
      val wallNs = System.nanoTime() - t0
      pageSpan.foreach(sp => tracer.get.end(sp))

      val after = if (session == null) DbStats.empty else session.stats
      val boot  = svc.serviceAcc.since(svcBefore)
      val batches = after.batchSizes.drop(before.batchSizes.size) ++ boot.batchSizes
      out += PageSample(
        session = i,
        page = p,
        coldPos = if (coldEvery > 0) i % coldEvery else i,
        wallNs = wallNs,
        queries = after.queries - before.queries + boot.queries,
        rounds = after.rounds - before.rounds + boot.rounds,
        crawlQueries = after.crawlQueries - before.crawlQueries + boot.crawlQueries,
        parallelQueries = batches.filter(_ > 1).map(_.toLong).sum,
        bootQueries = boot.queries,
        bootRounds = boot.rounds,
        ids = result.fold(_ => Vector.empty, _.map(_.id)),
        error = result.left.toOption,
      )
      failed = result.isLeft
      p += 1
    }
    sessSpan.foreach(sp => tracer.get.end(sp))
    out.result()
  }
}

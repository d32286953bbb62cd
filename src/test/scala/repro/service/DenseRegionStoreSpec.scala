package repro.service

import java.nio.file.Files
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** The dense-region store, the answer cache's persisted snapshot: the
  * complete-region lookups over its regions as the cache seeded from it
  * reads them (`stored`, 1D `coverageFrom` and `cut`), the cache's reset
  * to a verified store, Parquet persistence (the MySQL-cache substitution)
  * and its counts.
  */
class DenseRegionStoreSpec extends SparkSpec {

  private def t(id: Long, v: Double): WebTuple =
    WebTuple(id, Map("x" -> v, "y" -> 0.5), Map.empty)

  private def q(dims: (String, Interval)*): WebQuery = Box(dims.toMap).toQuery()

  /** A fresh cache seeded with a store holding each box with the given
    * tuples, in order.
    */
  private def cacheOf(entries: (Box, Seq[WebTuple])*): AnswerCache =
    new AnswerCache(TestFixtures.storeOf(entries: _*))

  /** The advertised domain of `x` handed to `coverageFrom`. */
  private val xDomain = Interval(0.0, 100.0)

  test("content hits only regions containing the query") {
    val s = cacheOf(Box(Map("x" -> Interval(0.0, 10.0))) -> Seq(t(1, 5.0)))
    assert(s.stored(q("x" -> Interval(2.0, 3.0))).isDefined)
    assert(s.stored(q("x" -> Interval(5.0, 12.0))).isEmpty)
    assert(s.stored(q("y" -> Interval(2.0, 3.0))).isEmpty,
      "a probe on a different attribute is unconstrained on x and must miss")
  }

  test("content with multi-dim entries requires containment on every entry dim") {
    val s = cacheOf(Box(Map("x" -> Interval(0.0, 10.0), "y" -> Interval(0.0, 1.0))) -> Seq(t(1, 5.0)))
    assert(s.stored(q("x" -> Interval(1.0, 2.0), "y" -> Interval(0.2, 0.5))).isDefined)
    assert(s.stored(q("x" -> Interval(1.0, 2.0))).isEmpty,
      "probe unconstrained on y is not contained in the entry")
  }

  test("coverageFrom covers frontiers inside the region and skips those at its end") {
    val s = cacheOf(Box(Map("x" -> Interval(1.0, 2.0))) -> Seq(t(1, 1.5)))
    assert(s.coverageFrom(WebQuery.all, "x", asc = true, 0.9, xDomain).isEmpty, "region starts above the frontier")
    val Some((end, incl, ts)) = s.coverageFrom(WebQuery.all, "x", asc = true, 1.2, xDomain)
    assert(end == 2.0 && incl && ts.map(_.id) == Vector(1L))
    assert(s.coverageFrom(WebQuery.all, "x", asc = true, 2.0, xDomain).isEmpty,
      "a region ending at the frontier covers nothing beyond it")
    assert(s.coverageFrom(WebQuery.all, "x", asc = true, 1.0, xDomain).isDefined,
      "closed region covers the neighbourhood above its own lower bound")
  }

  test("coverageFrom in descending key space flips the interval") {
    val s = cacheOf(Box(Map("x" -> Interval(1.0, 2.0))) -> Seq(t(1, 1.5)))
    // keys are −x: the region covers keys [−2, −1]
    val Some((end, _, _)) = s.coverageFrom(WebQuery.all, "x", asc = false, -1.8, xDomain)
    assert(end == -1.0)
    assert(s.coverageFrom(WebQuery.all, "x", asc = false, -0.5, xDomain).isEmpty)
  }

  test("coverageFrom prefers the furthest-reaching entry") {
    val s = cacheOf(
      Box(Map("x" -> Interval(0.0, 1.0))) -> Seq(t(1, 0.5)),
      Box(Map("x" -> Interval(0.0, 3.0))) -> Seq(t(2, 2.5)),
    )
    val Some((end, _, ts)) = s.coverageFrom(WebQuery.all, "x", asc = true, 0.2, xDomain)
    assert(end == 3.0 && ts.map(_.id) == Vector(2L))
  }

  test("coverageFrom ignores multi-dimensional entries") {
    val s = cacheOf(Box(Map("x" -> Interval(0.0, 10.0), "y" -> Interval(0.0, 1.0))) -> Seq(t(1, 5.0)))
    assert(s.coverageFrom(WebQuery.all, "x", asc = true, 1.0, xDomain).isEmpty,
      "an unconstrained base reaches beyond the entry's y interval")
  }

  test("coverageFrom reads a multi-dimensional entry for a base inside its other dimensions") {
    val s = cacheOf(Box(Map("x" -> Interval(0.0, 10.0), "y" -> Interval(0.0, 1.0))) -> Seq(t(1, 5.0)))
    val Some((end, incl, ts)) = s.coverageFrom(q("y" -> Interval(0.2, 0.5)), "x", asc = true, 1.0, xDomain)
    assert(end == 10.0 && incl && ts.map(_.id) == Vector(1L))
    assert(s.coverageFrom(q("y" -> Interval(0.5, 2.0)), "x", asc = true, 1.0, xDomain).isEmpty,
      "a base reaching past the entry's y interval")
  }

  test("coverageFrom reads a region leaving the attribute unconstrained as covering its whole domain") {
    val s    = cacheOf(Box(Map("y" -> Interval(0.0, 1.0))) -> Seq(t(1, 5.0)))
    val base = q("y" -> Interval(0.2, 0.5))
    val Some((end, incl, ts)) = s.coverageFrom(base, "x", asc = true, -1.0, xDomain)
    assert(end == 100.0 && incl && ts.map(_.id) == Vector(1L))
    val Some((endDesc, _, _)) = s.coverageFrom(base, "x", asc = false, -100.5, xDomain)
    assert(endDesc == 0.0)
    assert(s.coverageFrom(base, "x", asc = true, 100.0, xDomain).isEmpty, "nothing lies beyond the domain")
    assert(s.coverageFrom(WebQuery.all, "x", asc = true, -1.0, xDomain).isEmpty,
      "an unconstrained base reaches beyond the entry's y interval")
  }

  test("cut finds a region holding the query on every attribute but one, and more than k of its tuples") {
    val s = cacheOf(Box(Map("x" -> Interval.point(1.0), "y" -> Interval(0.0, 1.0))) -> (1L to 3L).map(t(_, 1.0)))
    val query             = q("x" -> Interval(0.0, 2.0), "y" -> Interval(0.2, 0.8))
    val Some((a, iv, ts)) = s.cut(query, 2)
    assert(a == "x" && iv == Interval.point(1.0) && ts.map(_.id) == Vector(1L, 2L, 3L))
    assert(s.cut(query, 3).isEmpty, "the region holds at most k of the query's tuples")
    assert(s.cut(q("x" -> Interval(0.0, 2.0), "y" -> Interval(0.2, 1.5)), 2).isEmpty, "cuts on two attributes")
    assert(s.cut(q("x" -> Interval(2.0, 3.0), "y" -> Interval(0.2, 0.8)), 2).isEmpty, "misses on x")
    assert(s.cut(q("y" -> Interval(0.2, 0.8)), 2).map(_._1).contains("x"), "a query leaving x unconstrained")
  }

  test("replaceAll swaps the content atomically") {
    // Boot-time verification resets the cache to the verified store.
    val s = cacheOf(Box(Map("x" -> Interval(0.0, 1.0))) -> Seq(t(1, 0.5)))
    s.reset(TestFixtures.storeOf(Box(Map("x" -> Interval(5.0, 6.0))) -> Seq(t(9, 5.5))))
    assert(s.store.size == 1)
    assert(s.stored(q("x" -> Interval(5.2, 5.8))).get.map(_.id) == Vector(9L))
    assert(s.stored(q("x" -> Interval(0.2, 0.8))).isEmpty)
  }

  test("persist/load round-trips regions and tuples through Parquet") {
    val db  = TestFixtures.diamonds(spark, 0.002)
    val box = Box(Map("lwr" -> Interval.point(1.0)))
    val ts  = db.allTuples.filter(_.num("lwr") == 1.0)
    val s   = TestFixtures.storeOf(
      box -> ts,
      Box(Map("price" -> Interval(200.0, 500.0))) -> db.allTuples.filter(_.num("price") <= 500.0),
    )
    val dir = Files.createTempDirectory("qr2-store").toString
    s.persist(spark, dir)
    val loaded = DenseRegionStore.load(spark, dir)
    assert(loaded.size == s.size)
    val cache = new AnswerCache(loaded)
    assert(cache.stored(box.toQuery()).get.map(_.id).sorted == ts.map(_.id).sorted)
    // full tuple content (numeric + categorical) survives
    val orig = ts.sortBy(_.id)
    assert(cache.stored(box.toQuery()).get.sortBy(_.id) == orig)
  }

  test("persist/load keeps region order, open bounds and empty regions") {
    val db    = TestFixtures.diamonds(spark, 0.002)
    val open  = Box(Map("price" -> Interval.openClosed(200.0, 500.0)))
    val wide  = Box(Map("price" -> Interval(200.0, 1000.0)))
    val empty = Box(Map("carat" -> Interval(9.0, 9.5)))
    val s     = TestFixtures.storeOf(
      open  -> db.allTuples.filter(open.toQuery().matches),
      wide  -> db.allTuples.filter(wide.toQuery().matches),
      empty -> Seq.empty,
    )
    val dir = Files.createTempDirectory("qr2-store-order").toString
    s.persist(spark, dir)
    val loaded = DenseRegionStore.load(spark, dir)
    assert(loaded.allEntries.map(_.box) == Vector(open, wide, empty))
    // Any containing region yields the same set: every tuple matching the query.
    val cache = new AnswerCache(loaded)
    def ids(b: Box): Option[Vector[Long]] = cache.stored(b.toQuery()).map(_.map(_.id).sorted)
    def matching(b: Box): Option[Vector[Long]] = Some(db.allTuples.filter(b.toQuery().matches).map(_.id).sorted)
    val inBoth = Box(Map("price" -> Interval(300.0, 400.0)))
    assert(ids(inBoth) == matching(inBoth), "inside both regions")
    val inWide = Box(Map("price" -> Interval(200.0, 400.0)))
    assert(ids(inWide) == matching(inWide), "200 lies outside the open first region, so only the second holds it")
    assert(cache.stored(q("carat" -> Interval(9.1, 9.2))) == Some(Vector.empty))
  }

  test("indexedTupleCount sums entry sizes") {
    val s = TestFixtures.storeOf(
      Box(Map("x" -> Interval(0.0, 1.0))) -> Seq(t(1, 0.5), t(2, 0.6)),
      Box(Map("x" -> Interval(2.0, 3.0))) -> Seq(t(3, 2.5)),
    )
    assert(s.indexedTupleCount == 3)
    assert(s.size == 2)
  }
}

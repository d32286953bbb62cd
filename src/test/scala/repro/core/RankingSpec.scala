package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.webdb.{Box, Interval, WebData, WebTuple}

import scala.util.Random

/** Normalizer, LinearRanking, KeySpace and RankContour unit semantics. */
class RankingSpec extends AnyFunSuite {

  private val norm = Normalizer(Map("price" -> (0.0, 100.0), "carat" -> (1.0, 3.0)))

  private def t(id: Long, p: Double, c: Double): WebTuple =
    WebTuple(id, Map("price" -> p, "carat" -> c), Map.empty)

  test("normalizer maps min→0, max→1, midpoint→0.5") {
    assert(norm("price", 0.0) == 0.0)
    assert(norm("price", 100.0) == 1.0)
    assert(norm("price", 50.0) == 0.5)
  }

  test("degenerate attribute normalizes to 0") {
    val n = Normalizer(Map("x" -> (5.0, 5.0)))
    assert(n("x", 5.0) == 0.0)
    assert(n.span("x") == 0.0)
  }

  test("denorm inverts apply (within the range) and clamps outside") {
    val r = new Random(10)
    (1 to 200).foreach { _ =>
      val v = r.between(0.0, 100.0)
      assert(math.abs(norm.denorm("price", norm("price", v)) - v) < 1e-9)
    }
    assert(norm.denorm("price", -0.5) == 0.0)
    assert(norm.denorm("price", 1.5) == 100.0)
  }

  test("LinearRanking.score is the weighted sum of normalized values") {
    val f = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))
    val s = f.score(t(1, 50.0, 2.0), norm)
    assert(math.abs(s - (0.5 - 0.5 * 0.5)) < 1e-12)
  }

  test("LinearRanking rejects empty and duplicate attribute lists") {
    intercept[IllegalArgumentException](LinearRanking(Nil))
    intercept[IllegalArgumentException](LinearRanking(Seq("a" -> 1.0, "a" -> 2.0)))
  }

  test("oneD ascending prefers small values, descending prefers large") {
    val asc  = LinearRanking.oneD("price", asc = true)
    val desc = LinearRanking.oneD("price", asc = false)
    assert(asc.score(t(1, 10.0, 1.0), norm) < asc.score(t(2, 90.0, 1.0), norm))
    assert(desc.score(t(1, 90.0, 1.0), norm) < desc.score(t(2, 10.0, 1.0), norm))
  }

  test("bestTerm/worstTerm sit at the correct interval ends") {
    val f  = LinearRanking(Seq("price" -> 1.0))
    val iv = Interval(20.0, 80.0)
    assert(f.bestTerm("price", 1.0, iv, norm) == norm("price", 20.0))
    assert(f.worstTerm("price", 1.0, iv, norm) == norm("price", 80.0))
    assert(f.bestTerm("price", -1.0, iv, norm) == -norm("price", 80.0))
    assert(f.worstTerm("price", -1.0, iv, norm) == -norm("price", 20.0))
  }

  test("KeySpace ascending is identity; descending negates and flips intervals") {
    val dom = Interval(0.0, 100.0)
    val asc = KeySpace("price", asc = true, dom)
    assert(asc.key(30.0) == 30.0 && asc.raw(30.0) == 30.0)
    assert(asc.toRaw(Interval.openClosed(10.0, 20.0)) == Interval.openClosed(10.0, 20.0))

    val desc = KeySpace("price", asc = false, dom)
    assert(desc.key(30.0) == -30.0 && desc.raw(-30.0) == 30.0)
    assert(desc.keyDomain == Interval(-100.0, 0.0))
    val raw = desc.toRaw(Interval.openClosed(-20.0, -10.0)) // keys (−20, −10] ⇔ raw [10, 20)
    assert(raw == Interval(10.0, 20.0, loIncl = true, hiIncl = false))
  }

  test("KeySpace round-trip: membership preserved under toRaw (400 random cases)") {
    val dom = Interval(0.0, 100.0)
    val r   = new Random(11)
    Seq(true, false).foreach { asc =>
      val ks = KeySpace("price", asc, dom)
      (1 to 200).foreach { _ =>
        val a  = r.between(-100.0, 100.0)
        val b  = r.between(-100.0, 100.0)
        val iv = Interval(math.min(a, b), math.max(a, b), r.nextBoolean(), r.nextBoolean())
        val v  = r.between(0.0, 100.0)
        assert(iv.contains(ks.key(v)) == ks.toRaw(iv).contains(v))
      }
    }
  }

  test("RankContour.minScore/maxScore bound every tuple score in the box (random boxes)") {
    val f   = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))
    val r   = new Random(12)
    (1 to 200).foreach { _ =>
      val pLo = r.between(0.0, 50.0); val pHi = pLo + r.between(0.0, 50.0)
      val cLo = r.between(1.0, 2.0); val cHi = cLo + r.between(0.0, 1.0)
      val box = Box(Map("price" -> Interval(pLo, pHi), "carat" -> Interval(cLo, cHi)))
      val ms  = RankContour.minScore(f, box, norm)
      val xs  = RankContour.maxScore(f, box, norm)
      (1 to 10).foreach { i =>
        val tp = t(i.toLong, r.between(pLo, pHi), r.between(cLo, cHi))
        val s  = f.score(tp, norm)
        assert(s >= ms - 1e-9 && s <= xs + 1e-9, s"score $s outside [$ms, $xs]")
      }
    }
  }

  test("RankContour.clip never cuts away a tuple below the contour (random)") {
    val f = LinearRanking(Seq("price" -> 1.0, "carat" -> -0.5))
    val r = new Random(13)
    (1 to 300).foreach { _ =>
      val box   = Box(Map("price" -> Interval(0.0, 100.0), "carat" -> Interval(1.0, 3.0)))
      val sStar = r.between(-0.5, 1.0)
      val clip  = RankContour.clip(f, box, sStar, norm)
      (1 to 10).foreach { i =>
        val tp = t(i.toLong, r.between(0.0, 100.0), r.between(1.0, 3.0))
        if (f.score(tp, norm) <= sStar)
          assert(clip.toQuery().matches(tp), s"clip at $sStar dropped tuple with score ${f.score(tp, norm)}")
      }
    }
  }

  test("RankContour.clip returns an empty box when nothing can beat s*") {
    val f    = LinearRanking(Seq("price" -> 1.0))
    val box  = Box(Map("price" -> Interval(50.0, 100.0)))
    val clip = RankContour.clip(f, box, sStar = 0.1, norm) // best corner scores 0.5
    assert(clip.isEmpty)
  }

  test("RankContour.shrank detects meaningful clipping only") {
    val box = Box(Map("price" -> Interval(0.0, 100.0)))
    assert(RankContour.shrank(box, Box(Map("price" -> Interval(0.0, 50.0)))))
    assert(!RankContour.shrank(box, Box(Map("price" -> Interval(0.0, 99.9)))))
  }

  test("Normalizer.fromDomains and fromTuples agree on schema-wide data") {
    val d    = Normalizer.fromDomains(WebData.diamondSchema, Seq("depth"))
    assert(d.minMax("depth") == (55.0, 75.0))
    val ts = Vector(t(1, 5.0, 1.5), t(2, 95.0, 2.5))
    val n  = Normalizer.fromTuples(ts, Seq("price", "carat"))
    assert(n.minMax("price") == (5.0, 95.0) && n.minMax("carat") == (1.5, 2.5))
  }
}

package repro.webdb

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** WebQuery and Box semantics: conjunction, matching, splitting,
  * containment — the predicate algebra under the MD strategies.
  */
class ModelSpec extends AnyFunSuite {

  private def t(id: Long, vals: (String, Double)*): WebTuple =
    WebTuple(id, vals.toMap, Map("cut" -> "Ideal"))

  test("WebQuery.and intersects constraints on the same attribute") {
    val q = WebQuery.all.and("x", Interval(0.0, 10.0)).and("x", Interval(5.0, 20.0))
    assert(q.matches(t(1, "x" -> 7.0)))
    assert(!q.matches(t(2, "x" -> 3.0)))
    assert(!q.matches(t(3, "x" -> 12.0)))
  }

  test("WebQuery.andCat intersects value sets") {
    val q = WebQuery.all.andCat("cut", Set("Ideal", "Good")).andCat("cut", Set("Good", "Fair"))
    assert(q.cat("cut") == Set("Good"))
    assert(q.unsatisfiable == false)
    assert(q.andCat("cut", Set("Ideal")).unsatisfiable)
  }

  test("unsatisfiable detects empty numeric constraint") {
    assert(WebQuery.all.and("x", Interval(5.0, 4.0)).unsatisfiable)
    assert(!WebQuery.all.and("x", Interval(4.0, 5.0)).unsatisfiable)
  }

  test("matches ignores unconstrained attributes") {
    val q = WebQuery.all.and("x", Interval(0.0, 1.0))
    assert(q.matches(t(1, "x" -> 0.5, "y" -> 999.0)))
  }

  test("Box.split partitions: every point lands in exactly one child (1000 random points)") {
    val box      = Box(Map("x" -> Interval(0.0, 10.0), "y" -> Interval(-5.0, 5.0)))
    val (b1, b2) = box.split("x")
    val r        = new Random(6)
    (1 to 1000).foreach { i =>
      val p = t(i.toLong, "x" -> r.between(0.0, 10.0), "y" -> r.between(-5.0, 5.0))
      val (in1, in2) = (b1.toQuery().matches(p), b2.toQuery().matches(p))
      assert(box.toQuery().matches(p))
      assert(in1 != in2, s"point $p in ${if (in1) "both" else "neither"}")
    }
    // the split midpoint belongs to the left child only
    val mid = t(0, "x" -> 5.0, "y" -> 0.0)
    assert(b1.toQuery().matches(mid) && !b2.toQuery().matches(mid))
  }

  test("Box.toQuery matches exactly box membership") {
    val box = Box(Map("x" -> Interval(2.0, 4.0, loIncl = false, hiIncl = true)))
    val q   = box.toQuery()
    Seq(1.9 -> false, 2.0 -> false, 2.1 -> true, 4.0 -> true, 4.1 -> false).foreach { case (v, in) =>
      assert(q.matches(t(1, "x" -> v)) == in, s"x = $v")
    }
  }

  test("WebQuery.within honours unconstrained dimensions") {
    val small = Box(Map("x" -> Interval(1.0, 2.0), "y" -> Interval(0.0, 1.0))).toQuery()
    val bigX  = Box(Map("x" -> Interval(0.0, 3.0))).toQuery()
    assert(small.within(bigX)) // bigX unconstrained on y
    assert(!bigX.within(small)) // bigX leaves y free; small constrains it
  }

  test("TopKResponse.isEmpty") {
    assert(TopKResponse(Nil, overflow = false).isEmpty)
    assert(!TopKResponse(Seq(t(1, "x" -> 1.0)), overflow = true).isEmpty)
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.webdb.WebTuple

/** The candidate pool every MD strategy and TA share. */
class CandidatesSpec extends AnyFunSuite {

  private def t(id: Long, score: Double): WebTuple = WebTuple(id, Map("s" -> score), Map.empty)

  test("candidates come out in (score, id) order and an emitted id never comes back") {
    val c = new Candidates(_.num("s"))
    assert(c.best.isEmpty && c.emit().isEmpty && c.lastEmitted == Double.NegativeInfinity)

    c.add(Seq(t(3, 0.5), t(1, 0.5), t(2, 0.7), t(4, 0.2)))
    assert(c.emit().map(_.id) == Some(4L))
    assert(c.lastEmitted == 0.2)
    // Equal scores in id order.
    assert(c.emit().map(_.id) == Some(1L))
    assert(c.best.map(_._2.id) == Some(3L))
    assert(c.lastEmitted == 0.5)

    // Emitted ids are ignored, whether seen again before or after a clear.
    c.add(Seq(t(4, 0.2), t(1, 0.5)))
    assert(c.best.map { case (s, x) => (s, x.id) } == Some((0.5, 3L)))
    c.clear()
    assert(c.best.isEmpty && c.lastEmitted == 0.5)
    c.add(Seq(t(1, 0.5), t(4, 0.2), t(2, 0.7)))
    assert(c.emit().map(_.id) == Some(2L))
    assert(c.lastEmitted == 0.7)
    assert(c.emit().isEmpty)
  }

  test("scoreAt reads the r-th best score, and a dropped tuple leaves and never comes back") {
    val c = new Candidates(_.num("s"))
    c.add(Seq(t(3, 0.5), t(1, 0.5), t(2, 0.7)))
    assert(c.scoreAt(1) == Some(0.5) && c.scoreAt(3) == Some(0.7) && c.scoreAt(4).isEmpty)
    c.drop(t(1, 0.5))
    assert(c.wasEmitted(t(1, 0.5)) && !c.wasEmitted(t(3, 0.5)))
    c.add(Seq(t(1, 0.5)))
    assert(c.best.map(_._2.id) == Some(3L) && c.scoreAt(2) == Some(0.7))
  }
}

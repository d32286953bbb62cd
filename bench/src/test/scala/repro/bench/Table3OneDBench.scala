package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 3 — the §III-B 1D demonstration: query cost of the three 1D
  * strategies under orders with different correlation to the hidden system
  * ranking, plus the dense-attribute order.
  *
  * Paper shape: BASELINE is cheap when positively correlated and poor when
  * anti-correlated; BINARY is insensitive to correlation but "performs
  * badly in dense regions"; RERANK resolves the dense regions via
  * on-the-fly indexing.
  */
class Table3OneDBench extends SparkSpec {

  private lazy val rows = table3(spark)

  private def q(scenario: String, algo: String): Long =
    rows.find(r => r.scenario.startsWith(scenario) && r.algo == algo).get.queries

  test("Table 3: print") {
    println(report3(rows))
  }

  test("shape: BASELINE cheap when positively correlated, ≫ when anti-correlated") {
    assert(q("pos-correlated", "BASELINE") < 60)
    assert(q("anti-correlated", "BASELINE") > 10 * q("pos-correlated", "BASELINE"))
  }

  test("shape: BINARY is insensitive to the correlation direction") {
    val asc  = q("pos-correlated", "BINARY")
    val desc = q("anti-correlated", "BINARY")
    assert(desc < 10 * asc && asc < 10 * desc, s"binary asc=$asc desc=$desc")
  }

  test("shape: BINARY beats BASELINE on the anti-correlated order") {
    assert(q("anti-correlated", "BINARY") < q("anti-correlated", "BASELINE"))
  }

  test("shape: the dense spike costs every strategy a crawl (general positioning)") {
    Seq("BASELINE", "BINARY", "RERANK").foreach { a =>
      val row = rows.find(r => r.scenario.startsWith("dense") && r.algo == a).get
      assert(row.crawlQueries > 0, s"$a did not crawl the spike")
    }
  }

  test("shape: RERANK is never dramatically worse than BINARY") {
    Seq("pos-correlated", "anti-correlated", "independent", "dense").foreach { s =>
      assert(q(s, "RERANK") <= 3 * q(s, "BINARY") + 30,
        s"$s: rerank=${q(s, "RERANK")} binary=${q(s, "BINARY")}")
    }
  }
}

package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 4 — the §III-B MD demonstration: query cost of the four MD
  * strategies across slider-weight combinations (positive, mixed, negative)
  * and dimensionality, including the paper's 3D Blue Nile example
  * `price − 0.1·carat − 0.5·depth`.
  */
class Table4MDBench extends SparkSpec {

  private lazy val rows = table4(spark)

  private def q(ranking: String, algo: String): Long =
    rows.find(r => r.ranking.startsWith(ranking) && r.algo == algo).get.queries

  test("Table 4: print") {
    println(report4(rows))
  }

  test("shape: every strategy discovers the page (positive cost everywhere)") {
    rows.foreach(r => assert(r.queries > 0, s"$r"))
  }

  test("shape: BASELINE is competitive on the correlated ranking") {
    assert(q("2D pos", "BASELINE") <= 2 * q("2D pos", "BINARY") + 50,
      s"baseline=${q("2D pos", "BASELINE")} binary=${q("2D pos", "BINARY")}")
  }

  test("shape: BINARY/RERANK beat BASELINE on the anti-correlated ranking") {
    assert(q("2D anti", "BINARY") < q("2D anti", "BASELINE"))
    assert(q("2D anti", "RERANK") < q("2D anti", "BASELINE"))
  }

  test("shape: anti-correlated costs BASELINE far more than correlated") {
    assert(q("2D anti", "BASELINE") > 2 * q("2D pos", "BASELINE"),
      s"anti=${q("2D anti", "BASELINE")} pos=${q("2D pos", "BASELINE")}")
  }

  test("shape: 3D costs more than the comparable 2D ranking for the same strategy") {
    Seq("BINARY", "RERANK").foreach { a =>
      assert(q("3D", a) >= q("2D mixed", a) / 2,
        s"$a 3D=${q("3D", a)} 2D=${q("2D mixed", a)}")
    }
  }
}

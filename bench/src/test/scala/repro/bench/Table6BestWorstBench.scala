package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 6 — the §III-B best/worst cases. Worst: rankings touching the
  * length/width ratio must crawl the 20 % spike at lwr = 1.00 before
  * answering ("the system needs to crawl all these tuples before returning
  * the results"), but a second session on the same service is cheap (low
  * amortized cost). Best: `price + sqft` on the housing site — positive
  * attribute correlation and positive correlation with the system ranking —
  * "makes the algorithms finish quickly".
  */
class Table6BestWorstBench extends SparkSpec {

  private lazy val rows = table6(spark)

  private def row(prefix: String) = rows.find(_.scenario.startsWith(prefix)).get

  test("Table 6: print") {
    println(report6(rows))
  }

  test("shape: the 1D worst case is dominated by crawl traffic") {
    val w = row("worst 1D")
    assert(w.run1CrawlQueries > w.run1Queries / 2,
      s"crawl=${w.run1CrawlQueries} of ${w.run1Queries}")
  }

  test("shape: worst cases cost an order of magnitude more than the best case") {
    val best = row("best MD")
    Seq(row("worst 1D"), row("worst MD")).foreach { w =>
      assert(w.run1Queries > 5 * best.run1Queries,
        s"${w.scenario}: ${w.run1Queries} vs best ${best.run1Queries}")
    }
  }

  test("shape: the second run of the 1D worst case is cheap (amortization)") {
    val w = row("worst 1D")
    assert(w.run2Queries < w.run1Queries / 5,
      s"run1=${w.run1Queries} run2=${w.run2Queries}")
  }

  test("shape: the best case finishes in tens of queries") {
    assert(row("best MD").run1Queries < 300, s"${row("best MD").run1Queries}")
  }
}

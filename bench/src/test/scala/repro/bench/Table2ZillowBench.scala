package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 2 — the §II-C statistics-panel data point: one MD-RERANK top-10
  * session on the housing catalogue with `price − 0.3·sqft`.
  *
  * Paper: "the system issued 27 queries to the Zillow server, which took
  * 33 seconds" (≈1.2 s per sequential round-trip — the latency constant of
  * the simulator).
  */
class Table2ZillowBench extends SparkSpec {

  private lazy val local = table2(spark)
  private lazy val viaSpark = table2(spark, sf = 0.01, useSparkBackend = true)

  test("Table 2: print") {
    println(report2(Seq(local, viaSpark)))
  }

  test("shape: cost is tens of queries, same order of magnitude as the paper's 27") {
    assert(local.queries >= 5 && local.queries <= 270,
      s"${local.queries} queries is not the paper's order of magnitude")
  }

  test("shape: simulated latency lands in tens of seconds like the paper's 33 s") {
    assert(local.simulatedSec >= 3 && local.simulatedSec <= 330,
      s"${local.simulatedSec} s")
  }

  test("the Catalyst-backed web database reproduces the experiment end to end") {
    assert(viaSpark.queries > 0)
    assert(viaSpark.backend == "spark")
  }
}

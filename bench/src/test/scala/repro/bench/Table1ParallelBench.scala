package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 1 — reproduction of Fig 2: the fraction of parallel-processed
  * iterations during MD-RERANK discovery on the diamond catalogue.
  *
  * Paper: 2D — 44 of 45 iterations parallel (≈97.8 %); 3D — "more than 90 %
  * of queries were submitted in parallel".
  */
class Table1ParallelBench extends SparkSpec {

  private lazy val rows = table1(spark)

  test("Table 1: print") {
    println(report1(rows))
  }

  test("shape: >90% of 3D queries travel in parallel batches (paper's Fig 2a claim)") {
    val r3 = rows.find(_.dims == 3).get
    assert(r3.parallelQueryFrac > 0.90,
      s"3D: only ${pct(r3.parallelQueryFrac)} of queries parallel")
  }

  test("shape: >90% of 2D queries travel in parallel batches (paper: 44 of 45 iterations)") {
    val r2 = rows.find(_.dims == 2).get
    assert(r2.parallelQueryFrac > 0.90,
      s"2D: only ${pct(r2.parallelQueryFrac)} of queries parallel")
  }

  test("shape: most iterations are parallel in both dimensionalities") {
    rows.foreach { r =>
      assert(r.parallelRoundFrac > 0.5,
        s"${r.dims}D parallel-round fraction ${pct(r.parallelRoundFrac)}")
    }
  }
}

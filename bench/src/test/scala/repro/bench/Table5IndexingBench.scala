package repro.bench

import repro.SparkSpec
import repro.bench.Experiments._

/** Table 5 — the §III-B on-the-fly indexing demonstration: ten successive
  * sessions ranking by the dense attribute under different filters, on a
  * shared service. RERANK crawls and indexes the lwr = 1.00 spike once and
  * serves later sessions from the store; BINARY re-pays the dense region in
  * every session ("thanks to the on-the-fly indexing, (1D/MD)-RERANK will
  * still have a low amortized cost in these cases"). Table 5b: an MD
  * session reads the spike a 1D session indexed.
  */
class Table5IndexingBench extends SparkSpec {

  private lazy val rows  = table5(spark)
  private lazy val cross = table5Cross(spark)

  test("Table 5: print") {
    println(report5(rows))
    println(report5Cross(cross))
  }

  test("shape: after the first session, RERANK sessions are nearly free") {
    val later = rows.drop(1)
    later.foreach { r =>
      assert(r.rerankQueries < rows.head.rerankQueries / 5,
        s"session ${r.session}: rerank=${r.rerankQueries} vs first=${rows.head.rerankQueries}")
    }
  }

  test("shape: BINARY keeps paying the dense region every session") {
    rows.foreach(r => assert(r.binaryQueries > 20, s"session ${r.session}: ${r.binaryQueries}"))
  }

  test("shape: RERANK total cost across ten sessions is below BINARY's") {
    val bTotal = rows.map(_.binaryQueries).sum
    val rTotal = rows.map(_.rerankQueries).sum
    assert(rTotal < bTotal, s"rerank total $rTotal vs binary total $bTotal")
  }

  test("shape: RERANK amortized (mean over sessions 2..10) ≪ BINARY amortized") {
    val later = rows.drop(1)
    val rMean = later.map(_.rerankQueries).sum.toDouble / later.size
    val bMean = later.map(_.binaryQueries).sum.toDouble / later.size
    assert(rMean < bMean / 5, s"rerank mean $rMean vs binary mean $bMean")
  }

  test("shape: an MD crawl through the spike a 1D session indexed crawls less than on an empty store") {
    cross.foreach { r =>
      assert(r.warmCrawl < r.emptyCrawl, s"${r.filter}: warm ${r.warmCrawl} vs empty ${r.emptyCrawl}")
    }
  }
}

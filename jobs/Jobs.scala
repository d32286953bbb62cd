package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Experiments
import repro.bench.Experiments._

/** Shared SparkSession bootstrap for the spark-submit entrypoints.
  * `args(0)`, when present, overrides the scale factor.
  */
object JobHarness {
  def spark(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def sfArg(args: Array[String], default: Double): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}

/** Table 1 (Fig 2) — parallel-processed iterations, 2D vs 3D MD-RERANK. */
object Table1Parallel {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table1")
    val rows  = table1(spark, JobHarness.sfArg(args, benchSf))
    println(render(
      "Table 1 — parallel iterations (paper Fig 2: 2D 44/45 ≈ 97.8% parallel, 3D > 90% of queries parallel)",
      Seq("dims", "ranking", "rounds", "parallel", "round%", "query%", CrawlHeader),
      rows.map(r => Seq(r.dims.toString, r.ranking, r.rounds.toString,
        r.parallelRounds.toString, pct(r.parallelRoundFrac), pct(r.parallelQueryFrac),
        crawl(r.crawlQueries, r.crawlBound))),
    ))
    spark.stop()
  }
}

/** Table 2 — the §II-C statistics-panel example (paper: 27 queries, 33 s). */
object Table2Zillow {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table2")
    val r     = table2(spark, JobHarness.sfArg(args, benchSf))
    println(render(
      "Table 2 — Zillow price − 0.3·sqft, MD-RERANK top-10 (paper: 27 queries, 33 s)",
      Seq("backend", "queries", "rounds", "simulated s", CrawlHeader),
      Seq(Seq(r.backend, r.queries.toString, r.rounds.toString, f"${r.simulatedSec}%.1f",
        crawl(r.crawlQueries, r.crawlBound))),
    ))
    spark.stop()
  }
}

/** Table 3 — 1D strategies × correlation scenarios. */
object Table3OneD {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table3")
    val rows  = table3(spark, JobHarness.sfArg(args, benchSfSmall))
    println(render(
      "Table 3 — 1D query cost, top-10 (paper §III-B: baseline cheap when positively correlated, binary fails in dense regions)",
      Seq("scenario", "algo", "queries", CrawlHeader),
      rows.map(r => Seq(r.scenario, r.algo, r.queries.toString, crawl(r.crawlQueries, r.crawlBound))),
    ))
    spark.stop()
  }
}

/** Table 4 — MD strategies × weight combinations. */
object Table4MD {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table4")
    val rows  = table4(spark, JobHarness.sfArg(args, benchSfSmall))
    println(render(
      "Table 4 — MD query cost, top-10",
      Seq("ranking", "algo", "queries", CrawlHeader),
      rows.map(r => Seq(r.ranking, r.algo, r.queries.toString, crawl(r.crawlQueries, r.crawlBound))),
    ))
    spark.stop()
  }
}

/** Table 5 — on-the-fly indexing amortization across sessions. */
object Table5Indexing {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table5")
    val rows  = table5(spark, JobHarness.sfArg(args, benchSfSmall))
    println(render(
      "Table 5 — per-session cost on the dense attribute (paper §III-B: RERANK has low amortized cost)",
      Seq("session", "filter", "BINARY queries", "RERANK queries", s"BINARY $CrawlHeader", s"RERANK $CrawlHeader"),
      rows.map(r => Seq(r.session.toString, r.filter, r.binaryQueries.toString, r.rerankQueries.toString,
        crawl(r.binaryCrawl, r.binaryCrawlBound), crawl(r.rerankCrawl, r.rerankCrawlBound))),
    ))
    spark.stop()
  }
}

/** Table 6 — the paper's named best and worst cases. */
object Table6BestWorst {
  def main(args: Array[String]): Unit = {
    val spark = JobHarness.spark("qr2-table6")
    val rows  = table6(spark, JobHarness.sfArg(args, benchSfSmall))
    println(render(
      "Table 6 — best vs worst cases (paper §III-B)",
      Seq("scenario", "run1 queries", s"run1 $CrawlHeader", "run1 sim s", "run2 queries"),
      rows.map(r => Seq(r.scenario, r.run1Queries.toString, crawl(r.run1CrawlQueries, r.run1CrawlBound),
        f"${r.run1SimSec}%.1f", r.run2Queries.toString)),
    ))
    spark.stop()
  }
}

/** Run every table in sequence (convenience entrypoint). */
object RunAll {
  def main(args: Array[String]): Unit = {
    Table1Parallel.main(args)
    Table2Zillow.main(args)
    Table3OneD.main(args)
    Table4MD.main(args)
    Table5Indexing.main(args)
    Table6BestWorst.main(args)
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Experiments._

/** A spark-submit entrypoint printing one table's report, at the scale
  * factor `args(0)` when present and at `defaultSf` otherwise.
  */
abstract class TableJob(app: String, defaultSf: Double)(report: (SparkSession, Double) => String) {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    println(report(spark, args.headOption.map(_.toDouble).getOrElse(defaultSf)))
    spark.stop()
  }
}

/** Table 1 (Fig 2) — parallel-processed iterations, 2D vs 3D MD-RERANK. */
object Table1Parallel extends TableJob("qr2-table1", benchSf)((spark, sf) => report1(table1(spark, sf)))

/** Table 2 — the §II-C statistics-panel example (paper: 27 queries, 33 s). */
object Table2Zillow extends TableJob("qr2-table2", benchSf)((spark, sf) => report2(Seq(table2(spark, sf))))

/** Table 3 — 1D strategies × correlation scenarios. */
object Table3OneD extends TableJob("qr2-table3", benchSfSmall)((spark, sf) => report3(table3(spark, sf)))

/** Table 4 — MD strategies × weight combinations. */
object Table4MD extends TableJob("qr2-table4", benchSfSmall)((spark, sf) => report4(table4(spark, sf)))

/** Table 5 — on-the-fly indexing amortization across sessions, and its
  * reuse across ranking shapes.
  */
object Table5Indexing extends TableJob("qr2-table5", benchSfSmall)((spark, sf) =>
  report5(table5(spark, sf)) + "\n" + report5Cross(table5Cross(spark, sf)))

/** Table 6 — the paper's named best and worst cases. */
object Table6BestWorst extends TableJob("qr2-table6", benchSfSmall)((spark, sf) => report6(table6(spark, sf)))

/** Run every table in sequence (convenience entrypoint). */
object RunAll {
  def main(args: Array[String]): Unit =
    Seq(Table1Parallel, Table2Zillow, Table3OneD, Table4MD, Table5Indexing, Table6BestWorst)
      .foreach(_.main(args))
}

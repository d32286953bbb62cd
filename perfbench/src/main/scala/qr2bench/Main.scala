package qr2bench

import java.io.File
import java.lang.management.ManagementFactory

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.webdb.{LocalWebDb, SparkWebDb, WebDb}

/** The QR2 get-page benchmark.
  *
  * {{{
  * Main --workload <interactive|dense-spike|spark-backend> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Generates the workload's catalogues and session list from the seed,
  * times the set-up, warms up, then replays epochs of the session list for
  * `--seconds` in a closed loop with one client. Every page is checked
  * against exhaustive ground truth; on the Spark backend each epoch is also
  * replayed on an in-memory copy of the same rows and must bill identical
  * queries and rounds. The last line of standard output is the JSON result:
  * end-to-end metrics, or with `--trace 1` the per-layer metrics of a
  * second, traced pass over the same epochs plus its overhead.
  */
object Main {

  /** System top-k of the simulated web databases. */
  val K = 10
  /** Results per get-page, the demo's page size. */
  val PageSize = 10
  /** Set-up runs per benchmark run; the median is reported. */
  val SetupRepeats = 3
  /** Fewest timed epochs per run, so that every page is timed twice. */
  val MinEpochs = 2
  /** Pinned `spark.sql.leafNodeDefaultParallelism`: the partitioning of
    * `spark.range`, and so every generated catalogue, is then the same on
    * any host (4 reproduces the catalogues of a 4-core machine).
    */
  val LeafParallelism = 4

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Either[String, Args] = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      name <- kv.get("workload").toRight("missing --workload")
      w    <- Workload.all.find(_.name == name).toRight(s"unknown workload $name")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("missing or bad --seed")
      secs <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("missing or bad --seconds")
      tr   <- kv.getOrElse("trace", "0") match {
                case "0" => Right(false)
                case "1" => Right(true)
                case o   => Left(s"bad --trace $o")
              }
    } yield Args(w, seed, secs, tr)
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(err) =>
      System.err.println(s"usage error: $err")
      sys.exit(2)
    case Right(a) =>
      val threads = math.min(4, Runtime.getRuntime.availableProcessors)
      val spark = SparkSession.builder
        .master(s"local[$threads]")
        .appName("qr2-perfbench")
        .config("spark.sql.leafNodeDefaultParallelism", LeafParallelism)
        .config("spark.ui.enabled", false)
        .getOrCreate()
      try run(spark, a, threads)
      finally spark.stop()
  }

  private def run(spark: SparkSession, a: Args, threads: Int): Unit = {
    val w = a.workload
    println(
      s"host: nproc=${Runtime.getRuntime.availableProcessors} " +
        s"jvm=${System.getProperty("java.vm.name")} ${System.getProperty("java.version")} " +
        s"spark=${spark.version} master=local[$threads] leafNodeDefaultParallelism=$LeafParallelism " +
        s"k=$K page=$PageSize workload=${w.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")

    val (cats, setupS) = setUp(spark, w, w.catalogueSeeds(a.seed))
    cats.foreach(c => println(c.fingerprint))
    val sessions = w.sessions(a.seed)
    val runner   = new Runner(sessions, w.coldEvery, PageSize)
    val backends = cats.map(_.backend)

    runner.epoch(backends, None) // untimed warm-up epoch

    // Timed loop: at least MinEpochs whole epochs, then more while another
    // epoch of the mean length so far still ends within --seconds.
    val loopStart = System.nanoTime()
    val budgetNs  = a.seconds * 1000000000L
    val epochs    = Vector.newBuilder[Epoch]
    val epochNs   = Vector.newBuilder[Long]
    var n         = 0
    def elapsedNs = System.nanoTime() - loopStart
    while (n < MinEpochs || elapsedNs + elapsedNs / n <= budgetNs) {
      val t0 = System.nanoTime()
      epochs += runner.epoch(backends, None)
      epochNs += System.nanoTime() - t0
      n += 1
    }
    val timed = epochs.result()
    println(s"epoch seconds: ${epochNs.result().map(ns => f"${ns / 1e9}%.2f").mkString(" ")}")
    println(s"epoch median slice us: ${timed.map(e => f"${Report.quantile(e.calibNs.map(_.toDouble), 0.5) / 1e3}%.0f").mkString(" ")}")

    // Correctness, outside every timed interval.
    val truth = sessions.map(s => Truth.topIds(cats(s.cat).truth, s, s.pages * PageSize))
    val reference =
      if (cats.exists(_.onSpark)) runner.epoch(cats.map(_.truth), None) else timed.head
    val refPages = reference.pages.map(p => (p.session, p.page) -> p).toMap
    def failures(ep: Epoch): Int = ep.pages.count { p =>
      p.error.isDefined ||
        p.ids != truth(p.session).slice(p.page * PageSize, (p.page + 1) * PageSize) ||
        !refPages.get((p.session, p.page)).exists(_.outcome == p.outcome)
    }
    timed.head.pages.flatMap(_.error).distinct.foreach(e => println(s"page error: $e"))

    val bootstrap = timed.head.pages.map(_.bootQueries).sum
    println(s"service.bootstrap_queries $bootstrap count (per epoch, billed to the pages that triggered it)")

    if (!a.trace) {
      val attempted = timed.map(_.pages.size).sum
      val failed    = timed.map(failures).sum
      val metrics   = Report.endToEnd(timed, setupS)
      printTable(metrics ++ Report.unGated(timed) :+ Metric("failed_frac", failed.toDouble / attempted, "frac"), timed)
      println(Report.json(failed == 0, attempted, failed, metrics))
    } else {
      val retainedMb = retainedHeapMb()
      val tracer = new Tracer
      val traced = timed.map(_ => runner.epoch(backends, Some(tracer)))
      val requests  = tracer.spans.count(_.kind == "request")
      val billed    = traced.flatMap(_.pages).map(_.queries).sum
      val consistent = requests == billed
      if (!consistent) println(s"inconsistent: $requests backend requests but $billed billed queries")
      val time       = (es: Seq[Epoch]) => Report.refSeconds(es).sum
      val overhead   = time(traced) / time(timed) - 1
      val attempted  = (timed ++ traced).map(_.pages.size).sum
      val failed     = (timed ++ traced).map(failures).sum
      // Service time per page comes from the untraced epochs, as end to end.
      val metrics = Report.pageMs("service.", Report.refSeconds(timed)) ++
        Report.perLayer(traced, tracer.spans.toSeq, cats.exists(_.onSpark), K, retainedMb, overhead)
      val file = new File(s"perfbench/target/traces/${w.name}-seed${a.seed}.csv")
      tracer.write(file)
      println(s"trace: ${tracer.spans.size} spans written to ${file.getPath}")
      printTable(metrics, traced)
      println(Report.json(failed == 0 && consistent, attempted, failed, metrics))
    }
  }

  /** Generate every catalogue and build its backend, `SetupRepeats` times;
    * returns the last build and the median set-up seconds. Local backends
    * collect and sort the rows; Spark backends materialise their cache so
    * that cost does not land in the first page.
    */
  private def setUp(spark: SparkSession, w: Workload, seeds: Vector[Long]): (Vector[Catalogue], Double) = {
    var built: Vector[(DataFrame, WebDb)] = Vector.empty
    val secs = (1 to SetupRepeats).map { _ =>
      built.foreach { case (df, db) => if (db.isInstanceOf[SparkWebDb]) df.unpersist(blocking = true) }
      val t0 = System.nanoTime()
      built = w.catalogues.zip(seeds).map { case (c, seed) =>
        val df = c.generate(spark, seed)
        val db =
          if (c.onSpark) { val s = new SparkWebDb(df, c.schema, K); df.count(); s }
          else LocalWebDb.fromDataFrame(df, c.schema, K)
        (df, db)
      }
      (System.nanoTime() - t0) / 1e9
    }
    val cats = w.catalogues.zip(built).map { case (c, (df, db)) =>
      val truth = db match {
        case l: LocalWebDb => l
        case _             => LocalWebDb.fromDataFrame(df, c.schema, K)
      }
      Catalogue(s"${c.kind}${if (c.onSpark) "@spark" else "@local"}", db, truth)
    }
    println(s"setup runs: ${secs.map(s => f"$s%.3f").mkString(" ")} s")
    (cats, Report.quantile(secs, 0.5))
  }

  private def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def printTable(metrics: Seq[Metric], epochs: Seq[Epoch]): Unit = {
    val pages = epochs.map(_.pages.size).sum
    println(s"epochs=${epochs.size} pages=$pages (${epochs.head.pages.size} per epoch)")
    if (pages < 100) println(s"note: p90 rests on $pages < 100 pages, fewer than 10 samples beyond it")
    metrics.foreach(m => println(f"  ${m.name}%-28s ${m.value}%14.4f ${m.unit}"))
  }
}

package qr2bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.service._
import repro.webdb._

import scala.util.Random

/** One user session of a plan: the catalogue it searches, the filter, the
  * ranking, the strategy and how many pages the user asks for.
  */
final case class SessionSpec(cat: Int, base: WebQuery, rank: RankSpec, algo: Algo, pages: Int)

/** A generated catalogue: the backend the service talks to, and the
  * in-memory copy of the same rows that ground truth is computed from.
  */
final case class Catalogue(name: String, backend: WebDb, truth: LocalWebDb) {
  def schema: WebSchema = truth.schema

  /** True when the backend is not the in-memory copy (the Spark backend). */
  def onSpark: Boolean = backend ne truth

  /** Row count, price sum and lwr = 1.00 spike count: a changed generator
    * shows up here as changed inputs rather than as a performance change.
    */
  def fingerprint: String = {
    val ts    = truth.allTuples
    val price = ts.iterator.map(_.num("price")).sum
    val spike =
      if (schema.numeric.contains("lwr")) ts.count(_.num("lwr") == 1.0).toString else "n/a"
    f"catalogue $name: rows=${ts.size} price_sum=$price%.2f lwr_spike=$spike"
  }
}

/** Which catalogue to generate, at what size and on which backend. */
final case class CatalogueSpec(kind: String, rows: Long, onSpark: Boolean) {
  def schema: WebSchema = if (kind == "diamonds") WebData.diamondSchema else WebData.houseSchema

  /** The continuous ranking attributes offered to users (lwr is the
    * dense-spike workload's own attribute).
    */
  def continuous: Seq[String] =
    if (kind == "diamonds") Seq("price", "carat", "depth", "table_pct") else Seq("price", "sqft")

  def generate(spark: SparkSession, seed: Long): DataFrame = {
    val perSf = if (kind == "diamonds") 200000.0 else 1000000.0
    if (kind == "diamonds") WebData.diamonds(spark, rows / perSf, seed)
    else WebData.houses(spark, rows / perSf, seed)
  }
}

/** A benchmark workload: its catalogues and the fixed, seeded session list
  * of one epoch. An epoch starts from fresh services; `coldEvery > 0`
  * additionally replaces every service with one holding an empty store
  * after each `coldEvery` sessions.
  */
final case class Workload(
    name: String,
    catalogues: Vector[CatalogueSpec],
    sessionsPerEpoch: Int,
    coldEvery: Int,
    slots: Vector[Slot],
) {

  /** Catalogue generator seeds, drawn first from the workload seed. */
  def catalogueSeeds(seed: Long): Vector[Long] = {
    val rng = new Random(seed)
    catalogues.map(_ => rng.nextInt(1000000).toLong)
  }

  /** The session list of one epoch. Session `i` takes slot `i % slots.size`,
    * which fixes its catalogue, whether it filters, its ranking shape and its
    * strategy; its round `i / slots.size` picks the ranking (attributes,
    * directions, weight signs and magnitudes), the facet attribute and the
    * page count in a fixed rotation. The seed draws the facet values (and,
    * through [[catalogueSeeds]], the rows). Two seeds thus differ in their
    * inputs but not in their mix, which keeps the figures of different seeds
    * comparable: a drawn MD weight alone moves a session's query count by
    * up to 2.5×, and with drawn weights the quartile spread of p90 page
    * time over five seeds was 0.2 from the seed alone.
    */
  def sessions(seed: Long): Vector[SessionSpec] = {
    val rng = new Random(seed ^ 0x5DEECE66DL)
    Vector.tabulate(sessionsPerEpoch) { i =>
      val slot  = slots(i % slots.size)
      val round = i / slots.size
      val cat   = catalogues(slot.cat)
      val base =
        if (!slot.filtered) WebQuery.all
        else {
          val schema = cat.schema
          val attr   = schema.categorical(round % schema.categorical.size)
          val values = schema.catDomains(attr)
          WebQuery.all.andCat(attr, Set(values(rng.nextInt(values.size))))
        }
      SessionSpec(slot.cat, base, slot.rank.draw(cat, round), slot.algo, 1 + round % 3)
    }
  }
}

/** The fixed shape of one session position in an epoch. */
final case class Slot(cat: Int, filtered: Boolean, rank: RankShape, algo: Algo)

/** How a slot's ranking is chosen in a given round. */
sealed trait RankShape {
  def draw(cat: CatalogueSpec, round: Int): RankSpec
}

/** Slider weight magnitude of dimension `j` in round `round`: one of the
  * slider's stops 0.1, 0.2, …, 1.0, as in the paper's example rankings
  * ("price − 0.3·sqft"). Successive rounds and dimensions step through the
  * stops at different strides, so the weight ratios vary.
  */
private object Magnitude {
  def apply(round: Int, j: Int): Double = (1 + (3 * round + 4 * j) % 10) / 10.0
}

/** 1D over the catalogue's continuous attributes, each in both directions
  * in turn.
  */
case object AnyOneD extends RankShape {
  def draw(cat: CatalogueSpec, round: Int): RankSpec = {
    val n = cat.continuous.size
    OneDRank(cat.continuous(round % n), asc = (round / n) % 2 == 0)
  }
}

/** MD over `dims` continuous attributes: every attribute subset and weight
  * sign pattern in turn, slider weights in [-1, 1].
  */
final case class AnyMD(dims: Int) extends RankShape {
  def draw(cat: CatalogueSpec, round: Int): RankSpec = {
    val subsets = cat.continuous.combinations(dims).toVector
    val attrs   = subsets(round % subsets.size)
    val signs   = round / subsets.size
    MDRank(attrs.zipWithIndex.map { case (a, j) =>
      a -> (if (((signs >> j) & 1) == 0) Magnitude(round, j) else -Magnitude(round, j))
    })
  }
}

/** 1D on a fixed attribute and direction. */
final case class FixedOneD(attr: String, asc: Boolean) extends RankShape {
  def draw(cat: CatalogueSpec, round: Int): RankSpec = OneDRank(attr, asc)
}

/** MD `w1·first + w2·second`, w1 > 0 and w2 of the given sign. */
final case class SignedMD(first: String, second: String, secondPositive: Boolean) extends RankShape {
  def draw(cat: CatalogueSpec, round: Int): RankSpec = {
    val w1 = Magnitude(round, 0)
    val w2 = Magnitude(round, 1)
    MDRank(Seq(first -> w1, second -> (if (secondPositive) w2 else -w2)))
  }
}

object Workload {
  private val D = 0 // diamonds, in every workload that has them
  private val H = 1 // houses, in `interactive`

  /** Main traffic: two long-lived services (20k diamonds, 20k houses) and
    * a mix of 1D/MD rankings over continuous attributes, mostly RERANK.
    * BASELINE runs MD only: a 1D BASELINE against the hidden price order
    * costs thousands of queries per page, as TA does (left out as well).
    */
  val interactive: Workload = Workload(
    name = "interactive",
    catalogues = Vector(
      CatalogueSpec("diamonds", 20000, onSpark = false),
      CatalogueSpec("houses", 20000, onSpark = false),
    ),
    sessionsPerEpoch = 60,
    coldEvery = 0,
    slots = Vector(
      Slot(D, filtered = false, AnyOneD, Algo.Rerank),
      Slot(D, filtered = true, AnyMD(2), Algo.Rerank),
      Slot(H, filtered = false, AnyMD(2), Algo.Rerank),
      Slot(D, filtered = false, AnyMD(3), Algo.Rerank),
      Slot(D, filtered = true, AnyOneD, Algo.Binary),
      Slot(H, filtered = true, AnyOneD, Algo.Rerank),
      Slot(D, filtered = false, AnyMD(2), Algo.Baseline),
      Slot(D, filtered = true, AnyMD(3), Algo.Rerank),
      Slot(H, filtered = false, AnyMD(2), Algo.Binary),
      Slot(D, filtered = false, AnyMD(2), Algo.Rerank),
      Slot(D, filtered = true, AnyOneD, Algo.Rerank),
      Slot(H, filtered = true, AnyMD(2), Algo.Baseline),
    ),
  )

  /** The paper's worst case: RERANK through the 20 % lwr = 1.00 spike of a
    * 10k-diamond catalogue under a facet filter, with the service replaced
    * by an empty store every `coldEvery` sessions so that both
    * crawl-and-index and store-served sessions run.
    */
  val denseSpike: Workload = Workload(
    name = "dense-spike",
    catalogues = Vector(CatalogueSpec("diamonds", 10000, onSpark = false)),
    sessionsPerEpoch = 96,
    coldEvery = 12,
    slots = Vector(
      Slot(D, filtered = true, FixedOneD("lwr", asc = true), Algo.Rerank),
      Slot(D, filtered = true, SignedMD("price", "lwr", secondPositive = true), Algo.Rerank),
      Slot(D, filtered = true, FixedOneD("lwr", asc = false), Algo.Rerank),
      Slot(D, filtered = true, SignedMD("carat", "lwr", secondPositive = true), Algo.Rerank),
      Slot(D, filtered = true, SignedMD("price", "lwr", secondPositive = false), Algo.Rerank),
      Slot(D, filtered = true, SignedMD("carat", "lwr", secondPositive = false), Algo.Rerank),
    ),
  )

  /** The `interactive` houses sessions on the Catalyst backend (5k rows):
    * every request is a Spark job, so the Spark backend is nearly all the
    * wall time.
    */
  val sparkBackend: Workload = Workload(
    name = "spark-backend",
    catalogues = Vector(CatalogueSpec("houses", 5000, onSpark = true)),
    sessionsPerEpoch = 4,
    coldEvery = 0,
    slots = interactive.slots.filter(_.cat == H).map(_.copy(cat = 0)),
  )

  val all: Seq[Workload] = Seq(interactive, denseSpike, sparkBackend)
}

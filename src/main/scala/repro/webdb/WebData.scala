package repro.webdb

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic web databases standing in for the paper's two demo sites
  * (DESIGN.md §5 — data substitution).
  *
  * - `diamonds` — Blue Nile-like: price, carat, depth, table_pct, lwr
  *   (length/width ratio) with **20 % of tuples at exactly lwr = 1.00**,
  *   the distribution the paper reports for its worst-case scenario, plus
  *   cut/color/clarity/shape categorical facets.
  * - `houses` — Zillow-like: price positively correlated with sqft (the
  *   paper's best-case scenario relies on it), beds, baths, year, zip/city.
  *
  * Both carry a hidden `sys_score ≈ price × U(0.95, 1.05)` column: the
  * noisy price-ascending default ordering of the real sites. Generators
  * are deterministic in (sf, seed).
  */
object WebData {

  /** Name of the hidden system-ranking column (never exposed to algorithms). */
  val SysScoreCol = "sys_score"

  /** Blue Nile-like catalogue size at SF = 1 (Blue Nile lists ~10^5 diamonds). */
  private val NDiamondsPerSf = 200_000L
  /** Zillow-like catalogue size at SF = 1 ("millions of entities" — one metro's worth here). */
  private val NHousesPerSf = 1_000_000L

  private def n(base: Long, sf: Double): Long = math.max(8L, (base * sf).toLong)

  /** Partitions of the generating range. Spark seeds `rand` per partition,
    * so a fixed count keeps the catalogues identical on every host.
    */
  private val NumPartitions = 4

  val diamondSchema: WebSchema = WebSchema(
    name = "diamonds",
    idCol = "id",
    numeric = Seq("price", "carat", "depth", "table_pct", "lwr"),
    categorical = Seq("cut", "color", "clarity", "shape"),
    numDomains = Map(
      "price"     -> Interval(200.0, 200000.0),
      "carat"     -> Interval(0.2, 5.0),
      "depth"     -> Interval(55.0, 75.0),
      "table_pct" -> Interval(50.0, 70.0),
      "lwr"       -> Interval(1.0, 2.5),
    ),
    catDomains = Map(
      "cut"     -> Seq("Ideal", "VeryGood", "Good", "Fair"),
      "color"   -> Seq("D", "E", "F", "G", "H", "I", "J"),
      "clarity" -> Seq("IF", "VVS1", "VVS2", "VS1", "VS2", "SI1", "SI2"),
      "shape"   -> Seq("Round", "Princess", "Emerald", "Cushion", "Oval"),
    ),
  )

  val houseSchema: WebSchema = WebSchema(
    name = "houses",
    idCol = "id",
    numeric = Seq("price", "sqft", "beds", "baths", "year"),
    categorical = Seq("zip", "city"),
    numDomains = Map(
      "price" -> Interval(10000.0, 2000000.0),
      "sqft"  -> Interval(500.0, 5000.0),
      "beds"  -> Interval(1.0, 6.0),
      "baths" -> Interval(1.0, 4.0),
      "year"  -> Interval(1900.0, 2025.0),
    ),
    catDomains = Map(
      "zip"  -> (0 until 50).map(i => f"9$i%04d"),
      "city" -> Seq("Arlington", "Dallas", "FortWorth", "Plano", "Irving"),
    ),
  )

  /** Blue Nile-like diamond catalogue. Price grows superlinearly with carat
    * (times market noise) so price and carat are strongly positively
    * correlated, as on the real site.
    */
  def diamonds(spark: SparkSession, sf: Double = 0.01, seed: Long = 7): DataFrame = {
    spark
      .range(1, n(NDiamondsPerSf, sf) + 1, 1, NumPartitions)
      .toDF("id")
      .withColumn("carat", round(pow(rand(seed), 2.0) * 4.8 + lit(0.2), 2))
      .withColumn(
        "price",
        round(pow(col("carat"), 1.7) * 3500.0 * (rand(seed + 1) * 0.6 + 0.7) + 200.0, 2),
      )
      .withColumn("depth", round(rand(seed + 2) * 20 + 55, 1))
      .withColumn("table_pct", round(rand(seed + 3) * 20 + 50, 1))
      // 20 % of tuples at exactly 1.00 — the worst-case spike of §III-B.
      .withColumn(
        "lwr",
        when(rand(seed + 4) < 0.2, lit(1.0)).otherwise(round(rand(seed + 5) * 1.49 + 1.01, 2)),
      )
      .withColumn("cut", pick(diamondSchema.catDomains("cut"), seed + 6))
      .withColumn("color", pick(diamondSchema.catDomains("color"), seed + 7))
      .withColumn("clarity", pick(diamondSchema.catDomains("clarity"), seed + 8))
      .withColumn("shape", pick(diamondSchema.catDomains("shape"), seed + 9))
      .withColumn(SysScoreCol, col("price") * (rand(seed + 10) * 0.1 + 0.95))
  }

  /** Zillow-like listing catalogue. Price = sqft × $/sqft(zip) × noise, so
    * price and sqft are positively correlated (the best-case scenario of
    * §III-B depends on this).
    */
  def houses(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    spark
      .range(1, n(NHousesPerSf, sf) + 1, 1, NumPartitions)
      .toDF("id")
      .withColumn("sqft", round(rand(seed) * 4500 + 500, 0))
      .withColumn(
        "price",
        round(col("sqft") * (rand(seed + 1) * 220 + 80) + rand(seed + 2) * 50000, 0),
      )
      .withColumn(
        "beds",
        least(lit(6.0), greatest(lit(1.0), floor(col("sqft") / lit(900.0)) + (rand(seed + 3) * 2).cast(IntegerType))).cast(DoubleType),
      )
      .withColumn(
        "baths",
        least(lit(4.0), greatest(lit(1.0), floor(col("sqft") / lit(1400.0)) + (rand(seed + 4) * 2).cast(IntegerType))).cast(DoubleType),
      )
      .withColumn("year", (rand(seed + 5) * 125 + 1900).cast(IntegerType).cast(DoubleType))
      .withColumn("zip", pick(houseSchema.catDomains("zip"), seed + 6))
      .withColumn("city", pick(houseSchema.catDomains("city"), seed + 7))
      .withColumn(SysScoreCol, col("price") * (rand(seed + 8) * 0.1 + 0.95))
  }

  /** Convenience: Blue Nile simulator on the driver (fast, for sweeps). */
  def diamondsLocal(spark: SparkSession, sf: Double = 0.01, k: Int = 10, seed: Long = 7): LocalWebDb =
    LocalWebDb.fromDataFrame(diamonds(spark, sf, seed), diamondSchema, k)

  /** Convenience: Zillow simulator on the driver (fast, for sweeps). */
  def housesLocal(spark: SparkSession, sf: Double = 0.01, k: Int = 10, seed: Long = 11): LocalWebDb =
    LocalWebDb.fromDataFrame(houses(spark, sf, seed), houseSchema, k)

  /** Convenience: Blue Nile simulator as a Catalyst pipeline per request. */
  def diamondsSpark(spark: SparkSession, sf: Double = 0.01, k: Int = 10, seed: Long = 7): SparkWebDb =
    new SparkWebDb(diamonds(spark, sf, seed), diamondSchema, k)

  /** Convenience: Zillow simulator as a Catalyst pipeline per request. */
  def housesSpark(spark: SparkSession, sf: Double = 0.01, k: Int = 10, seed: Long = 11): SparkWebDb =
    new SparkWebDb(houses(spark, sf, seed), houseSchema, k)

  /** Uniform pick from a fixed value list, deterministic in the seed. */
  private def pick(values: Seq[String], seed: Long) =
    element_at(
      array(values.map(lit): _*),
      least(lit(values.size), (rand(seed) * values.size + 1).cast(IntegerType)),
    )
}

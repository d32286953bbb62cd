package repro.webdb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Properties of the synthetic web databases that the paper's scenarios
  * depend on: the lwr spike, attribute correlations, domains, determinism.
  */
class WebDataSpec extends SparkSpec {

  private lazy val dia = WebData.diamonds(spark, sf = 0.005).cache()
  private lazy val hou = WebData.houses(spark, sf = 0.005).cache()

  test("diamonds: schema columns present with expected types") {
    val s = WebData.diamondSchema
    (Seq(s.idCol, WebData.SysScoreCol) ++ s.numeric ++ s.categorical).foreach { c =>
      assert(dia.columns.contains(c), s"missing column $c")
    }
  }

  test("houses: schema columns present") {
    val s = WebData.houseSchema
    (Seq(s.idCol, WebData.SysScoreCol) ++ s.numeric ++ s.categorical).foreach { c =>
      assert(hou.columns.contains(c), s"missing column $c")
    }
  }

  test("diamonds: ~20% of tuples sit exactly at lwr = 1.00 (the paper's spike)") {
    val n     = dia.count()
    val spike = dia.filter(col("lwr") === 1.0).count()
    val frac  = spike.toDouble / n
    assert(frac > 0.15 && frac < 0.25, s"spike fraction $frac")
  }

  test("diamonds: no other lwr value is shared by more than system-k tuples at SF=0.005") {
    val top = dia.filter(col("lwr") =!= 1.0).groupBy("lwr").count()
      .orderBy(desc("count")).limit(1).collect()(0).getLong(1)
    assert(top < 60, s"non-spike lwr mode has $top tuples") // loose: only the spike is pathological
  }

  test("diamonds: price and carat strongly positively correlated") {
    val corr = dia.stat.corr("price", "carat")
    assert(corr > 0.7, s"corr(price, carat) = $corr")
  }

  test("diamonds: hidden system score tracks price (noisy price-ascending order)") {
    val corr = dia.stat.corr(WebData.SysScoreCol, "price")
    assert(corr > 0.95, s"corr(sys, price) = $corr")
  }

  test("houses: price and sqft positively correlated (best-case premise)") {
    val corr = hou.stat.corr("price", "sqft")
    assert(corr > 0.5, s"corr(price, sqft) = $corr")
  }

  test("all numeric values fall inside the advertised domains (diamonds)") {
    WebData.diamondSchema.numeric.foreach { a =>
      val d = WebData.diamondSchema.numDomains(a)
      val Array(mn, mx) = dia.agg(min(col(a)), max(col(a))).collect()(0).toSeq.map(_.asInstanceOf[Double]).toArray
      assert(mn >= d.lo && mx <= d.hi, s"$a range [$mn, $mx] outside domain $d")
    }
  }

  test("all numeric values fall inside the advertised domains (houses)") {
    WebData.houseSchema.numeric.foreach { a =>
      val d = WebData.houseSchema.numDomains(a)
      val Array(mn, mx) = hou.agg(min(col(a)), max(col(a))).collect()(0).toSeq.map(_.asInstanceOf[Double]).toArray
      assert(mn >= d.lo && mx <= d.hi, s"$a range [$mn, $mx] outside domain $d")
    }
  }

  test("all categorical values fall inside the advertised domains") {
    WebData.diamondSchema.categorical.foreach { a =>
      val vals = dia.select(a).distinct().collect().map(_.getString(0)).toSet
      assert(vals.subsetOf(WebData.diamondSchema.catDomains(a).toSet), s"$a values $vals")
    }
  }

  test("generators are deterministic in (sf, seed)") {
    val a = WebData.diamonds(spark, 0.002).collect().map(_.toSeq).toSeq
    val b = WebData.diamonds(spark, 0.002).collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("catalogues do not depend on the host's parallelism") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    def fingerprint(parallelism: Int): (Double, Long, Double) = {
      val old = spark.conf.getOption(key)
      spark.conf.set(key, parallelism.toString)
      // Summed locally in id order: a distributed sum is not exact.
      def priceSum(df: DataFrame): Double =
        df.orderBy("id").select("price").collect().map(_.getDouble(0)).sum
      try {
        val d = WebData.diamonds(spark, 0.005)
        (priceSum(d), d.filter(col("lwr") === 1.0).count(), priceSum(WebData.houses(spark, 0.005)))
      } finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    }
    assert(fingerprint(2) == fingerprint(8))
  }

  test("different seeds give different data") {
    val a = WebData.diamonds(spark, 0.002, seed = 7).agg(sum("price")).collect()(0).getDouble(0)
    val b = WebData.diamonds(spark, 0.002, seed = 99).agg(sum("price")).collect()(0).getDouble(0)
    assert(a != b)
  }

  test("ids are unique and dense from 1") {
    val n   = dia.count()
    val ids = dia.select("id").distinct().count()
    assert(ids == n)
    assert(dia.agg(min("id"), max("id")).collect()(0).toSeq == Seq(1L, n))
  }

  test("scale factor scales the row count") {
    assert(WebData.diamonds(spark, 0.002).count() < WebData.diamonds(spark, 0.005).count())
  }

  test("no more than k fully identical tuples exist (crawlability guarantee)") {
    val s = WebData.diamondSchema
    val dup = dia.groupBy((s.numeric ++ s.categorical).map(col): _*).count()
      .orderBy(desc("count")).limit(1).collect()(0).getAs[Long]("count")
    assert(dup <= 10, s"largest identical-tuple group: $dup")
  }
}

package repro.core

import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.{Gen, Prop, Test}
import repro.webdb._
import repro.{SparkSpec, TestFixtures}

/** The MD strategies emit the ground-truth top-h for random slider
  * weights, facet filters and search boxes clipped by a numeric
  * constraint, on top-k interfaces with k = 1 and k = 10, in one page and
  * in two pages of one session.
  */
class MDProps extends SparkSpec {

  private lazy val dbs = Seq(1, 10).map(k => k -> TestFixtures.diamonds(spark, k = k)).toMap

  /** Run `p` from a fixed seed, so a failure reproduces. */
  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(25).withInitialSeed(Seed(20180418L))
    val res    = Test.check(params, p)
    assert(res.passed, Pretty.pretty(res))
  }

  /** A non-zero slider weight in 0.1 stops, of either sign. */
  private val genWeight: Gen[Double] =
    Gen.oneOf((-10 to 10).filter(_ != 0)).map(_ / 10.0)

  /** Two or three ranking attributes with their weights. */
  private lazy val genRanking: Gen[LinearRanking] =
    for {
      n     <- Gen.oneOf(2, 3)
      attrs <- Gen.pick(n, dbs(10).schema.numeric)
      ws    <- Gen.listOfN(n, genWeight)
    } yield LinearRanking(attrs.toSeq.zip(ws))

  /** An interval between two catalogue values of `a`. */
  private def genInterval(a: String): Gen[Interval] =
    for {
      v1 <- Gen.oneOf(dbs(10).allTuples).map(_.num(a))
      v2 <- Gen.oneOf(dbs(10).allTuples).map(_.num(a))
    } yield Interval(math.min(v1, v2), math.max(v1, v2))

  /** A facet filter, optionally with a numeric constraint on one of the
    * ranking attributes, which clips the initial search box.
    */
  private def genFilter(f: LinearRanking): Gen[WebQuery] =
    for {
      a    <- Gen.oneOf(dbs(10).schema.categorical)
      vs   <- Gen.atLeastOne(dbs(10).schema.catDomains(a))
      clip <- Gen.option(Gen.oneOf(f.attrs).flatMap(r => genInterval(r).map(r -> _)))
    } yield clip.foldLeft(WebQuery.all.andCat(a, vs.toSet)) { case (q, (r, iv)) => q.and(r, iv) }

  private lazy val genCase: Gen[(Int, LinearRanking, WebQuery, Int)] =
    for {
      k    <- Gen.oneOf(1, 10)
      f    <- genRanking
      base <- genFilter(f)
      h    <- Gen.choose(1, 6)
    } yield (k, f, base, h)

  private type Make = (WebDbConn, WebQuery, LinearRanking, Normalizer) => GetNexter

  /** Pages of the given sizes, in one session, are the ground-truth prefix. */
  private def pagesMatchTruth(mk: Make, k: Int, f: LinearRanking, base: WebQuery, pages: Seq[Int]): Prop = {
    val db    = dbs(k)
    val norm  = TestFixtures.trueNorm(db, f.attrs)
    val truth = TestFixtures.groundTruth(db, base, f, norm).take(pages.sum).map(_.id)
    val g     = mk(new WebDbConn(db), base, f, norm)
    val got   = pages.flatMap(g.next(_).map(_.id))
    (got == truth) :| s"k=$k $f $base pages $pages: expected $truth, got $got"
  }

  private def emitsTruth(mk: Make): Prop =
    Prop.forAll(genCase) { case (k, f, base, h) => pagesMatchTruth(mk, k, f, base, Seq(h)) }

  /** `next(h1) ++ next(h2)` is the ground-truth top h1 + h2: nothing of
    * the first page leaks into the second.
    */
  private def twoPagesEmitTruth(mk: Make): Prop =
    Prop.forAll(genCase, Gen.choose(1, 6)) { case ((k, f, base, h1), h2) =>
      pagesMatchTruth(mk, k, f, base, Seq(h1, h2))
    }

  private val strategies: Seq[(String, Make)] = Seq(
    "MD-BASELINE" -> ((c, base, f, n) => new MDBaseline(c, base, f, n)),
    "MD-BINARY"   -> ((c, base, f, n) => new MDBinary(c, base, f, n)),
    "MD-RERANK"   -> ((c, base, f, n) => new MDRerank(c, base, f, n)),
  )

  for ((name, mk) <- strategies) {
    test(s"property: $name emits the ground-truth top-h") {
      check(emitsTruth(mk))
    }

    test(s"property: $name emits the ground-truth top h1 + h2 in two pages") {
      check(twoPagesEmitTruth(mk))
    }
  }
}

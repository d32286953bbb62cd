package repro.webdb

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite over the predicate/region algebra. */
object ModelProps extends Properties("webdb.model") {

  private val genIv: Gen[Interval] = for {
    a  <- Gen.chooseNum(-50.0, 50.0)
    w  <- Gen.chooseNum(0.0, 30.0)
    li <- Gen.oneOf(true, false)
    hi <- Gen.oneOf(true, false)
  } yield Interval(a, a + w, li, hi)

  private val genV: Gen[Double] = Gen.chooseNum(-60.0, 60.0)

  private def tup(v: Double, w: Double): WebTuple =
    WebTuple(1L, Map("x" -> v, "y" -> w), Map.empty)

  property("intersect ∧-semantics") = Prop.forAll(genIv, genIv, genV) { (a, b, v) =>
    a.intersect(b).contains(v) == (a.contains(v) && b.contains(v))
  }

  property("intersect with self is identity on membership") = Prop.forAll(genIv, genV) { (a, v) =>
    a.intersect(a).contains(v) == a.contains(v)
  }

  property("subsetOf is reflexive") = Prop.forAll(genIv) { a => a.subsetOf(a) }

  property("subsetOf is transitive") = Prop.forAll(genIv, genIv, genIv) { (a, b, c) =>
    !(a.subsetOf(b) && b.subsetOf(c)) || a.subsetOf(c)
  }

  property("intersection is a subset of both operands") = Prop.forAll(genIv, genIv) { (a, b) =>
    val i = a.intersect(b)
    i.subsetOf(a) && i.subsetOf(b)
  }

  property("query conjunction = membership conjunction") =
    Prop.forAll(genIv, genIv, genV, genV) { (ix, iy, vx, vy) =>
      val q = WebQuery.all.and("x", ix).and("y", iy)
      q.matches(tup(vx, vy)) == (ix.contains(vx) && iy.contains(vy))
    }

  property("box split partitions membership") = Prop.forAll(genIv, genIv, genV, genV) {
    (ix, iy, vx, vy) =>
      val box = Box(Map("x" -> ix, "y" -> iy))
      val t   = tup(vx, vy)
      val (b1, b2) = box.split("x")
      val (in, in1, in2) = (box.toQuery().matches(t), b1.toQuery().matches(t), b2.toQuery().matches(t))
      in == (in1 ^ in2) || !in && !in1 && !in2
  }

  property("box children are contained in the parent (non-empty boxes)") =
    Prop.forAll(genIv, genIv) { (ix, iy) =>
      val box = Box(Map("x" -> ix, "y" -> iy))
      // The strategies only ever split non-empty boxes (push() filters them).
      box.isEmpty || {
        val (b1, b2) = box.split("y")
        b1.toQuery().within(box.toQuery()) && b2.toQuery().within(box.toQuery())
      }
    }

  /** Two numeric attributes and one categorical, with the advertised
    * domains every generated tuple lies in.
    */
  private val schema = WebSchema("props", "id", Seq("x", "y"), Seq("c"),
    Map("x" -> Interval(-60.0, 60.0), "y" -> Interval(-60.0, 60.0)), Map("c" -> Seq("a", "b", "c")))

  private val genTuple: Gen[WebTuple] = for {
    v <- genV
    w <- genV
    c <- Gen.oneOf(schema.catDomains("c"))
  } yield WebTuple(1L, Map("x" -> v, "y" -> w), Map("c" -> c))

  /** An interval of [[genIv]], or one reaching to or past both ends of the
    * domain, open or closed at the top.
    */
  private val genConstraint: Gen[Interval] = Gen.oneOf(genIv, for {
    a  <- Gen.chooseNum(0.0, 5.0)
    b  <- Gen.chooseNum(0.0, 5.0)
    hi <- Gen.oneOf(true, false)
  } yield Interval(-60.0 - a, 60.0 + b, hiIncl = hi))

  /** Each attribute constrained or not; a categorical set may hold the
    * whole domain.
    */
  private val genQuery: Gen[WebQuery] = for {
    x  <- Gen.option(genConstraint)
    y  <- Gen.option(genConstraint)
    cs <- Gen.option(Gen.someOf(schema.catDomains("c")))
  } yield WebQuery(Seq("x" -> x, "y" -> y).collect { case (a, Some(iv)) => a -> iv }.toMap,
    cs.map(vs => Map("c" -> vs.toSet)).getOrElse(Map.empty))

  property("the canonical form matches exactly the in-domain tuples the query matches") =
    Prop.forAll(genQuery, genTuple) { (q, t) =>
      schema.canonical(q).matches(t) == q.matches(t)
    }

  property("a cut's pieces are disjoint, bounded, and match exactly the query's tuples") =
    Prop.forAll(genQuery, genIv, genTuple) { (q, iv, t) =>
      val pieces = schema.outside(q, "x", iv)
      val qIv    = q.num.getOrElse("x", schema.numDomains("x"))
      pieces.forall(_.num("x").subsetOf(qIv)) &&
        (q.and("x", iv) +: pieces).count(_.matches(t)) == (if (q.matches(t)) 1 else 0)
    }

  property("KeySpace flip round-trip") = Prop.forAll(genIv, genV) { (iv, v) =>
    import repro.core.KeySpace
    val ks = KeySpace("x", asc = false, Interval(-60.0, 60.0))
    iv.contains(ks.key(v)) == ks.toRaw(iv).contains(v)
  }
}

package repro.webdb

/** Closed/open interval over doubles. `loIncl`/`hiIncl` select the bound kind.
  *
  * Intervals are the only numeric predicate a public web search interface
  * offers (sliders / min-max boxes), so every region the reranking
  * algorithms reason about is a product of intervals.
  */
final case class Interval(lo: Double, hi: Double, loIncl: Boolean = true, hiIncl: Boolean = true) {

  /** True when no value satisfies the interval. */
  def isEmpty: Boolean = lo > hi || (lo == hi && !(loIncl && hiIncl))

  /** Membership test honouring open/closed bounds. */
  def contains(v: Double): Boolean =
    (v > lo || (loIncl && v == lo)) && (v < hi || (hiIncl && v == hi))

  /** Width (0 for empty intervals). A point interval has width 0 but is non-empty. */
  def width: Double = if (isEmpty) 0.0 else hi - lo

  /** Single-value interval check. */
  def isPoint: Boolean = lo == hi && loIncl && hiIncl

  /** Midpoint, used by the binary-search strategies. */
  def mid: Double = lo + (hi - lo) / 2

  /** `{-v | v ∈ this}`: the image of the interval in a descending key space. */
  def negate: Interval = Interval(-hi, -lo, hiIncl, loIncl)

  /** True when the interval holds every value just above `v`: `(v, v + ε]`
    * for some ε > 0.
    */
  def coversAbove(v: Double): Boolean = lo <= v && hi > v

  /** Largest interval contained in both `this` and `o`. */
  def intersect(o: Interval): Interval = {
    val (nlo, nloI) =
      if (lo > o.lo) (lo, loIncl)
      else if (o.lo > lo) (o.lo, o.loIncl)
      else (lo, loIncl && o.loIncl)
    val (nhi, nhiI) =
      if (hi < o.hi) (hi, hiIncl)
      else if (o.hi < hi) (o.hi, o.hiIncl)
      else (hi, hiIncl && o.hiIncl)
    Interval(nlo, nhi, nloI, nhiI)
  }

  /** True when every value of `this` lies in `o` (empty intervals are subsets of anything). */
  def subsetOf(o: Interval): Boolean =
    isEmpty || {
      val loOk = lo > o.lo || (lo == o.lo && (o.loIncl || !loIncl))
      val hiOk = hi < o.hi || (hi == o.hi && (o.hiIncl || !hiIncl))
      loOk && hiOk
    }
}

object Interval {
  /** Single-value (degenerate, closed) interval. */
  def point(v: Double): Interval = Interval(v, v)

  /** `(lo, hi]` — the canonical probe interval of the 1D strategies. */
  def openClosed(lo: Double, hi: Double): Interval = Interval(lo, hi, loIncl = false, hiIncl = true)

  /** `(lo, hi)` — used when the upper bound is a known matching value to exclude. */
  def open(lo: Double, hi: Double): Interval = Interval(lo, hi, loIncl = false, hiIncl = false)
}

/** A tuple as seen through the public interface: an id plus the public
  * numeric and categorical attributes. The hidden system score is *not*
  * part of the tuple — third-party algorithms never observe it.
  */
final case class WebTuple(id: Long, num: Map[String, Double], cat: Map[String, String]) {
  /** Value of a numeric attribute (the attribute must exist in the schema). */
  def apply(attr: String): Double = num(attr)
}

/** Static description of a web database's public search interface:
  * which attributes are filterable and their advertised domains
  * (every real site documents slider ranges / dropdown values).
  *
  * Contract: every tuple's value of a numeric attribute lies inside that
  * attribute's `numDomains` interval. [[WebDbConn]] relies on it: a query
  * whose interval misses the domain matches nothing and is answered
  * locally, without a request.
  */
final case class WebSchema(
    name: String,
    idCol: String,
    numeric: Seq[String],
    categorical: Seq[String],
    numDomains: Map[String, Interval],
    catDomains: Map[String, Seq[String]],
) {
  require(numeric.forall(numDomains.contains), s"missing numeric domain in schema $name")
  require(categorical.forall(catDomains.contains), s"missing categorical domain in schema $name")

  /** `q` without its vacuous constraints: an interval holding the
    * attribute's whole advertised domain, or a categorical set holding its
    * whole domain, filters out no tuple. Queries that differ only in such
    * constraints thus share one form, and one answer.
    */
  def canonical(q: WebQuery): WebQuery = {
    val num = q.num.filterNot { case (a, iv) => numDomains.get(a).exists(_.subsetOf(iv)) }
    val cat = q.cat.filterNot { case (a, vs) => catDomains.get(a).exists(_.forall(vs.contains)) }
    if (num.size == q.num.size && cat.size == q.cat.size) q else WebQuery(num, cat)
  }

  /** The parts of `q` with `attr` below and above `iv`, empty parts
    * dropped. With `q ∧ attr ∈ iv` they partition `q`; each is bounded by
    * `q`'s interval on `attr`, or by the advertised domain where `q` leaves
    * `attr` unconstrained. Outside an empty `iv` lies all of `q`.
    */
  def outside(q: WebQuery, attr: String, iv: Interval): Seq[WebQuery] = {
    val qIv = q.num.getOrElse(attr, numDomains(attr))
    if (iv.isEmpty) Seq(q.and(attr, qIv))
    else Seq(
      Interval(Double.NegativeInfinity, iv.lo, loIncl = false, hiIncl = !iv.loIncl),
      Interval(iv.hi, Double.PositiveInfinity, loIncl = !iv.hiIncl, hiIncl = false),
    ).map(qIv.intersect).filterNot(_.isEmpty).map(q.and(attr, _))
  }
}

/** A conjunctive search query: per-attribute interval constraints plus
  * per-attribute categorical IN-sets. Unconstrained attributes are absent.
  */
final case class WebQuery(
    num: Map[String, Interval] = Map.empty,
    cat: Map[String, Set[String]] = Map.empty,
) {

  /** Conjoin an interval constraint (intersected with any existing one). */
  def and(attr: String, iv: Interval): WebQuery =
    copy(num = num.updated(attr, num.get(attr).map(_.intersect(iv)).getOrElse(iv)))

  /** Conjoin a categorical IN-set (intersected with any existing one). */
  def andCat(attr: String, vs: Set[String]): WebQuery =
    copy(cat = cat.updated(attr, cat.get(attr).map(_.intersect(vs)).getOrElse(vs)))

  /** True when the query can match no tuple at all (some constraint is empty). */
  def unsatisfiable: Boolean = num.values.exists(_.isEmpty) || cat.values.exists(_.isEmpty)

  /** True when every tuple matching `this` matches `o`: each constraint of
    * `o` is implied by `this`'s constraint on the same attribute.
    */
  def within(o: WebQuery): Boolean =
    o.num.forall { case (a, iv) => num.get(a).exists(_.subsetOf(iv)) } &&
      o.cat.forall { case (a, vs) => cat.get(a).exists(_.subsetOf(vs)) }

  /** Predicate evaluation on a driver-side tuple. */
  def matches(t: WebTuple): Boolean =
    num.forall { case (a, iv) => iv.contains(t.num(a)) } &&
      cat.forall { case (a, vs) => vs.contains(t.cat(a)) }
}

object WebQuery {
  /** The unconstrained query (matches everything). */
  val all: WebQuery = WebQuery()
}

/** Response of the top-k interface: at most k tuples in hidden-rank order
  * and whether more matching tuples exist beyond them.
  */
final case class TopKResponse(tuples: Seq[WebTuple], overflow: Boolean) {
  def isEmpty: Boolean = tuples.isEmpty
}

/** Axis-aligned box over a subset of the numeric attributes. Dimensions not
  * present are unconstrained (span the whole domain). Boxes are the unit of
  * work of the MD strategies and the regions of the dense-region index.
  */
final case class Box(dims: Map[String, Interval]) {

  def isEmpty: Boolean = dims.values.exists(_.isEmpty)

  /** Conjoin the box's constraints onto a base query. */
  def toQuery(base: WebQuery = WebQuery.all): WebQuery =
    dims.foldLeft(base) { case (q, (a, iv)) => q.and(a, iv) }

  /** Split along `attr` at its midpoint into `[lo, mid]` and `(mid, hi]`
    * (boundary kinds inherited from the parent so children partition it).
    * Each child is intersected with the parent, so an empty interval, or
    * a midpoint rounded onto an open end, yields no value outside it.
    */
  def split(attr: String): (Box, Box) = {
    val iv = dims(attr)
    val m  = iv.mid
    val left  = iv.intersect(iv.copy(hi = m, hiIncl = true))
    val right = iv.intersect(iv.copy(lo = m, loIncl = false))
    (copy(dims = dims.updated(attr, left)), copy(dims = dims.updated(attr, right)))
  }
}

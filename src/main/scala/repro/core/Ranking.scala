package repro.core

import repro.webdb.{Interval, WebSchema, WebTuple}

/** Min-max normalizer over the ranking attributes.
  *
  * QR2 normalizes attribute values to [0, 1] before applying the user's
  * weights (§II-B, "Attributes with different cardinalities") so that
  * slider coefficients in [-1, 1] are comparable across attributes with
  * wildly different domains. The service *discovers* min/max through the
  * 1D algorithm (see [[repro.service.Qr2Service]]); tests verify the
  * discovered values equal the true extrema.
  */
final case class Normalizer(minMax: Map[String, (Double, Double)]) {

  /** Normalized value of `attr`; degenerate attributes map to 0. */
  def apply(attr: String, v: Double): Double = {
    val (lo, hi) = minMax(attr)
    if (hi > lo) (v - lo) / (hi - lo) else 0.0
  }

  /** Inverse mapping, clamped to the attribute's [min, max]. */
  def denorm(attr: String, x: Double): Double = {
    val (lo, hi) = minMax(attr)
    lo + math.min(1.0, math.max(0.0, x)) * (hi - lo)
  }

  /** Raw width of the attribute range. */
  def span(attr: String): Double = { val (lo, hi) = minMax(attr); hi - lo }
}

object Normalizer {
  /** Normalizer from the schema's advertised domains, for 1D orders, which
    * any monotone normalization leaves unchanged: the service's 1D
    * `resultsAsDataFrame` re-rank uses it, and MD sessions use the
    * discovered extrema instead.
    */
  def fromDomains(schema: WebSchema, attrs: Seq[String]): Normalizer =
    Normalizer(attrs.map { a =>
      val d = schema.numDomains(a); a -> (d.lo, d.hi)
    }.toMap)

  /** Normalizer from observed data (test ground truth). */
  def fromTuples(tuples: Seq[WebTuple], attrs: Seq[String]): Normalizer =
    Normalizer(attrs.map { a =>
      val vs = tuples.map(_.num(a)); a -> (vs.min, vs.max)
    }.toMap)
}

/** The user-specified ranking function: a linear combination of
  * (normalized) attribute values, weights from the UI sliders in [-1, 1].
  * Lower score = better (the paper's examples — "price − 0.3·sqft",
  * "price + squarefeet: find the houses with low price and small square
  * feet" — are minimized).
  */
final case class LinearRanking(weights: Seq[(String, Double)]) {
  require(weights.nonEmpty, "ranking function needs at least one attribute")
  require(weights.map(_._1).distinct.size == weights.size, "duplicate ranking attribute")

  def attrs: Seq[String] = weights.map(_._1)

  def dim: Int = weights.size

  /** Score of a tuple under the normalizer; left-associated sum so the
    * DuckDB oracle SQL can mirror the floating-point evaluation order.
    */
  def score(t: WebTuple, norm: Normalizer): Double =
    weights.foldLeft(0.0) { case (acc, (a, w)) => acc + w * norm(a, t.num(a)) }

  /** Best achievable contribution of attribute `a` over `iv` (monotone in
    * the normalized value, so it sits at the interval end favoured by the
    * weight's sign).
    */
  def bestTerm(a: String, w: Double, iv: Interval, norm: Normalizer): Double =
    if (w >= 0) w * norm(a, iv.lo) else w * norm(a, iv.hi)

  /** Worst achievable contribution of attribute `a` over `iv`. */
  def worstTerm(a: String, w: Double, iv: Interval, norm: Normalizer): Double =
    if (w >= 0) w * norm(a, iv.hi) else w * norm(a, iv.lo)
}

object LinearRanking {
  /** Single-attribute ranking: ascending = weight +1, descending = −1. */
  def oneD(attr: String, asc: Boolean): LinearRanking =
    LinearRanking(Seq(attr -> (if (asc) 1.0 else -1.0)))
}

/** Orientation helper for the 1D algorithms: all three strategies search
  * in *key space* `κ(v) = v` (ascending) or `κ(v) = −v` (descending), so
  * one implementation covers both slider directions. `toRaw` maps a key
  * interval back to the raw interval the public interface understands.
  */
final case class KeySpace(attr: String, asc: Boolean, domain: Interval) {

  def key(v: Double): Double = if (asc) v else -v

  /** The key-space image of the attribute domain. */
  def keyDomain: Interval = toRaw(domain)

  /** Map a key-space interval to the raw-space interval it denotes (and,
    * the map being its own inverse, a raw interval to its key interval).
    */
  def toRaw(kIv: Interval): Interval = if (asc) kIv else kIv.negate

  /** Raw value of a key (inverse of `key`). */
  def raw(kv: Double): Double = if (asc) kv else -kv
}

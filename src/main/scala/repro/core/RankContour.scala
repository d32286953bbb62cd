package repro.core

import repro.webdb.{Box, Interval}

/** Geometry of the *rank-contour*: the hyperplane `f(t) = s*` through the
  * best-known solution. The region of interest of every MD strategy is the
  * part of the search box below the contour (`f < s*`); since the public
  * interface only accepts axis-aligned range predicates, the strategies
  * work with the region's bounding box.
  */
object RankContour {

  /** Best possible score of any point of `box` (attrs at the corner
    * favoured by each weight's sign).
    */
  def minScore(f: LinearRanking, box: Box, norm: Normalizer): Double =
    f.weights.foldLeft(0.0) { case (acc, (a, w)) => acc + f.bestTerm(a, w, box.dims(a), norm) }

  /** Worst possible score of any point of `box`. */
  def maxScore(f: LinearRanking, box: Box, norm: Normalizer): Double =
    f.weights.foldLeft(0.0) { case (acc, (a, w)) => acc + f.worstTerm(a, w, box.dims(a), norm) }

  /** Bounding box of `{t ∈ box : f(t) ≤ s*}`: for each dimension, the
    * attribute range consistent with reaching `s*` while every other
    * dimension sits at its best corner. Returns an empty box when even the
    * best corner scores above `sStar`.
    */
  def clip(f: LinearRanking, box: Box, sStar: Double, norm: Normalizer): Box = {
    val ms = minScore(f, box, norm)
    if (ms > sStar) // even the best corner is above the contour — empty region
      return Box(box.dims.map { case (a, iv) =>
        a -> Interval(iv.lo, iv.lo, loIncl = false, hiIncl = false)
      })
    val dims = box.dims.map { case (a, iv) =>
      val w = f.weights.collectFirst { case (`a`, wt) => wt }.getOrElse(0.0)
      if (w == 0.0 || norm.span(a) <= 0.0) a -> iv
      else {
        val rest    = ms - f.bestTerm(a, w, iv, norm) // best score of the other dims
        val nBound  = (sStar - rest) / w              // normalized bound on this dim
        val rawB    = norm.denorm(a, nBound)
        val clipped =
          if (w > 0) iv.copy(hi = math.min(iv.hi, rawB))
          else iv.copy(lo = math.max(iv.lo, rawB))
        a -> clipped
      }
    }
    Box(dims)
  }

  /** True when `clipped` is meaningfully smaller than `box` in at least one
    * dimension (≥ 1 % relative width reduction) — the progress test of
    * MD-BASELINE's narrowing loop.
    */
  def shrank(box: Box, clipped: Box): Boolean =
    box.dims.exists { case (a, iv) =>
      iv.width > 0 && clipped.dims(a).width < iv.width * 0.99
    }
}

package qr2bench

import scala.util.Random

/** A fixed slice of memory-latency-bound work owned by the benchmark: a
  * pointer chase through a random single-cycle permutation of 4M ints
  * (16 MiB). Backend scans chase pointers through catalogue tuples in the
  * same way, but this is none of the service's code. It is timed before
  * every session, and page times are reported at the speed of a host where
  * it takes [[Report.SliceRefMs]]. It follows only part of the host's
  * drift: over five seeds on one busy stretch the calibrated service time
  * per query spread 0.06 (quartile distance over median) against 0.11 in
  * plain wall-clock, yet over ten seeds the calibrated `page_ms_p50` still
  * spread 0.4, which is why service time carries no bound.
  */
object Calibration {

  /** The permutation: `next(i)` follows `i`, built by Sattolo's algorithm so
    * that one cycle visits every slot.
    */
  private val next: Array[Int] = {
    val n   = 1 << 22
    val a   = Array.tabulate(n)(identity)
    val rng = new Random(3)
    var i   = n - 1
    while (i > 0) {
      val j = rng.nextInt(i)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  /** Steps per slice: about 3 ms on a quiet 4-core x86 cloud VM. */
  private val Steps = 20000

  @volatile private var sink = 0

  /** Nanoseconds one slice takes now. */
  def slice(): Long = {
    val t0 = System.nanoTime()
    var p  = sink
    var i  = 0
    while (i < Steps) {
      p = next(p)
      i += 1
    }
    sink = p
    System.nanoTime() - t0
  }
}

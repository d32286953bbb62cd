package qr2bench

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** One recorded interval. `parent` is 0 for a root span. Request spans
  * carry the caller they are attributed to (`crawl`, `probe` or
  * `bootstrap`) and whether the response overflowed, came back empty or
  * repeated a query this service's backend had already answered.
  */
final class Span(
    val id: Int,
    val parent: Int,
    val kind: String,
    val start: Long,
    var end: Long = 0L,
    var caller: String = "",
    var overflow: Boolean = false,
    var empty: Boolean = false,
    var repeat: Boolean = false,
)

/** In-memory span recorder: session → page → (open →) backend request.
  * Spans nest by call order; a request is a child of the innermost open
  * span. Nothing is written until [[write]].
  */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span]         = Nil

  def begin(kind: String): Span = {
    val s = new Span(spans.size + 1, open.headOption.fold(0)(_.id), kind, System.nanoTime())
    spans += s
    open = s :: open
    s
  }

  def end(s: Span): Unit = {
    s.end = System.nanoTime()
    open = open.dropWhile(_ ne s).drop(1)
  }

  /** Record a finished backend request under the innermost open span. */
  def request(start: Long, end: Long, overflow: Boolean, empty: Boolean, repeat: Boolean): Unit = {
    val s = new Span(spans.size + 1, open.headOption.fold(0)(_.id), "request", start, end,
      Tracer.caller(Thread.currentThread.getStackTrace), overflow, empty, repeat)
    spans += s
  }

  /** Write the spans as CSV, one line each. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("id,parent,kind,start_ns,end_ns,caller,overflow,empty,repeat")
      spans.foreach { s =>
        out.println(s"${s.id},${s.parent},${s.kind},${s.start},${s.end},${s.caller}," +
          s"${s.overflow},${s.empty},${s.repeat}")
      }
    } finally out.close()
  }
}

object Tracer {

  /** Who sent a backend request: min/max discovery or cache verification
    * in the service, else the crawler, else an algorithm probe.
    */
  def caller(stack: Array[StackTraceElement]): String =
    if (stack.exists(f => f.getClassName == "repro.service.Qr2Service" &&
        (f.getMethodName.contains("minMax") || f.getMethodName.contains("verifyCache"))))
      "bootstrap"
    else if (stack.exists(_.getClassName.startsWith("repro.crawl.Crawler"))) "crawl"
    else "probe"
}

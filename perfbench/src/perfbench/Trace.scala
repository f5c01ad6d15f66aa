package perfbench

import scala.collection.mutable

/** In-memory span recorder for the traced run. Every span has a name, start,
  * end, parent span and the id of the benchmark call it belongs to; spans are
  * kept in growable primitive buffers and written out once, at the end.
  *
  * The traced code is single-threaded and spans nest strictly, so a span's
  * self time is its duration minus the summed durations of its direct
  * children (children never overlap one another).
  *
  * A disabled tracer records nothing: `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var nameOf = new Array[Int](1 << 14)
  private var startNs = new Array[Long](1 << 14)
  private var endNs = new Array[Long](1 << 14)
  private var parentOf = new Array[Int](1 << 14)
  private var callOf = new Array[Int](1 << 14)
  private var n = 0
  private var open = -1

  /** The benchmark call that new spans belong to. */
  var call: Int = 0

  def id(name: String): Int = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })

  def begin(nameId: Int): Int = {
    if (!enabled) return -1
    if (n == nameOf.length) grow()
    val s = n
    n += 1
    nameOf(s) = nameId; parentOf(s) = open; callOf(s) = call
    open = s
    startNs(s) = System.nanoTime()
    s
  }

  def end(span: Int): Unit =
    if (span >= 0) {
      endNs(span) = System.nanoTime()
      open = parentOf(span)
    }

  @inline def span[A](nameId: Int)(body: => A): A = {
    val s = begin(nameId)
    try body finally end(s)
  }

  private def grow(): Unit = {
    val cap = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    startNs = java.util.Arrays.copyOf(startNs, cap)
    endNs = java.util.Arrays.copyOf(endNs, cap)
    parentOf = java.util.Arrays.copyOf(parentOf, cap)
    callOf = java.util.Arrays.copyOf(callOf, cap)
  }

  /** Total and self nanoseconds and span count per name, over spans whose
    * call id satisfies `calls`.
    */
  final case class Agg(var totalNs: Long = 0L, var selfNs: Long = 0L, var count: Long = 0L)

  def aggregate(calls: Int => Boolean = _ => true): Map[String, Agg] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      val p = parentOf(i)
      if (p >= 0) childNs(p) += endNs(i) - startNs(i)
      i += 1
    }
    val out = mutable.HashMap.empty[String, Agg]
    i = 0
    while (i < n) {
      if (calls(callOf(i))) {
        val a = out.getOrElseUpdate(names(nameOf(i)), Agg())
        val d = endNs(i) - startNs(i)
        a.totalNs += d; a.selfNs += d - childNs(i); a.count += 1
      }
      i += 1
    }
    out.toMap
  }

  /** Write every span as one tab-separated line: call, span, parent, name,
    * start and end in nanoseconds from the first span.
    */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val t0 = if (n > 0) startNs(0) else 0L
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("call\tspan\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"${callOf(i)}\t$i\t${parentOf(i)}\t${names(nameOf(i))}\t${startNs(i) - t0}\t${endNs(i) - t0}\n")
        i += 1
      }
    } finally w.close()
  }
}

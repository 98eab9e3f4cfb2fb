package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Growable buffer of latency samples, in nanoseconds, split into
  * stretches by `cut()`. A percentile is taken in every stretch on its
  * own (see `Report.latency`).
  */
final class Samples {
  private var a = new Array[Long](1 << 12)
  private var n = 0
  private val ends = scala.collection.mutable.ArrayBuffer.empty[Int]

  def add(ns: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = ns
    n += 1
  }
  /** Ends the current stretch (an empty stretch is not kept). */
  def cut(): Unit = if (n > ends.lastOption.getOrElse(0)) ends += n
  def count: Int = n
  def mean: Double = {
    var s = 0.0; var i = 0
    while (i < n) { s += a(i); i += 1 }
    if (n == 0) 0.0 else s / n
  }
  /** Nearest-rank percentile, `p` in (0, 100], of every stretch. */
  def stretchPct(p: Double): Seq[Double] = {
    require(n > 0, "no samples")
    cut()
    ends.indices.map { i =>
      val s = java.util.Arrays.copyOfRange(a, if (i == 0) 0 else ends(i - 1), ends(i))
      java.util.Arrays.sort(s)
      s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1)).toDouble
    }
  }
  /** Median over stretches of the stretch percentile. */
  def pct(p: Double): Double = Samples.median(stretchPct(p))
}

object Samples {
  def median(v: Seq[Double]): Double = {
    val o = v.sorted
    if (o.size % 2 == 1) o(o.size / 2) else (o(o.size / 2 - 1) + o(o.size / 2)) / 2
  }
}

/** Process-wide JVM counters read through the management beans. */
object Jvm {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq
    .filter(_.getType == java.lang.management.MemoryType.HEAP)
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap in use right after full collections (the fixed GC is
    * ParallelGC, where `System.gc()` is a full collection). Read from
    * each pool's usage after its last collection, because current eden
    * usage also counts thread-local buffers handed out since.
    */
  def heapAfterGc(): Long = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    heapPools.map(_.getCollectionUsage.getUsed).sum
  }
  /** Waits (up to 2 s) until the JIT has compiled nothing for 100 ms,
    * so that a warm-up's queued compilations finish before timing.
    */
  def awaitJitIdle(): Unit = {
    val end = System.nanoTime() + 2000000000L
    var last = compileMillis
    var quiet = 0
    while (quiet < 2 && System.nanoTime() < end) {
      Thread.sleep(50)
      val c = compileMillis
      if (c == last) quiet += 1 else { quiet = 0; last = c }
    }
  }
  def gcMillis: Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum
  def compileMillis: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime
  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** Metrics and facts of one run; renders the result line. */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String, Long)]
  val facts = mutable.LinkedHashMap.empty[String, Any]
  /** Per-stretch values of the latency metrics, so that the runs of
    * several JVMs can be pooled.
    */
  val stretches = mutable.LinkedHashMap.empty[String, Seq[Double]]
  /** Single values (the builds of `setup_s`) that several JVMs pool
    * before taking their median.
    */
  val pooled = mutable.LinkedHashMap.empty[String, Seq[Double]]

  /** The `p`-th percentile of `s` in `unit` (`scale` ns per unit): the
    * least of its stretch values. Other tenants of the host slow every
    * operation for seconds at a time, and only ever add time; the
    * stretches of a run spread over all of it, so the quietest one
    * shows the program's own speed.
    */
  def latency(name: String, s: Samples, p: Double, scale: Double, unit: String): Unit = {
    val v = s.stretchPct(p).map(_ / scale)
    put(name, v.min, unit, s.count)
    stretches(name) = v
  }

  def put(name: String, value: Double, unit: String, samples: Long = 1): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit, samples)
  }
  def get(name: String): Double = metrics(name)._1
  def names: Iterable[String] = metrics.keys

  /** One human-readable line per metric, with its sample count. */
  def lines(only: Seq[String]): Seq[String] =
    only.flatMap(k => metrics.get(k).map { case (v, u, n) =>
      f"[metric] $k%-24s ${Json.num(v)}%-22s $u%-6s samples=$n"
    })

  def resultJson(only: Seq[String], correct: Boolean, attempted: Long, failed: Long): String = {
    val ms = only.map { k =>
      val (v, u, _) = metrics.getOrElse(k, throw new IllegalStateException(s"metric $k was not measured"))
      k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u)
    }
    Json(mutable.LinkedHashMap[String, Any]("correct" -> correct, "attempted" -> attempted,
      "failed" -> failed, "metrics" -> mutable.LinkedHashMap(ms: _*)))
  }

  def samplesOf(only: Seq[String]): Map[String, Long] =
    only.flatMap(k => metrics.get(k).map(m => k -> m._3)).toMap
}

/** Minimal JSON writer for the result and facts lines. */
object Json {
  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else java.lang.Double.toString(v)

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => str(s)
    case b: Boolean          => b.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case d: Double           => num(d)
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => str(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.iterator.map(apply).mkString("[", ",", "]")
    case o                   => str(o.toString)
  }
}

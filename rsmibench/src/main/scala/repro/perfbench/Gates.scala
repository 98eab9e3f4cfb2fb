package repro.perfbench

import scala.collection.mutable
import repro.spatial.{Point, Rect}

/** Correctness gates. Every checked answer counts as one attempted
  * operation; a wrong answer counts as failed. The first few failures
  * are kept verbatim for the run's error output.
  */
final class Gates {
  private val att = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
  private val bad = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
  val firstFailures = mutable.ArrayBuffer.empty[String]

  def attempted: Long = att.values.sum
  def failed: Long = bad.values.sum
  def byGate: Map[String, String] = att.keys.map(k => k -> s"${bad(k)}/${att(k)}").toMap

  def check(gate: String, ok: Boolean, what: => String): Boolean = {
    att(gate) += 1
    if (!ok) {
      bad(gate) += 1
      if (firstFailures.size < 10) firstFailures += s"$gate: $what"
    }
    ok
  }

  /** A live indexed point must be found. */
  def found(got: Option[Point], x: Double, y: Double): Boolean =
    check("point_found", got.exists(p => p.x == x && p.y == y), s"($x, $y) not found")

  /** A deleted point must be reported deleted, then not be found. */
  def deleted(removed: Boolean, after: Option[Point], x: Double, y: Double): Boolean =
    check("delete_removes", removed && after.isEmpty,
      s"delete($x, $y) returned $removed, then found $after")

  /** Approximate window: no point outside the window. */
  def inside(got: collection.Seq[Point], r: Rect): Boolean =
    check("window_no_false_positive", got.forall(r.contains), s"point outside $r")

  /** Approximate kNN: exactly k points. */
  def kPoints(got: collection.Seq[Point], k: Int): Boolean =
    check("knn_returns_k", got.size == k, s"kNN returned ${got.size} of $k points")

  /** Exact window: the same ids as brute force. */
  def sameIds(gate: String, got: Array[Long], truth: Array[Long]): Boolean = {
    java.util.Arrays.sort(got)
    check(gate, java.util.Arrays.equals(got, truth),
      s"${got.length} ids returned, ${truth.length} expected")
  }

  /** Exact kNN, tie-tolerant: k distinct points, none beyond the true
    * k-th distance.
    */
  def exactKnn(got: collection.Seq[Point], k: Int, kth2: Double, qx: Double, qy: Double): Boolean =
    check("knn_exact", got.size == k && got.map(_.id).distinct.size == k &&
      got.forall(_.dist2(qx, qy) <= kth2), s"kNN at ($qx, $qy) differs from brute force")
}

object Gates {
  /** Feeds each gate one wrong answer and one right answer; returns
    * the gates whose counts do not come out as exactly one failure.
    */
  def selfTest(): Seq[String] = {
    val p = Point(1, 0.5, 0.5)
    val far = Point(2, 0.9, 0.9)
    val r = Rect(0.4, 0.4, 0.6, 0.6)
    val cases: Seq[(String, Gates => Unit)] = Seq(
      "point_found" -> { g => g.found(Some(p), 0.5, 0.5); g.found(None, 0.5, 0.5) },
      "delete_removes" -> { g => g.deleted(true, None, 0.5, 0.5); g.deleted(true, Some(p), 0.5, 0.5) },
      "window_no_false_positive" -> { g => g.inside(Seq(p), r); g.inside(Seq(p, far), r) },
      "knn_returns_k" -> { g => g.kPoints(Seq(p, far), 2); g.kPoints(Seq(p), 2) },
      "window_exact" -> { g =>
        g.sameIds("window_exact", Array(2L, 1L), Array(1L, 2L))
        g.sameIds("window_exact", Array(1L), Array(1L, 2L)) },
      "knn_exact" -> { g =>
        g.exactKnn(Seq(p), 1, 0.0, 0.5, 0.5)
        g.exactKnn(Seq(far), 1, 0.0, 0.5, 0.5) })
    cases.flatMap { case (name, feed) =>
      val g = new Gates
      feed(g)
      if (g.attempted == 2 && g.failed == 1) None else Some(name)
    }
  }
}

/** Brute-force oracle over the live point set: the reference every
  * answer is checked against. Points are stored in primitive arrays so
  * that the oracle shares no objects with the index.
  */
final class LiveSet(cap: Int) {
  val xs = new Array[Double](cap)
  val ys = new Array[Double](cap)
  val ids = new Array[Long](cap)
  val alive = new Array[Boolean](cap)
  var size = 0

  def add(p: Point): Int = {
    xs(size) = p.x; ys(size) = p.y; ids(size) = p.id; alive(size) = true
    size += 1
    size - 1
  }
  def kill(i: Int): Unit = alive(i) = false

  /** Sorted ids of live points inside `r`. */
  def windowIds(r: Rect): Array[Long] = {
    val out = mutable.ArrayBuilder.make[Long]
    var i = 0
    while (i < size) {
      if (alive(i) && r.contains(xs(i), ys(i))) out += ids(i)
      i += 1
    }
    val a = out.result()
    java.util.Arrays.sort(a)
    a
  }

  def windowCount(r: Rect): Int = {
    var c = 0; var i = 0
    while (i < size) {
      if (alive(i) && r.contains(xs(i), ys(i))) c += 1
      i += 1
    }
    c
  }

  /** Squared distance of the k-th nearest live point to (qx, qy). */
  def kth2(qx: Double, qy: Double, k: Int): Double = {
    val best = Array.fill(k)(Double.PositiveInfinity) // ascending
    var i = 0
    while (i < size) {
      if (alive(i)) {
        val dx = xs(i) - qx; val dy = ys(i) - qy
        val d = dx * dx + dy * dy
        if (d < best(k - 1)) {
          var j = k - 1
          while (j > 0 && best(j - 1) > d) { best(j) = best(j - 1); j -= 1 }
          best(j) = d
        }
      }
      i += 1
    }
    best(k - 1)
  }
}

object LiveSet {
  def of(pts: Array[Point], extra: Int): LiveSet = {
    val s = new LiveSet(pts.length + extra)
    pts.foreach(s.add)
    s
  }
}

package repro.perfbench

import repro.core.{ExpandingKnn, Rsmi}
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

/** A fixed, seeded sequence of read operations with their expected
  * answers, replayed round-robin by the closed loop.
  */
final class ReadPool(
    val kind: Array[Byte],           // ReadPool.Point | Window | Knn
    val qx: Array[Double],
    val qy: Array[Double],
    val win: Array[Rect],
    val truthIds: Array[Array[Long]], // exact windows: sorted ids; approximate: null
    val truthCount: Array[Int],       // live points inside the window
    val kth2: Array[Double],          // true k-th nearest distance²
    val exact: Boolean,
    val k: Int) {
  def size: Int = kind.length
}

object ReadPool {
  val Point: Byte = 0
  val Window: Byte = 1
  val Knn: Byte = 2

  /** `m` operations in the ratio 8 point : 1 window : 1 kNN, in seeded
    * order. Centres are live data points (§6.1: queries follow the data).
    */
  def apply(live: LiveSet, m: Int, areaFrac: Double, k: Int, exact: Boolean, seed: Long): ReadPool = {
    val rnd = new java.util.Random(seed)
    val kind = Array.tabulate(m)(i => (if (i % 10 == 8) Window else if (i % 10 == 9) Knn else Point).toByte)
    var i = m - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val t = kind(i); kind(i) = kind(j); kind(j) = t; i -= 1 }
    val qx = new Array[Double](m); val qy = new Array[Double](m)
    val win = new Array[Rect](m)
    val truthIds = new Array[Array[Long]](m)
    val truthCount = new Array[Int](m)
    val kth2 = new Array[Double](m)
    i = 0
    while (i < m) {
      var c = rnd.nextInt(live.size)
      while (!live.alive(c)) c = rnd.nextInt(live.size)
      qx(i) = live.xs(c); qy(i) = live.ys(c)
      kind(i) match {
        case Window =>
          win(i) = Harness.window(qx(i), qy(i), areaFrac, 1.0)
          if (exact) truthIds(i) = live.windowIds(win(i))
          truthCount(i) = live.windowCount(win(i))
        case Knn => kth2(i) = live.kth2(qx(i), qy(i), k)
        case _   =>
      }
      i += 1
    }
    new ReadPool(kind, qx, qy, win, truthIds, truthCount, kth2, exact, k)
  }
}

/** End-to-end latencies and recall of read operations. */
final class ReadRec {
  val point = new Samples
  val window = new Samples
  val knn = new Samples
  var windowRecall = 0.0
  var knnRecall = 0.0

  def cut(): Unit = { point.cut(); window.cut(); knn.cut() }

  def report(r: Report): Unit = {
    r.latency("point_p50_us", point, 50, 1e3, "us")
    r.latency("point_p90_us", point, 90, 1e3, "us")
    r.latency("window_p50_us", window, 50, 1e3, "us")
    r.latency("window_p90_us", window, 90, 1e3, "us")
    r.latency("knn_p50_us", knn, 50, 1e3, "us")
    r.latency("knn_p90_us", knn, 90, 1e3, "us")
    r.put("window_recall", windowRecall / window.count, "ratio", window.count)
    r.put("knn_recall", knnRecall / knn.count, "ratio", knn.count)
  }
}

/** What the traced pass measures beside the spans: the untraced
  * latencies, the whole calls of the spans sweep (windows, and RSMIa
  * kNN), and the tracing
  * overhead (the wall time per operation of the spans sweep over that of
  * the program).
  */
final case class Traced(untraced: ReadRec, whole: ReadRec, overhead: Double)

/** The closed read loop: one client thread issues the next operation
  * when the previous answer is back. Each answer is timed, then checked.
  */
object Reads {

  private def recordWindow(rec: ReadRec, pool: ReadPool, i: Int, got: collection.Seq[Point], gates: Gates): Unit = {
    val r = pool.win(i)
    if (pool.exact) gates.sameIds("window_exact", got.iterator.map(_.id).toArray, pool.truthIds(i))
    else gates.inside(got, r)
    val matched = got.count(r.contains)
    rec.windowRecall += (if (pool.truthCount(i) == 0) 1.0 else math.min(1.0, matched.toDouble / pool.truthCount(i)))
  }

  private def recordKnn(rec: ReadRec, pool: ReadPool, i: Int, got: collection.Seq[Point], gates: Gates): Unit = {
    val (x, y) = (pool.qx(i), pool.qy(i))
    if (pool.exact) gates.exactKnn(got, pool.k, pool.kth2(i), x, y) else gates.kPoints(got, pool.k)
    val matched = got.count(_.dist2(x, y) <= pool.kth2(i))
    rec.knnRecall += math.min(1.0, matched.toDouble / pool.k)
  }

  /** Runs operations from position `from` for `ns` nanoseconds;
    * returns the next position.
    */
  def run(idx: Rsmi, pool: ReadPool, from: Int, ns: Long, rec: ReadRec, gates: Gates): Int = {
    val end = System.nanoTime() + ns
    var n = from
    while ((n & 31) != 0 || System.nanoTime() < end) { one(idx, pool, n, rec, gates); n += 1 }
    n
  }

  /** Operation `n` of the pool, timed through the program, then checked. */
  private def one(idx: Rsmi, pool: ReadPool, n: Int, rec: ReadRec, gates: Gates): Unit = {
    val i = n % pool.size
    val x = pool.qx(i); val y = pool.qy(i)
    pool.kind(i) match {
      case ReadPool.Point =>
        val t0 = System.nanoTime()
        val got = idx.pointQuery(x, y)
        rec.point.add(System.nanoTime() - t0)
        gates.found(got, x, y)
      case ReadPool.Window =>
        val t0 = System.nanoTime()
        val got = if (pool.exact) idx.windowQueryExact(pool.win(i)) else idx.windowQuery(pool.win(i))
        rec.window.add(System.nanoTime() - t0)
        recordWindow(rec, pool, i, got, gates)
      case _ =>
        val t0 = System.nanoTime()
        val got = if (pool.exact) idx.knnQueryExact(x, y, pool.k) else idx.knnQuery(x, y, pool.k)
        rec.knn.add(System.nanoTime() - t0)
        recordKnn(rec, pool, i, got, gates)
    }
  }

  /** Warm-up: runs 200 ms stretches until the last three stretches'
    * point, window and kNN medians agree (within 3%, 6%, 6%), or until
    * `maxNs` has passed. Returns (next position, stretches run).
    */
  def warmUp(idx: Rsmi, pool: ReadPool, maxNs: Long, gates: Gates): (Int, Int) = {
    val end = System.nanoTime() + maxNs
    val hist = scala.collection.mutable.ArrayBuffer.empty[(Double, Double, Double)]
    def settled: Boolean = hist.size >= 3 && {
      val last = hist.takeRight(3)
      def within(f: ((Double, Double, Double)) => Double, tol: Double) = {
        val v = last.map(f); v.max <= v.min * (1 + tol)
      }
      within(_._1, 0.03) && within(_._2, 0.06) && within(_._3, 0.06)
    }
    var pos = 0
    while (!settled && System.nanoTime() < end) {
      val rec = new ReadRec
      pos = run(idx, pool, pos, 200000000L, rec, gates)
      hist += ((rec.point.pct(50), rec.window.pct(50), rec.knn.pct(50)))
    }
    (pos, hist.size)
  }

  /** Traced pass. Operations alternate between the program (timed per
    * call, as in the untraced run) and the spans sweep, and the parity
    * flips every 64 operations, so both see the same host and each
    * position of the pool in turn; no operation runs twice in a row,
    * so neither side finds the other's cache lines. The spans sweep runs
    * the layers of each operation one after another, with a timestamp
    * at every boundary (`Shadow`'s walks, and the program's own
    * `predictLocal` and `windowRange`), less the cost of reading the
    * clock. A counts sweep then repeats the pool's operations once
    * through the program, for its block-access counter, allocation and
    * kNN expansions, and through the walks for the counts the program
    * does not keep; so the counts depend on the seed only. A walk whose
    * blocks or expansions differ from the program's fails the
    * `shadow_agrees` gate.
    */
  def traced(idx: Rsmi, pool: ReadPool, ns: Long, L: Layers, C: Layers, gates: Gates): Traced = {
    val untraced = new ReadRec
    val whole = new ReadRec
    val rec = new ReadRec
    // The walks are compiled first, as the program's calls were.
    val (warm, warmWhole) = (new Layers, new ReadRec)
    val warmEnd = System.nanoTime() + ns / 4
    var n = 0
    while (System.nanoTime() < warmEnd) { spans(idx, pool, n, warm, rec, warmWhole, gates); n += 1 }
    Jvm.awaitJitIdle()
    val end = System.nanoTime() + ns * 3 / 4
    var plainNs = 0L; var spansNs = 0L; var plainOps = 0L; var spansOps = 0L
    n = 0
    while ((n & 63) != 0 || System.nanoTime() < end) {
      val t = System.nanoTime()
      if (((n >> 6) + n) % 2 == 0) { one(idx, pool, n, untraced, gates); plainNs += System.nanoTime() - t; plainOps += 1 }
      else { spans(idx, pool, n, L, rec, whole, gates); spansNs += System.nanoTime() - t; spansOps += 1 }
      n += 1
    }
    counts(idx, pool, C, gates)
    Traced(untraced, whole, (spansNs.toDouble / spansOps) / (plainNs.toDouble / plainOps) - 1)
  }

  /** Nanoseconds one `System.nanoTime()` span adds to what it times. */
  lazy val clockNs: Double = {
    val d = new Array[Long](20001)
    var i = 0
    while (i < d.length) { val t = System.nanoTime(); d(i) = System.nanoTime() - t; i += 1 }
    java.util.Arrays.sort(d)
    d(d.length / 2).toDouble
  }

  /** The spans sweep. Its answers are checked as `run` checks the
    * program's, so that both sweeps do the same work between operations.
    */
  private def spans(idx: Rsmi, pool: ReadPool, n: Int, L: Layers, rec: ReadRec, whole: ReadRec,
                    gates: Gates): Unit = {
    val c = clockNs
    val i = n % pool.size
    val x = pool.qx(i); val y = pool.qy(i)
    val w = new Shadow.Work
    pool.kind(i) match {
      case ReadPool.Point =>
        val t0 = System.nanoTime()
        val leaf = Shadow.descend(idx.root, x, y, w)
        val t1 = System.nanoTime()
        val local = leaf.predictLocal(x, y)
        val t2 = System.nanoTime()
        val got = Shadow.pointScan(idx, leaf, local, x, y, w)
        val t3 = System.nanoTime()
        gates.found(got, x, y)
        L.op("point")
        L.add("point.descent_ns", t1 - t0 - c)
        L.add("point.predict_ns", t2 - t1 - c)
        L.add("point.scan_ns", t3 - t2 - c)
      case ReadPool.Window =>
        // Half the windows time the range step: the program's
        // `windowRange` (Alg 2) or the MBR traversal of a walk copy
        // (RSMIa). The other half run the whole call through `one`, the
        // untraced loop's own code: a span around a copy of the scan
        // step ran ~10% faster than the program's call, and the same
        // call timed from another method differed by as much. The scan
        // is the difference of the two means, over halves of the pool
        // that differ only by chance.
        val r = pool.win(i)
        if ((n / pool.size + n) % 2 == 0) {
          if (pool.exact) Shadow.exactWindow(idx, r, w)
          else {
            val t0 = System.nanoTime()
            idx.windowRange(r)
            w.rangeNs = System.nanoTime() - t0 - c
            w.result = idx.windowQuery(r)
          }
          L.add("window.range_ns", w.rangeNs); L.op("window_range")
          recordWindow(rec, pool, i, w.result, gates)
        } else one(idx, pool, n, whole, gates)
        L.op("window")
      case _ =>
        if (pool.exact) {
          // The whole call runs through `one`, as for windows; the scan
          // is the rest of it.
          one(idx, pool, n, whole, gates)
          Shadow.exactKnnRange(idx, x, y, pool.k, w)
        } else {
          Shadow.timedKnn(idx, x, y, pool.k, w)
          recordKnn(rec, pool, i, w.out, gates)
          L.add("knn.scan_ns", w.scanNs.toDouble)
        }
        L.op("knn")
        L.add("knn.range_ns", w.rangeNs.toDouble)
    }
  }

  /** The counts sweep: every operation of the pool once, into `L`. */
  private def counts(idx: Rsmi, pool: ReadPool, L: Layers, gates: Gates): Unit = {
    var n = 0
    while (n < pool.size) {
      val i = n % pool.size
      val x = pool.qx(i); val y = pool.qy(i)
      val w = new Shadow.Work
      val a0 = idx.blockAccesses
      val b0 = Jvm.allocatedBytes
      var programBlocks = 0L
      pool.kind(i) match {
        case ReadPool.Point =>
          L.op("point")
          idx.pointQuery(x, y)
          L.add("point.alloc_bytes", (Jvm.allocatedBytes - b0).toDouble)
          programBlocks = idx.blockAccesses - a0
          L.add("point.blocks", programBlocks.toDouble)
          val leaf = Shadow.descend(idx.root, x, y, w)
          Shadow.pointScan(idx, leaf, leaf.predictLocal(x, y), x, y, w)
          L.add("point.levels", w.levels)
          L.add("point.overflow_blocks", w.overflow)
          L.add("point.points_examined", w.points)
        case ReadPool.Window =>
          L.op("window")
          val r = pool.win(i)
          val got = if (pool.exact) idx.windowQueryExact(r) else idx.windowQuery(r)
          L.add("window.alloc_bytes", (Jvm.allocatedBytes - b0).toDouble)
          programBlocks = idx.blockAccesses - a0
          L.add("window.blocks", programBlocks.toDouble)
          if (pool.exact) Shadow.exactWindow(idx, r, w)
          else {
            val (lo, hi) = idx.windowRange(r)
            Shadow.rangeScan(idx, lo, hi, r, w)
            Shadow.cornerLevels(idx, r, w)
          }
          L.add("window.nodes_visited", w.nodes)
          L.add("window.points_examined", w.points)
          L.add("window.results", got.size)
          gates.check("shadow_agrees", w.out.size == got.size, s"window walk found ${w.out.size} of ${got.size}")
        case _ =>
          L.op("knn")
          var expansions = 0
          val got =
            if (pool.exact) idx.knnQueryExact(x, y, pool.k)
            else ExpandingKnn.knn(idx.store, idx.pmfX, idx.pmfY, idx.cardinality, idx.cfg.delta, x, y, pool.k) {
              r => expansions += 1; idx.windowRange(r)
            }
          L.add("knn.alloc_bytes", (Jvm.allocatedBytes - b0).toDouble)
          programBlocks = idx.blockAccesses - a0
          L.add("knn.blocks", programBlocks.toDouble)
          if (pool.exact) Shadow.exactKnn(idx, x, y, pool.k, w) else Shadow.approxKnn(idx, x, y, pool.k, w)
          if (!pool.exact) gates.check("shadow_agrees", w.nodes == expansions,
            s"kNN walk expanded ${w.nodes} times, the program $expansions")
          L.add("knn.expansions", if (pool.exact) w.nodes else expansions)
          L.add("knn.points_examined", w.points)
          L.add("knn.results", got.size)
      }
      gates.check("shadow_agrees", w.blocks == programBlocks,
        s"${w.blocks} blocks in the walk, $programBlocks read by the program")
      n += 1
    }
  }
}

package repro.perfbench

import repro.core.Rsmi
import repro.harness.Harness
import repro.spatial.Point

/** End-to-end latencies of updates. */
final class UpdateRec {
  val insert = new Samples
  val delete = new Samples

  def cut(): Unit = { insert.cut(); delete.cut() }

  def report(r: Report): Unit = {
    r.latency("insert_p50_us", insert, 50, 1e3, "us")
    r.latency("insert_p90_us", insert, 90, 1e3, "us")
    r.latency("delete_p50_us", delete, 50, 1e3, "us")
  }
}

/** One update stream (§5): inserts, with one delete of an earlier
  * insert per 10 inserts; per insert, point queries on one recent
  * insert and one random live point; and, when `readsEvery > 0`, one
  * RSMIa window and one RSMIa kNN per `readsEvery` inserts. The stream
  * is a pure function of its inputs and `seed`, so repeating it on an
  * identical index repeats the identical work.
  */
final class UpdateStream(ins: Array[Point], baseN: Int, seed: Long,
                         readsEvery: Int, areaFrac: Double, k: Int) {

  // Brute-force answers to the stream's reads, by read event. Every
  // run of the stream starts from the same live set, so they are
  // computed in the first run only.
  private val events = if (readsEvery > 0) ins.length / readsEvery else 0
  private val windowTruth = new Array[Array[Long]](events)
  private val knnTruth = Array.fill(events)(Double.NaN)

  /** Applies the stream to `idx`, whose live points are `live`. The
    * first `warm` inserts are run and checked but not recorded; the
    * recorded ones are split into stretches of `stretch` inserts.
    */
  def run(idx: Rsmi, live: LiveSet, warm: Int, stretch: Int, rec: UpdateRec, reads: ReadRec,
          gates: Gates, L: Layers): Unit = {
    val rnd = new java.util.Random(seed)
    val aliveIns = new Array[Int](ins.length)   // live-set indices of live inserts
    val posOf = new Array[Int](live.size + ins.length)
    var nAlive = 0
    def randomLive(): Int = {
      val r = rnd.nextInt(baseN + nAlive)
      if (r < baseN) r else aliveIns(r - baseN)
    }
    def query(j: Int, record: Boolean): Unit = {
      val x = live.xs(j); val y = live.ys(j)
      val t0 = System.nanoTime()
      val got = idx.pointQuery(x, y)
      val dt = System.nanoTime() - t0
      if (record && reads != null) reads.point.add(dt)
      gates.found(got, x, y)
    }
    var i = 0
    while (i < ins.length) {
      if (i == warm && warm > 0) Jvm.awaitJitIdle()
      val record = i >= warm
      val p = ins(i)
      val b0 = if (L != null) Jvm.allocatedBytes else 0L
      val t0 = System.nanoTime()
      idx.insert(p)
      val dt = System.nanoTime() - t0
      if (L != null) { L.op("insert"); L.add("insert.alloc_bytes", (Jvm.allocatedBytes - b0).toDouble) }
      if (record) rec.insert.add(dt)
      val li = live.add(p)
      posOf(li) = nAlive; aliveIns(nAlive) = li; nAlive += 1

      val back = li - rnd.nextInt(math.min(64, i + 1))
      query(if (live.alive(back)) back else li, record)
      query(randomLive(), record)

      if ((i + 1) % 10 == 0) {
        val v = aliveIns(rnd.nextInt(nAlive))
        val x = live.xs(v); val y = live.ys(v)
        val t1 = System.nanoTime()
        val removed = idx.delete(x, y)
        val dd = System.nanoTime() - t1
        if (record) rec.delete.add(dd)
        if (L != null) { L.op("delete"); if (removed) L.add("delete.found", 1) }
        gates.deleted(removed, idx.pointQuery(x, y), x, y)
        live.kill(v)
        val at = posOf(v); nAlive -= 1
        aliveIns(at) = aliveIns(nAlive); posOf(aliveIns(at)) = at
      }

      if (readsEvery > 0 && (i + 1) % readsEvery == 0) {
        val e = (i + 1) / readsEvery - 1
        val c = randomLive()
        val r = Harness.window(live.xs(c), live.ys(c), areaFrac, 1.0)
        val t1 = System.nanoTime()
        val got = idx.windowQueryExact(r)
        val dw = System.nanoTime() - t1
        if (windowTruth(e) == null) windowTruth(e) = live.windowIds(r)
        val truth = windowTruth(e)
        gates.sameIds("window_exact", got.iterator.map(_.id).toArray, truth)
        val q = randomLive()
        val (qx, qy) = (live.xs(q), live.ys(q))
        val t2 = System.nanoTime()
        val nn = idx.knnQueryExact(qx, qy, k)
        val dk = System.nanoTime() - t2
        if (knnTruth(e).isNaN) knnTruth(e) = live.kth2(qx, qy, k)
        val kth2 = knnTruth(e)
        gates.exactKnn(nn, k, kth2, qx, qy)
        if (record && reads != null) {
          reads.window.add(dw)
          reads.windowRecall += (if (truth.isEmpty) 1.0
            else got.count(p => java.util.Arrays.binarySearch(truth, p.id) >= 0).toDouble / truth.length)
          reads.knn.add(dk)
          reads.knnRecall += math.min(1.0, nn.count(_.dist2(qx, qy) <= kth2).toDouble / k)
        }
      }
      i += 1
      if (i > warm && (i - warm) % stretch == 0) { rec.cut(); if (reads != null) reads.cut() }
    }
    rec.cut()
    if (reads != null) reads.cut()
  }
}

object UpdateStream {
  /** Drops points whose coordinates repeat (the paper assumes distinct
    * points, §3.1; the clamping generators can repeat a boundary value).
    */
  def distinct(pts: Array[Point], taken: collection.mutable.Set[(Double, Double)]): Array[Point] =
    pts.filter(p => taken.add((p.x, p.y)))

  /** `m` insert points from `gen`, distinct from `base` and from each
    * other, with ids after the base ids.
    */
  def inserts(base: Array[Point], gen: Int => Array[Point], m: Int): Array[Point] = {
    val taken = collection.mutable.HashSet.empty[(Double, Double)]
    base.foreach(p => taken.add((p.x, p.y)))
    val fresh = distinct(gen(m + m / 10 + 16), taken)
    require(fresh.length >= m, "too few distinct insert points")
    val firstId = base.iterator.map(_.id).max + 1
    Array.tabulate(m)(i => Point(firstId + i, fresh(i).x, fresh(i).y))
  }
}

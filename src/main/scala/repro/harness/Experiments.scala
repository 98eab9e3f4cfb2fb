package repro.harness

import repro.baselines._
import repro.core.{RsmiBuilder, RsmiConfig}
import repro.data.SpatialData
import repro.spatial.{Point, Rect}

/** The paper's evaluation experiments (§6), shared between the bench
  * suites (`bench/`) and the spark-submit jobs (`jobs/`). Each method
  * prints one table of rows in the shape of the corresponding paper
  * table/figure and returns the printed lines (for assertions).
  *
  * Scale: the paper runs 1–128 M points; our default is
  * n = 200 000 (overridable via BENCH_N) with the paper's B = 100,
  * N = 1 000 (`defaultCfg`, below; the paper's default is 10 000) and
  * 200 queries per setting (paper: 1 000; override via BENCH_QUERIES).
  * Ground truths are precomputed once per query set and shared across
  * the indices. EXPERIMENTS.md records paper-vs-ours.
  */
object Experiments {

  def benchN: Int = sys.env.getOrElse("BENCH_N", "200000").toInt
  def benchQueries: Int = sys.env.getOrElse("BENCH_QUERIES", "200").toInt

  /** B = 100 as in the paper; N chosen empirically from our own
    * Table 3 sweep (§3.2: N "may be determined empirically"). The
    * paper's optimum was 10 000 with PyTorch-trained MLPs; our Scala
    * MLP's prediction error plateaus at ~10% of a leaf's block range,
    * which moves the query-time/access optimum down to N ≈ 1 000
    * (2.1 block accesses vs 7.6 at N = 10 000 on 200 K Skewed). See
    * EXPERIMENTS.md.
    */
  val defaultCfg: RsmiConfig = RsmiConfig(N = 1000)

  // ------------------------------------------------------------ helpers

  private def emit(lines: Seq[String]): Seq[String] = { lines.foreach(println); lines }

  private def fmt(v: Double): String = if (v >= 100) f"$v%.0f" else f"$v%.2f"

  /** Average (time µs, block accesses) per point query over a sample.
    * Like the window and kNN helpers below, it runs every query once
    * untimed first, so an index is not timed on a cold JIT just because
    * it ran first, then counts accesses over the timed pass only.
    */
  def measurePointQueries(idx: SpatialIndexApi, qs: Array[Point]): (Double, Double) = {
    qs.foreach(q => idx.pointQuery(q.x, q.y))
    idx.resetCounters()
    val t0 = System.nanoTime()
    var i = 0
    while (i < qs.length) { idx.pointQuery(qs(i).x, qs(i).y); i += 1 }
    val dt = System.nanoTime() - t0
    (dt / 1000.0 / qs.length, idx.blockAccesses.toDouble / qs.length)
  }

  /** Average (time ms, recall, accesses) per window query against
    * precomputed (window, truth-ids) pairs.
    */
  def measureWindowQueries(idx: SpatialIndexApi,
                           qs: Array[(Rect, Set[Long])]): (Double, Double, Double) = {
    qs.foreach { case (r, _) => idx.windowQuery(r) }
    idx.resetCounters()
    var totalNs = 0L
    var recallSum = 0.0
    qs.foreach { case (r, truth) =>
      val t0 = System.nanoTime()
      val got = idx.windowQuery(r)
      totalNs += System.nanoTime() - t0
      recallSum += Harness.recall(got, truth)
    }
    (totalNs / 1e6 / qs.length, recallSum / qs.length, idx.blockAccesses.toDouble / qs.length)
  }

  /** Average (time ms, recall, block accesses) per kNN query against
    * precomputed (query, truth) pairs; recall is
    * [[Harness.KnnTruth.recall]], so a point tied with the true k-th
    * counts as correct.
    */
  def measureKnnQueries(idx: SpatialIndexApi,
                        qs: Array[(Point, Harness.KnnTruth)], k: Int): (Double, Double, Double) = {
    qs.foreach { case (q, _) => idx.knnQuery(q.x, q.y, k) }
    idx.resetCounters()
    var totalNs = 0L
    var recallSum = 0.0
    qs.foreach { case (q, truth) =>
      val t0 = System.nanoTime()
      val got = idx.knnQuery(q.x, q.y, k)
      totalNs += System.nanoTime() - t0
      recallSum += truth.recall(got, q.x, q.y)
    }
    (totalNs / 1e6 / qs.length, recallSum / qs.length, idx.blockAccesses.toDouble / qs.length)
  }

  def windowQuerySet(pts: Array[Point], nQueries: Int, areaFrac: Double,
                     aspect: Double = 1.0, seed: Long = 7): Array[(Rect, Set[Long])] =
    SpatialData.queryCenters(pts, nQueries, seed).map { q =>
      val r = Harness.window(q.x, q.y, areaFrac, aspect)
      (r, Harness.truthWindow(pts, r))
    }

  def knnQuerySet(pts: Array[Point], nQueries: Int, k: Int,
                  seed: Long = 7): Array[(Point, Harness.KnnTruth)] =
    SpatialData.queryCenters(pts, nQueries, seed).map(q => (q, Harness.truthKnn(pts, q.x, q.y, k)))

  // ------------------------------------------------------- Table 3 (N)

  /** Table 3: impact of the partition threshold N on RSMI. */
  def table3(n: Int = benchN, nQueries: Int = 2000,
             nValues: Seq[Int] = Seq(500, 1000, 2500, 5000, 10000, 20000, 40000)): Seq[String] = {
    // The paper sweeps 2 500–40 000; we extend below 2 500 because our
    // MLP's optimum sits lower (see defaultCfg docs).
    val pts = SpatialData.local(SpatialData.Skewed, n)
    val qs = SpatialData.queryCenters(pts, nQueries)
    emit(nValues.map { nn =>
      val cfg = defaultCfg.copy(N = nn)
      val (rsmi, buildNs) = Harness.timeNanos(RsmiBuilder.build(pts, cfg))
      val (us, blk) = measurePointQueries(rsmi, qs)
      f"[Table3] N=$nn%-6d build_s=${buildNs / 1e9}%-8.1f height=${rsmi.height}%-3d " +
        f"size_MB=${rsmi.sizeBytes / 1e6}%-7.2f blk=${fmt(blk)}%-7s time_us=${fmt(us)}%s"
    })
  }

  // ----------------------------------------------- Table 4 (err bounds)

  /** Table 4: max prediction error bounds (errl, erra) of ZM vs RSMI
    * per data distribution (in blocks).
    */
  def table4(n: Int = benchN): Seq[String] = {
    emit(SpatialData.all.map { d =>
      val pts = SpatialData.local(d, n)
      val zm = ZmIndex.build(pts, defaultCfg.B)
      val rsmi = RsmiBuilder.build(pts, defaultCfg)
      val (zl, za) = zm.maxErrBounds
      val (rl, ra) = rsmi.maxErrBounds
      f"[Table4] dist=${d.name}%-8s ZM=($zl%d, $za%d) RSMI=($rl%d, $ra%d)"
    })
  }

  // ------------------------------------------- Fig 6 (point query/dist)

  /** Fig 6/7 as a table: point query time, block accesses, index size,
    * and construction time per distribution and index.
    */
  def pointQueryByDist(n: Int = benchN, nQueries: Int = 2000): Seq[String] = {
    emit(SpatialData.all.flatMap { d =>
      val pts = SpatialData.local(d, n)
      val qs = SpatialData.queryCenters(pts, nQueries)
      Harness.buildAll(pts, defaultCfg).filterNot(_.index.name == "RSMIa").map { b =>
        val (us, blk) = measurePointQueries(b.index, qs)
        f"[Fig6] dist=${d.name}%-8s index=${b.index.name}%-5s time_us=${fmt(us)}%-8s " +
          f"blk=${fmt(blk)}%-8s size_MB=${b.index.sizeBytes / 1e6}%-7.2f build_s=${b.buildMillis / 1000.0}%.1f"
      }
    })
  }

  // --------------------------------------------- Fig 8 (point query/n)

  def pointQueryBySize(sizes: Seq[Int] = Seq(50000, 100000, 200000),
                       nQueries: Int = 2000): Seq[String] = {
    emit(sizes.flatMap { n =>
      val pts = SpatialData.local(SpatialData.Skewed, n)
      val qs = SpatialData.queryCenters(pts, nQueries)
      Harness.buildAll(pts, defaultCfg).filterNot(_.index.name == "RSMIa").map { b =>
        val (us, blk) = measurePointQueries(b.index, qs)
        f"[Fig8] n=$n%-7d index=${b.index.name}%-5s time_us=${fmt(us)}%-8s blk=${fmt(blk)}%-8s " +
          f"size_MB=${b.index.sizeBytes / 1e6}%-7.2f build_s=${b.buildMillis / 1000.0}%.1f"
      }
    })
  }

  // ------------------------------------------ Fig 10/12/13 (window)

  /** Fig 10: window query per distribution (default window 0.01% of
    * the space, the paper's bold setting).
    */
  def windowByDist(n: Int = benchN, nQueries: Int = benchQueries,
                   sizePct: Double = 0.01): Seq[String] = {
    emit(SpatialData.all.flatMap { d =>
      val pts = SpatialData.local(d, n)
      val qs = windowQuerySet(pts, nQueries, sizePct / 100)
      Harness.buildAll(pts, defaultCfg).map { b =>
        val (ms, rec, blk) = measureWindowQueries(b.index, qs)
        f"[Fig10] dist=${d.name}%-8s index=${b.index.name}%-5s time_ms=$ms%-9.3f " +
          f"recall=$rec%-6.3f blk=${fmt(blk)}%s"
      }
    })
  }

  /** Fig 12: window query vs window size (% of space) on Skewed. */
  def windowBySize(n: Int = benchN, nQueries: Int = benchQueries,
                   sizesPct: Seq[Double] = Seq(0.0006, 0.0025, 0.01, 0.04, 0.16)): Seq[String] = {
    val pts = SpatialData.local(SpatialData.Skewed, n)
    val built = Harness.buildAll(pts, defaultCfg)
    emit(sizesPct.flatMap { pct =>
      val qs = windowQuerySet(pts, nQueries, pct / 100)
      built.map { b =>
        val (ms, rec, _) = measureWindowQueries(b.index, qs)
        f"[Fig12] size_pct=$pct%-7s index=${b.index.name}%-5s time_ms=$ms%-9.3f recall=$rec%.3f"
      }
    })
  }

  /** Fig 13: window query vs aspect ratio on Skewed (0.01% windows). */
  def windowByAspect(n: Int = benchN, nQueries: Int = benchQueries,
                     aspects: Seq[Double] = Seq(0.25, 0.5, 1.0, 2.0, 4.0)): Seq[String] = {
    val pts = SpatialData.local(SpatialData.Skewed, n)
    val built = Harness.buildAll(pts, defaultCfg)
    emit(aspects.flatMap { a =>
      val qs = windowQuerySet(pts, nQueries, 0.0001, a)
      built.map { b =>
        val (ms, rec, _) = measureWindowQueries(b.index, qs)
        f"[Fig13] aspect=$a%-5s index=${b.index.name}%-5s time_ms=$ms%-9.3f recall=$rec%.3f"
      }
    })
  }

  // ------------------------------------------------ Fig 14/16 (kNN)

  /** Fig 14: kNN per distribution (k = 25, the paper's bold setting). */
  def knnByDist(n: Int = benchN, nQueries: Int = benchQueries, k: Int = 25): Seq[String] = {
    emit(SpatialData.all.flatMap { d =>
      val pts = SpatialData.local(d, n)
      val qs = knnQuerySet(pts, nQueries, k)
      Harness.buildAll(pts, defaultCfg).map { b =>
        val (ms, rec, blk) = measureKnnQueries(b.index, qs, k)
        f"[Fig14] dist=${d.name}%-8s index=${b.index.name}%-5s time_ms=$ms%-9.3f recall=$rec%.3f blk=${fmt(blk)}"
      }
    })
  }

  /** Fig 16: kNN vs k on Skewed. */
  def knnByK(n: Int = benchN, nQueries: Int = benchQueries,
             ks: Seq[Int] = Seq(1, 5, 25, 125, 625)): Seq[String] = {
    val pts = SpatialData.local(SpatialData.Skewed, n)
    val built = Harness.buildAll(pts, defaultCfg)
    emit(ks.flatMap { k =>
      val qs = knnQuerySet(pts, nQueries, k)
      built.map { b =>
        val (ms, rec, blk) = measureKnnQueries(b.index, qs, k)
        f"[Fig16] k=$k%-4d index=${b.index.name}%-5s time_ms=$ms%-9.3f recall=$rec%.3f blk=${fmt(blk)}"
      }
    })
  }

  // ------------------------------------------- Fig 17/18/19 (updates)

  /** Figs 17–19: insert 10%..50% of n extra points; report average
    * insertion time and the point/window/kNN query cost afterwards.
    * Includes RSMIr: RSMI rebuilt after every 10% n insertions (its
    * insert time is amortized over insertions + rebuilds).
    */
  def updates(n: Int = math.min(benchN, 100000), nQueries: Int = benchQueries,
              steps: Seq[Int] = Seq(10, 20, 30, 40, 50)): Seq[String] = {
    val pts = SpatialData.local(SpatialData.Skewed, n)
    val extraAll = SpatialData.local(SpatialData.Skewed, n / 2, seed = 4242)
      .map(p => p.copy(id = p.id + 100000000L))
    val built = Harness.buildAll(pts, defaultCfg)
    // RSMIr: a second RSMI structure rebuilt at every step.
    var rsmir = RsmiBuilder.build(pts, defaultCfg)
    var rsmirNs = 0L

    val lines = scala.collection.mutable.ArrayBuffer.empty[String]
    var prevPct = 0
    for (pct <- steps) {
      val batch = extraAll.slice(n * prevPct / 100, n * pct / 100)
      prevPct = pct
      val allPts = pts ++ extraAll.take(n * pct / 100)
      val pqs = SpatialData.queryCenters(allPts, math.min(1000, nQueries * 5))
      val wqs = windowQuerySet(allPts, nQueries, 0.0001)
      val kqs = knnQuerySet(allPts, nQueries, 25)
      for (b <- built) {
        // RSMI and RSMIa share one structure (as in the paper); the
        // batch is inserted once, through RSMI.
        val ns =
          if (b.index.name == "RSMIa") 0L
          else Harness.timeNanos(batch.foreach(b.index.insert))._2
        val (pus, pblk) = measurePointQueries(b.index, pqs)
        val (wms, wrec, _) = measureWindowQueries(b.index, wqs)
        val (kms, krec, _) = measureKnnQueries(b.index, kqs, 25)
        lines += f"[Fig17] ins_pct=$pct%-3d index=${b.index.name}%-5s ins_us=${ns / 1000.0 / math.max(1, batch.length)}%-8.2f " +
          f"pq_us=${fmt(pus)}%-7s pq_blk=${fmt(pblk)}%-7s wq_ms=$wms%-8.3f wq_rec=$wrec%-6.3f " +
          f"knn_ms=$kms%-8.3f knn_rec=$krec%.3f"
      }
      // RSMIr: insert the batch, then rebuild; amortize both.
      val (_, insNs) = Harness.timeNanos(batch.foreach(rsmir.insert))
      val (nr, rbNs) = Harness.timeNanos(rsmir.rebuilt())
      rsmir = nr
      rsmirNs += insNs + rbNs
      val (pus, pblk) = measurePointQueries(rsmir, pqs)
      lines += f"[Fig17] ins_pct=$pct%-3d index=RSMIr ins_us=${rsmirNs / 1000.0 / (n.toLong * pct / 100)}%-8.2f " +
        f"pq_us=${fmt(pus)}%-7s pq_blk=${fmt(pblk)}%-7s wq_ms=-        wq_rec=-      knn_ms=-        knn_rec=-"
    }
    emit(lines.toSeq)
  }
}

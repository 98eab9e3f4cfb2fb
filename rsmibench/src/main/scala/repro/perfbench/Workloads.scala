package repro.perfbench

import repro.core.{Rsmi, RsmiBuilder, RsmiConfig}
import repro.data.SpatialData
import repro.harness.Experiments
import repro.spatial.Point

/** Settings of one run. `small` is the smoke mode: the same phases and
  * metric names at a fraction of the size.
  */
final case class RunArgs(workload: String, seed: Long, seconds: Double, traced: Boolean,
                         small: Boolean, workDir: String)

/** Shared state of one run: its report, gates and (traced) layers. */
final class Run(val a: RunArgs) {
  val report = new Report
  val gates = new Gates
  val layers: Layers = if (a.traced) new Layers else null
  /** Per-operation counts of the traced read pass's counts sweep. */
  val counted: Layers = if (a.traced) new Layers else null
  val builds = new Builds.Rec
  val reads = new ReadRec
  val updates = new UpdateRec
  private val gcByPhase = scala.collection.mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
  val wallByPhase = scala.collection.mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)

  def ns(share: Double): Long = (a.seconds * share * 1e9).toLong
  def size(full: Int, small: Int): Int = if (a.small) small else full

  /** Runs `body` and adds its GC and wall time to `phase`. */
  def phase[T](name: String)(body: => T): T = {
    val g0 = Jvm.gcMillis; val t0 = System.nanoTime()
    try body finally {
      gcByPhase(name) += Jvm.gcMillis - g0
      wallByPhase(name) += (System.nanoTime() - t0) / 1e9
    }
  }

  var warmStretches = 0
  var rounds = 0

  /** The measured loop: `round` runs again and again until `share` of
    * `--seconds` has passed (at least `min` times). Each round records
    * one stretch of every latency it measures, so every metric's
    * stretches spread over the whole loop.
    */
  def measure(share: Double, min: Int)(round: => Unit): Unit = {
    Jvm.heapAfterGc()
    Jvm.awaitJitIdle()
    val end = System.nanoTime() + ns(share)
    while (rounds < min || System.nanoTime() < end) { round; rounds += 1 }
  }

  /** Timed builds of `pts`, two per JVM: a build now and then takes
    * twice as long as the others, and `setup_s`, the median over the
    * run's builds, should not follow it. `heap_mb` is the heap the last
    * index retains.
    */
  def timedBuilds(pts: Array[Point], cfg: RsmiConfig): Rsmi = {
    builds.time(RsmiBuilder.build(Builds.copy(pts), cfg))
    val (built, mb) = Builds.retainedMb(builds.time(RsmiBuilder.build(Builds.copy(pts), cfg)))
    report.put("heap_mb", mb, "MB")
    built
  }

  /** What the traced read pass measured beside its spans. */
  var beside: Traced = null

  /** The traced read pass (traced runs only). */
  def tracedReads(idx: Rsmi, pool: ReadPool, share: Double): Unit = phase("read") {
    beside = Reads.traced(idx, pool, ns(share), layers, counted, gates)
  }

  def shape(idx: Rsmi, key: String): Unit = report.facts(key) = Builds.shape(idx)

  /** Per-layer metrics from the traced passes. `trace.<op>_sum_err`
    * is how far the layers of an operation add up from the untraced mean
    * measured beside them; beyond 10%, or a negative layer, fails the
    * `layer_sums` gate.
    */
  def reportLayers(finalIdx: Rsmi): Unit = {
    val r = report; val L = layers; val C = counted
    def m(name: String, unit: String): Unit = r.put(name, L.mean(name), unit, L.ops(name.takeWhile(_ != '.')))
    def mc(name: String, unit: String): Unit = r.put(name, C.mean(name), unit, C.ops(name.takeWhile(_ != '.')))
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    def layerSum(op: String, parts: Seq[Double], untraced: Samples): Unit = {
      val sum = parts.sum
      val plain = untraced.mean - Reads.clockNs
      val err = math.abs(ratio(sum, plain) - 1)
      r.put(s"trace.${op}_sum_err", err, "ratio", L.ops(op))
      gates.check("layer_sums", err <= 0.10 && parts.forall(_ >= 0),
        f"$op: layers ${parts.map(v => f"$v%.0f").mkString(" + ")} ns, untraced $plain%.0f ns")
    }
    Seq("point.descent_ns", "point.predict_ns", "point.scan_ns").foreach(m(_, "ns"))
    Seq("point.levels", "point.blocks", "point.overflow_blocks", "point.points_examined").foreach(mc(_, "count"))
    mc("point.alloc_bytes", "bytes")
    val windowRange = ratio(L.sum("window.range_ns"), L.ops("window_range"))
    val windowScan = beside.whole.window.mean - Reads.clockNs - windowRange
    r.put("window.range_ns", windowRange, "ns", L.ops("window"))
    r.put("window.scan_ns", windowScan, "ns", L.ops("window"))
    Seq("window.nodes_visited", "window.blocks", "window.points_examined", "window.results").foreach(mc(_, "count"))
    r.put("window.useful_frac", ratio(C.sum("window.results"), C.sum("window.points_examined")), "ratio", C.ops("window"))
    mc("window.alloc_bytes", "bytes")
    mc("knn.expansions", "count")
    // RSMIa kNN: the scan is the whole call less the replayed range.
    val knnRange = L.mean("knn.range_ns")
    val knnScan = if (beside.whole.knn.count > 0) beside.whole.knn.mean - Reads.clockNs - knnRange else L.mean("knn.scan_ns")
    r.put("knn.range_ns", knnRange, "ns", L.ops("knn"))
    r.put("knn.scan_ns", knnScan, "ns", L.ops("knn"))
    Seq("knn.blocks", "knn.points_examined").foreach(mc(_, "count"))
    r.put("knn.useful_frac", ratio(C.sum("knn.results"), C.sum("knn.points_examined")), "ratio", C.ops("knn"))
    mc("knn.alloc_bytes", "bytes")
    layerSum("point", Seq("point.descent_ns", "point.predict_ns", "point.scan_ns").map(L.mean), beside.untraced.point)
    layerSum("window", Seq(windowRange, windowScan), beside.untraced.window)
    layerSum("knn", Seq(knnRange, knnScan), beside.untraced.knn)
    r.put("trace.overhead_pct", 100 * beside.overhead, "%", L.ops("point") + L.ops("window") + L.ops("knn"))
    val (overflow, longest, meanChain) = Shadow.chains(finalIdx)
    r.put("insert.overflow_blocks", overflow, "count")
    r.put("insert.max_chain", longest, "count")
    r.put("insert.mean_chain", meanChain, "count")
    m("insert.alloc_bytes", "bytes")
    r.put("delete.found_frac", ratio(L.sum("delete.found"), L.ops("delete").toDouble), "ratio", L.ops("delete"))
    r.put("scan.meta_read_ms", L.mean("scan.meta_read_ns") / 1e6, "ms", L.ops("scan"))
    r.put("scan.select_ms", L.mean("scan.select_ns") / 1e6, "ms", L.ops("scan"))
    Seq("scan.blocks", "scan.rows_read", "scan.rows_returned", "scan.jobs", "scan.tasks").foreach(m(_, "count"))
    m("scan.bytes_read", "bytes")
    r.put("scan.useful_frac", ratio(L.sum("scan.rows_returned"), L.sum("scan.rows_read")), "ratio", L.ops("scan"))
    for (p <- Seq("build", "read", "update", "scan")) r.put(s"jvm.gc_ms.$p", gcByPhase(p).toDouble, "ms")
    // The Spark path runs in skewed-read's traced run only.
    for ((name, unit) <- Seq("spark.build_s" -> "s", "spark.write_s" -> "s", "spark.jobs" -> "count",
                             "spark.tasks" -> "count", "spark.driver_cells" -> "count", "spark.shuffle_mb" -> "MB"))
      if (!r.names.exists(_ == name)) r.put(name, 0.0, unit)
  }
}

/** The workloads. Phase lengths are shares of `--seconds`. */
object Workloads {

  val names: Seq[String] = Seq("skewed-read", "osm-insert")

  def run(run: Run): Unit = run.a.workload match {
    case "skewed-read" => skewedRead(run)
    case "osm-insert"  => osmInsert(run)
    case w             => throw new IllegalArgumentException(s"unknown workload $w")
  }

  private val OsmLayoutSeed = 42L

  /** The points in a seeded random order, without repeated coordinates. */
  private def sample(pts: Array[repro.spatial.Point], seed: Long) = {
    val rnd = new java.util.Random(seed)
    val a = pts.clone()
    var i = a.length - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    UpdateStream.distinct(a, collection.mutable.HashSet.empty)
  }

  private def skewed(n: Int, seed: Long) =
    UpdateStream.distinct(SpatialData.local(SpatialData.Skewed, n, seed), collection.mutable.HashSet.empty)

  /** Driver builds of Skewed data at the paper's default setting (n is
    * 100 000 rather than the 200 000 of EXPERIMENTS.md: a 200 000-point
    * build takes ~12 s). The measured loop repeats a round of two
    * parts: an 8:1:1 read mix on the approximate paths, and an update
    * cycle (a tail of inserts that follow the data, with deletes) on a
    * fresh copy of the index, so the reads never meet an overflow chain.
    */
  def skewedRead(run: Run): Unit = {
    import run._
    val cfg = Experiments.defaultCfg
    val pts = skewed(size(100000, 20000), a.seed)
    val tail = UpdateStream.inserts(pts, m => SpatialData.local(SpatialData.Skewed, m, a.seed + 3), size(10000, 2000))
    val live = LiveSet.of(pts, 0)
    // An untimed smaller build warms the JIT.
    phase("build") { RsmiBuilder.build(skewed(pts.length / 5, a.seed + 1), cfg) }
    val idx = phase("build") {
      if (a.traced) Builds.traced(pts, cfg, builds, report, gates, pairs = 3) else timedBuilds(pts, cfg)
    }
    shape(idx, "index")

    val pool = ReadPool(live, size(20000, 5000), 1e-4, 25, exact = false, a.seed + 2)
    val dir = s"${a.workDir}/index"
    report.put("disk_mb", Scans.persist(idx, dir) / 1e6, "MB")
    val stream = new UpdateStream(tail, pts.length, a.seed + 5, 0, 0, 25)
    var copy: Rsmi = null
    def cycle(record: Boolean, L: Layers): Unit = phase("update") {
      copy = null
      copy = Builds.copyIndex(idx)
      stream.run(copy, LiveSet.of(pts, tail.length), if (record) 0 else tail.length, tail.length,
        updates, null, gates, L)
    }

    // Warm-up: reads until their stretch medians settle, then two
    // update cycles.
    var pos = phase("read") {
      val (p, stretches) = Reads.warmUp(idx, pool, ns(0.08), gates)
      warmStretches = stretches
      p
    }
    for (_ <- 0 until 2) cycle(record = false, null)

    if (!a.traced) {
      measure(0.85, 3) {
        phase("read") { pos = Reads.run(idx, pool, pos, 200000000L, reads, gates); reads.cut() }
        cycle(record = true, null)
      }
      shape(copy, "index_after_updates")
    } else {
      tracedReads(idx, pool, 0.3)
      cycle(record = false, layers)
      shape(copy, "index_after_updates")
      sparkLayers(run)
      reportLayers(copy)
    }
  }

  /** Clustered base index; the measured loop repeats an update cycle on
    * a fresh copy of the built base: +50% clustered inserts with
    * deletes, point queries on live points, and exact (RSMIa) windows
    * and kNN.
    */
  def osmInsert(run: Run): Unit = {
    import run._
    val cfg = Experiments.defaultCfg
    // The cluster layout of OsmLike follows its generator seed, and
    // chain lengths follow the layout. So the layout is fixed, and the
    // run seed draws the base and the inserts from one large sample of it.
    val nBase = size(50000, 5000)
    val drawn = sample(SpatialData.local(SpatialData.OsmLike, 4 * nBase, OsmLayoutSeed), a.seed)
    val base = drawn.take(nBase)
    val ins = UpdateStream.inserts(base, m => drawn.slice(nBase, nBase + m), nBase / 2)
    val stream = new UpdateStream(ins, base.length, a.seed + 2, 20, 0.0016, 25)

    // Cycle 0 warms up on its own build and is not recorded. Its
    // updated index, which has overflow chains, is persisted (disk_mb,
    // and the traced run's scans).
    val first = phase("build") { RsmiBuilder.build(Builds.copy(base), cfg) }
    val live = LiveSet.of(base, ins.length)
    phase("update") { stream.run(first, live, ins.length, ins.length, updates, null, gates, null) }
    shape(first, "index_after_updates")
    val dir = s"${a.workDir}/index"
    report.put("disk_mb", Scans.persist(first, dir) / 1e6, "MB")

    // The timed builds of the base give setup_s and heap_mb. Every later
    // cycle starts from an identical copy of the last.
    val built = phase("build") {
      if (a.traced) Builds.traced(base, cfg, builds, report, gates, pairs = 3) else timedBuilds(base, cfg)
    }
    shape(built, "index")
    var copy: Rsmi = null
    def cycle(record: Boolean, L: Layers): Unit = {
      copy = null
      copy = Builds.copyIndex(built)
      if (rounds == 0) gates.check("copy_agrees", Builds.sameLeaves(copy, built), "the copied index has other leaves")
      phase("update") {
        stream.run(copy, LiveSet.of(base, ins.length), if (record) 0 else ins.length, ins.length,
          updates, if (record) reads else null, gates, L)
      }
    }
    cycle(record = false, null)

    if (!a.traced) measure(0.9, 3) { cycle(record = true, null) }
    else {
      cycle(record = false, layers)
      // Direct scans of the persisted index, for the scan layers.
      val wins = Scans.windows(live, 512, 1e-4, a.seed + 4)
      phase("scan") { Scans.loop(dir, wins, ns(0.03), ns(0.1), 1, new Samples, gates, layers) }
      // The traced pass over exact reads of the updated index.
      tracedReads(copy, ReadPool(live, 4000, 0.0016, 25, exact = true, a.seed + 3), 0.3)
      reportLayers(copy)
    }
    report.facts("cycles") = rounds
  }

  /** Per-layer metrics of the Spark path (traced runs only): the path
    * `BuildIndexJob` takes with `RsmiConfig()` (N = 10 000) on Skewed
    * data, `SpatialData.generate` → `RsmiSpark.build` →
    * `RsmiFormat.write`, then pushed-down `spark.read.format("rsmi")`
    * window scans. It runs after every other measurement of the run, so
    * Spark never shares the JVM with a timed loop.
    */
  private def sparkLayers(run: Run): Unit = {
    import run._
    val cfg = RsmiConfig()
    val n = size(50000, 20000)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    report.facts("spark_master") = s"local[$cores]"
    val sp = new SparkPath(a.workDir, cores)
    val dir = s"${a.workDir}/spark-index"
    try {
      // An untimed build above the partition threshold warms Spark and the JIT.
      sp.buildAndWrite(2L * cfg.N, a.seed + 1, cfg, dir, new Builds.Rec, record = false)
      var idx: Rsmi = null
      for (_ <- 0 until 2) idx = sp.buildAndWrite(n, a.seed, cfg, dir, new Builds.Rec)
      shape(idx, "spark_index")
      val written = SpatialData.collectPoints(SpatialData.generate(sp.spark, SpatialData.Skewed, n, a.seed))
      val wins = Scans.windows(LiveSet.of(written, 0), 512, 1e-4, a.seed + 4)
      phase("scan") { sp.scans(dir, wins, ns(0.05), ns(0.1), new Samples, gates, layers) }
      sp.report(idx, report)
    } finally sp.stop()
  }
}

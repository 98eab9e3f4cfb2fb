package repro.perfbench

import repro.core._
import repro.spatial.{BlockStore, Point}

/** Build timing and the traced replay of a build's layers. */
object Builds {

  /** Set-up times of the builds of a run, with the JVM work they cost. */
  final class Rec {
    val seconds = scala.collection.mutable.ArrayBuffer.empty[Double]
    var allocBytes = 0L
    var gcMs = 0L
    var compileMs = 0L

    /** Times `build` and adds its JVM counters. */
    def time[T](build: => T): T = {
      val g0 = Jvm.gcMillis; val c0 = Jvm.compileMillis; val a0 = Jvm.allocatedBytes
      val t0 = System.nanoTime()
      val out = build
      seconds += (System.nanoTime() - t0) / 1e9
      allocBytes += Jvm.allocatedBytes - a0
      gcMs += Jvm.gcMillis - g0
      compileMs += Jvm.compileMillis - c0
      out
    }
    def report(r: Report): Unit = {
      r.put("setup_s", Samples.median(seconds.toSeq), "s", seconds.size)
      r.pooled("setup_s") = seconds.toSeq
      r.put("build.alloc_mb", allocBytes / 1e6 / seconds.size, "MB", seconds.size)
      r.put("build.gc_ms", gcMs.toDouble / seconds.size, "ms", seconds.size)
      r.put("jvm.compile_ms", compileMs.toDouble / seconds.size, "ms", seconds.size)
    }
  }

  /** Fresh copies of the points, so an index built from them owns its
    * points and the input array can be released.
    */
  def copy(pts: Array[Point]): Array[Point] = pts.map(p => Point(p.id, p.x, p.y))

  /** Heap retained by the index `build` returns: heap in use after full
    * GCs with the index held, minus the same before the build.
    */
  def retainedMb(build: => Rsmi): (Rsmi, Double) = {
    val before = Jvm.heapAfterGc()
    val idx = build
    val after = Jvm.heapAfterGc()
    (idx, (after - before) / 1e6)
  }

  /** Index shape, recorded with every result. */
  def shape(idx: Rsmi): Map[String, Any] = {
    val (l, a) = idx.maxErrBounds
    Map("height" -> idx.height, "models" -> idx.numModels, "max_err_l" -> l, "max_err_a" -> a,
      "blocks" -> idx.store.numBlocks, "overflow_blocks" -> (idx.store.numBlocks - idx.store.originalCount))
  }

  /** A copy of a freshly built index (no overflow blocks yet) that
    * shares only what updates never change: models, points, PMFs and
    * rectangles. Each update cycle starts from one, without a rebuild.
    */
  def copyIndex(idx: Rsmi): Rsmi = {
    val src = idx.store
    require(src.numBlocks == src.originalCount, "only a freshly built index is copied")
    val store = new BlockStore(src.capacity)
    var g = 0
    while (g < src.numBlocks) {
      val b = src.peek(g)
      val nb = store.allocate(b.ord, inserted = false)
      var i = 0
      while (i < b.size) { nb.add(b.point(i)); i += 1 }
      g += 1
    }
    store.chainOriginals()
    def node(nd: RsmiNode): RsmiNode = nd match {
      case in: InternalNode =>
        new InternalNode(in.model, in.gridDim, in.children.map(c => if (c == null) null else node(c)), in.mbr)
      case lf: LeafNode => new LeafNode(lf.model, lf.firstBlk, lf.numBlks, lf.errL, lf.errA, lf.mbr)
    }
    new Rsmi(node(idx.root), store, idx.pmfX, idx.pmfY, idx.cfg, idx.buildCardinality)
  }

  def sameLeaves(a: Rsmi, b: Rsmi): Boolean =
    leaves(a) == leaves(b) && a.numModels == b.numModels && a.store.numBlocks == b.store.numBlocks

  /** Leaves in tree order, as (first block, blocks, errL, errA). */
  private def leaves(idx: Rsmi): Seq[(Int, Int, Int, Int)] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Int, Int)]
    def walk(nd: RsmiNode): Unit = nd match {
      case in: InternalNode => in.children.foreach(c => if (c != null) walk(c))
      case lf: LeafNode     => out += ((lf.firstBlk, lf.numBlks, lf.errL, lf.errA))
    }
    walk(idx.root)
    out.toSeq
  }

  /** Traced builds (traced runs only). After an unrecorded pair,
    * untraced and traced builds of `pts` alternate, `pairs` times each
    * (in alternating order), so both see the same host. Reports the mean
    * layer spans of the traced builds, and the index shape.
    * `trace.build_sum_err`: how far internal models + leaf training +
    * packing + PMF of a traced build are from the untraced build beside
    * it (the median over pairs). Gate `layer_sums`: those layers cover
    * the traced build's wall time within 10%. Gate
    * `shadow_agrees`: the traced build made the same leaves. Returns the
    * last untraced index.
    */
  def traced(pts: Array[Point], cfg: RsmiConfig, rec: Rec, r: Report, gates: Gates, pairs: Int): Rsmi = {
    val s = new TracedBuild.Spans
    val untracedS = scala.collection.mutable.ArrayBuffer.empty[Double]
    val tracedMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    val tracedWallMs = scala.collection.mutable.ArrayBuffer.empty[Double]
    var idx: Rsmi = null
    for (b <- 0 to pairs) { // the first pair warms up and is not recorded
      val spans = if (b == 0) new TracedBuild.Spans else s
      var t: Rsmi = null
      def traced(): Unit = {
        val before = spans.internalNs + spans.leafNs + spans.packNs + spans.pmfNs
        val input = copy(pts)
        val t0 = System.nanoTime()
        t = TracedBuild.build(input, cfg, spans)
        if (b > 0) {
          tracedMs += (spans.internalNs + spans.leafNs + spans.packNs + spans.pmfNs - before) / 1e6
          tracedWallMs += (System.nanoTime() - t0) / 1e6
        }
      }
      def plain(): Unit = {
        idx = null
        idx = if (b == 0) RsmiBuilder.build(copy(pts), cfg) else rec.time(RsmiBuilder.build(copy(pts), cfg))
        if (b > 0) untracedS += rec.seconds.last
      }
      if (b % 2 == 0) { plain(); traced() } else { traced(); plain() }
      gates.check("shadow_agrees", sameLeaves(t, idx),
        "the traced build made other leaves than RsmiBuilder.build")
    }
    def ms(ns: Long) = ns / 1e6 / pairs
    r.put("build.rank_ms", ms(s.rankNs), "ms", pairs)
    r.put("build.leaf_train_ms", ms(s.leafNs), "ms", pairs)
    r.put("build.internal_ms", ms(s.internalNs), "ms", pairs)
    r.put("build.pack_ms", ms(s.packNs), "ms", pairs)
    r.put("build.pmf_ms", ms(s.pmfNs), "ms", pairs)
    // Builds drift by up to ~15% over a few builds on this host, so each
    // traced build is compared with the untraced build beside it.
    val ratio = Samples.median(tracedMs.indices.map(i => tracedMs(i) / (untracedS(i) * 1e3)))
    r.put("trace.build_sum_err", math.abs(ratio - 1), "ratio", pairs)
    // The replica of the recursion itself ran 3-27% faster than
    // `RsmiBuilder.build` in the same JVM, though it makes the same
    // calls; so the gate checks that the layers cover the traced build.
    val cover = Samples.median(tracedMs.indices.map(i => tracedMs(i) / tracedWallMs(i)))
    gates.check("layer_sums", math.abs(cover - 1) <= 0.10, f"build: layers cover $cover%.3f of the traced build")
    r.facts("build_pairs_ms") = Map("untraced" -> untracedS.map(_ * 1e3).toSeq, "traced_layers" -> tracedMs.toSeq,
      "traced_wall" -> tracedWallMs.toSeq)
    val (l, a) = idx.maxErrBounds
    val lv = leaves(idx)
    r.put("build.models", idx.numModels, "count")
    r.put("build.height", idx.height, "count")
    r.put("build.avg_depth", idx.avgDepth, "count")
    r.put("build.max_err_l", l, "blocks")
    r.put("build.max_err_a", a, "blocks")
    var weighted = 0.0; var total = 0L
    for ((first, blocks, el, ea) <- lv) {
      val n = (first until first + blocks).iterator.map(idx.store.peek(_).size.toLong).sum
      weighted += (el + ea + 1).toDouble * n; total += n
    }
    r.put("build.mean_err_window", weighted / math.max(1L, total), "blocks")
    idx
  }
}

package repro.harness

import repro.baselines._
import repro.core.{Rsmi, RsmiBuilder, RsmiConfig}
import repro.spatial.{Point, Rect}

/** Shared measurement utilities for the benches and jobs: brute-force
  * ground truths, recall, timing, and a factory that builds the
  * paper's full competitor set over one data set.
  */
object Harness {

  def timeNanos[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Recall by point identity (the paper's metric: returned points over
    * ground-truth cardinality; for kNN this equals precision, §6.2.4).
    */
  def recall(got: Seq[Point], truth: Seq[Point]): Double =
    if (truth.isEmpty) 1.0
    else got.map(_.id).toSet.intersect(truth.map(_.id).toSet).size.toDouble / truth.size

  def truthWindow(pts: Array[Point], r: Rect): Seq[Point] =
    pts.iterator.filter(r.contains).toSeq

  def truthKnn(pts: Array[Point], qx: Double, qy: Double, k: Int): Seq[Point] =
    pts.sortBy(_.dist2(qx, qy)).take(k).toSeq

  /** A window of `areaFrac` of the unit space with the given aspect
    * ratio (width/height), centred at (cx, cy) — §6.1's query shape.
    */
  def window(cx: Double, cy: Double, areaFrac: Double, aspect: Double = 1.0): Rect = {
    val h = math.sqrt(areaFrac / aspect)
    val w = aspect * h
    Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
  }

  final case class Built(index: SpatialIndexApi, buildMillis: Long)

  /** Build every §6.1 competitor (Grid, HRR, KDB, RR*, RSMI, RSMIa,
    * ZM) over `pts`. RSMI and RSMIa share one trained structure, as in
    * the paper.
    */
  def buildAll(pts: Array[Point], cfg: RsmiConfig,
               zmEpochs: Int = 150,
               include: Set[String] = Set.empty): Seq[Built] = {
    def wanted(n: String) = include.isEmpty || include.contains(n)
    val out = scala.collection.mutable.ArrayBuffer.empty[Built]
    if (wanted("Grid")) {
      val (g, t) = timeNanos(GridFile.build(pts, cfg.B))
      out += Built(g, t / 1000000)
    }
    if (wanted("HRR")) {
      val (h, t) = timeNanos(HrrTree.build(pts, cfg.B))
      out += Built(h, t / 1000000)
    }
    if (wanted("KDB")) {
      val (k, t) = timeNanos(KdbTree.build(pts, cfg.B))
      out += Built(k, t / 1000000)
    }
    if (wanted("RR*")) {
      val (r, t) = timeNanos(RStarTree.build(pts, cfg.B))
      out += Built(r, t / 1000000)
    }
    if (wanted("RSMI") || wanted("RSMIa")) {
      val (rsmi, t) = timeNanos(RsmiBuilder.build(pts, cfg))
      if (wanted("RSMI")) out += Built(new RsmiAdapter(rsmi), t / 1000000)
      if (wanted("RSMIa")) out += Built(new RsmiaAdapter(rsmi), t / 1000000)
    }
    if (wanted("ZM")) {
      val (z, t) = timeNanos(ZmIndex.build(pts, cfg.B, epochs = zmEpochs))
      out += Built(z, t / 1000000)
    }
    out.toSeq
  }
}

package repro.harness

import repro.baselines._
import repro.core.{RsmiBuilder, RsmiConfig}
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

  /** Ids of the points of `pts` inside `r`, edges included. */
  def truthWindow(pts: Array[Point], r: Rect): Set[Long] = {
    val out = Set.newBuilder[Long]
    var i = 0
    while (i < pts.length) {
      if (r.contains(pts(i))) out += pts(i).id
      i += 1
    }
    out.result()
  }

  /** Recall of a window query, the paper's metric: the share of the truth ids that
    * `got` returns; 1 for an empty truth.
    */
  def recall(got: Seq[Point], truth: Set[Long]): Double =
    if (truth.isEmpty) 1.0
    else got.count(p => truth.contains(p.id)).toDouble / truth.size

  /** The exact k nearest neighbours of one query: their ids and their
    * squared distances, nearest first. Which of several points tied at
    * the k-th distance `ids` holds is arbitrary, so answers are checked
    * by distance: clamped generators produce duplicate points, and an
    * exact kNN may keep any of them.
    */
  final case class KnnTruth(ids: Set[Long], dist2s: IndexedSeq[Double]) {
    /** The k-th (largest) squared distance; 0 when there are no points. */
    def kth2: Double = if (dist2s.isEmpty) 0.0 else dist2s.last

    /** kNN recall (for kNN it equals precision, §6.2.4), tie-tolerant:
      * a returned point counts when its id is in `ids` or its distance
      * to (qx, qy) is at most the k-th.
      */
    def recall(got: Seq[Point], qx: Double, qy: Double): Double =
      if (ids.isEmpty) 1.0
      else math.min(1.0, got.count(p => ids.contains(p.id) || p.dist2(qx, qy) <= kth2).toDouble / ids.size)
  }

  /** Brute-force kNN through a bounded max-heap, O(n log k). */
  def truthKnn(pts: Array[Point], qx: Double, qy: Double, k: Int): KnnTruth = {
    val heap = new java.util.PriorityQueue[Point](math.max(1, k),
      (a: Point, b: Point) => java.lang.Double.compare(b.dist2(qx, qy), a.dist2(qx, qy)))
    var i = 0
    while (i < pts.length) {
      val p = pts(i)
      if (heap.size < k) heap.add(p)
      else if (p.dist2(qx, qy) < heap.peek.dist2(qx, qy)) { heap.poll(); heap.add(p) }
      i += 1
    }
    val d2s = new Array[Double](heap.size)
    val ids = Set.newBuilder[Long]
    var j = d2s.length - 1
    while (j >= 0) {
      val p = heap.poll()
      d2s(j) = p.dist2(qx, qy); ids += p.id
      j -= 1
    }
    KnnTruth(ids.result(), d2s.toIndexedSeq)
  }

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
               zmEpochs: Int = ZmIndex.DefaultEpochs,
               include: Set[String] = Set.empty): Seq[Built] = {
    lazy val rsmi = timeNanos(RsmiBuilder.build(pts, cfg))
    val builds: Seq[(String, () => (SpatialIndexApi, Long))] = Seq(
      "Grid"  -> (() => timeNanos(GridFile.build(pts, cfg.B))),
      "HRR"   -> (() => timeNanos(HrrTree.build(pts, cfg.B))),
      "KDB"   -> (() => timeNanos(KdbTree.build(pts, cfg.B))),
      "RR*"   -> (() => timeNanos(RStarTree.build(pts, cfg.B))),
      "RSMI"  -> (() => rsmi),
      "RSMIa" -> (() => (new RsmiaAdapter(rsmi._1), rsmi._2)),
      "ZM"    -> (() => timeNanos(ZmIndex.build(pts, cfg.B, epochs = zmEpochs))))
    builds.collect { case (name, build) if include.isEmpty || include.contains(name) =>
      val (index, nanos) = build()
      Built(index, nanos / 1000000)
    }
  }
}

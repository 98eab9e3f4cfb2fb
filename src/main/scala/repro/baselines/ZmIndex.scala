package repro.baselines

import repro.harness.SpatialIndexApi
import repro.spatial._
import repro.core.{ExpandingKnn, Pmf}

/** Z-order model baseline (ZM) [Wang et al. 2019], as configured in
  * §6.1: a three-level recursive model index over Z-values, with 1,
  * √(n/B²) and n/B² sub-models per level.
  *
  * A point's search key is the Z-value obtained by interleaving the
  * bits of its coordinates (discretized to a 2^bits grid); the points
  * are stored sorted by Z-value, B per block, and each sub-model is an
  * MLP mapping the normalized Z-value to the normalized rank. Routing
  * follows RMI: the model at level i picks the level-i+1 model by its
  * predicted rank bucket. Leaf-model max error bounds (Table 4) limit
  * the search range; inside the range a *binary search* on the block
  * Z-ranges finds the target block ("binary search on the Z-values is
  * used to reduce the number of block accesses", §6.2.2) — this is why
  * ZM's block accesses grow with log(err) rather than err.
  *
  * Updates (§6.2.5 adapts RSMI's algorithms): a new point is placed in
  * the block its Z-value binary-searches to, overflowing into a chained
  * inserted block, so Z-order locality — and hence query correctness —
  * is preserved.
  */
final class ZmIndex private (
    val bits: Int,
    level0: Mlp,
    level1: Array[Mlp],
    private[repro] val level2: Array[Mlp],
    val errL: Array[Int],
    val errA: Array[Int],
    private[repro] val store: BlockStore,
    minZ: Array[Long],
    private[repro] val pmfX: Pmf, private[repro] val pmfY: Pmf,
    nPoints: Long) extends SpatialIndexApi {

  val name = "ZM"
  private val zMax = math.pow(2.0, 2.0 * bits) - 1
  private var cardinality: Long = nPoints
  private def numBlks: Int = store.originalCount

  @inline private def zOf(x: Double, y: Double): Long = ZCurve.zOfUnit(bits, x, y)
  @inline private def znorm(z: Long): Double = z.toDouble / zMax

  /** RMI routing: returns the leaf model index handling this Z-value. */
  private def route(z: Long): Int = {
    val zn = znorm(z)
    val r0 = level0.predict1(zn)
    val j1 = math.min(level1.length - 1, math.max(0, (r0 * level1.length).toInt))
    val r1 = level1(j1).predict1(zn)
    math.min(level2.length - 1, math.max(0, (r1 * level2.length).toInt))
  }

  /** Predicted global block for a Z-value plus that leaf's error range. */
  private def predictRange(z: Long): (Int, Int, Int) = {
    val j = route(z)
    val pred = level2(j).slot1(znorm(z), numBlks)
    (pred,
     math.max(0, pred - errL(j)),
     math.min(numBlks - 1, pred + errA(j)))
  }

  /** Binary search over the frozen per-block minimum Z-values within
    * [lo, hi]; each probe reads a block (one access). Returns the block
    * whose Z-range should contain `z`.
    */
  private def locate(z: Long, lo0: Int, hi0: Int): Int = {
    var lo = lo0
    var hi = hi0
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      store.read(mid)
      if (minZ(mid) <= z) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Original block whose group holds Z-value `z`: [[locate]] over the
    * leaf model's error range.
    */
  private def groupOf(z: Long): Int = {
    val (_, lo, hi) = predictRange(z)
    locate(z, lo, hi)
  }

  def pointQuery(x: Double, y: Double): Option[Point] = {
    val z = zOf(x, y)
    val g = groupOf(z)
    var s = store.findInGroup(g, x, y)
    // Z-value ties can straddle a block boundary.
    if (!s.found) {
      if (g > 0 && minZ(g) == z) s = store.findInGroup(g - 1, x, y)
      else if (g + 1 < numBlks && minZ(g + 1) == z) s = store.findInGroup(g + 1, x, y)
    }
    if (s.found) Some(store.peek(s.block).point(s.index)) else None
  }

  /** §4.2 for Z-curves: ql/qh are the bottom-left and top-right window
    * corners; scan the predicted block range between them.
    */
  def windowRange(r: Rect): (Int, Int) = {
    val (_, lo, _) = predictRange(zOf(r.xlo, r.ylo))
    val (_, _, hi) = predictRange(zOf(r.xhi, r.yhi))
    (lo, math.max(lo, hi))
  }

  def windowQuery(r: Rect): Seq[Point] = {
    val (begin, end) = windowRange(r)
    store.windowScan(begin, end, r)
  }

  def knnQuery(qx: Double, qy: Double, k: Int): Seq[Point] =
    ExpandingKnn.knn(store, pmfX, pmfY, cardinality, 0.01, qx, qy, k)(windowRange)

  def insert(p: Point): Unit = {
    store.appendToGroup(groupOf(zOf(p.x, p.y)), p)
    cardinality += 1
  }

  def delete(x: Double, y: Double): Boolean = {
    val s = store.findInGroup(groupOf(zOf(x, y)), x, y)
    if (s.found) { store.peek(s.block).removeAt(s.index); cardinality -= 1 }
    s.found
  }

  def blockAccesses: Long = store.accesses
  def resetCounters(): Unit = store.resetAccesses()

  def sizeBytes: Long = {
    val models = (level0 +: (level1 ++ level2)).map(m => 8L * m.paramCount).sum
    models + store.sizeBytes + 8L * minZ.length
  }

  /** Max leaf error bounds — the (errl, erra) row of Table 4. */
  def maxErrBounds: (Int, Int) =
    (if (errL.isEmpty) 0 else errL.max, if (errA.isEmpty) 0 else errA.max)
}

object ZmIndex {

  /** Build the three-level ZM over `pts`.
    *
    * @param bits    Z-curve resolution per dimension (grid of 2^bits ×
    *                2^bits cells — the fixed-resolution grid whose
    *                uneven curve-value gaps RSMI's rank space avoids)
    * @param epochs  SGD epochs per sub-model
    */
  def build(pts: Array[Point], B: Int = 100, bits: Int = 16,
            epochs: Int = 150, lr: Double = 0.01, seed: Long = 23,
            maxTrainSample: Int = 20000): ZmIndex = {
    require(pts.nonEmpty)
    val n = pts.length
    val zMax = math.pow(2.0, 2.0 * bits) - 1
    val z = pts.map(p => ZCurve.zOfUnit(bits, p.x, p.y))
    val byZ = Array.tabulate(n)(identity).sortWith { (a, b) =>
      if (z(a) != z(b)) z(a) < z(b) else pts(a).id < pts(b).id
    }
    val ordered = byZ.map(pts(_))
    val zs = byZ.map(z(_))

    val numBlks = (n + B - 1) / B
    val m2 = math.max(1, n / (B * B))
    val m1 = math.max(1, math.sqrt(n.toDouble / (B.toDouble * B)).toInt)

    def trainOn(idx: Array[Int], hidden: Int, s: Long): Mlp = {
      val mlp = new Mlp(1, hidden, s)
      val step = math.max(1, idx.length / maxTrainSample)
      val m = (idx.length + step - 1) / step
      val xs = new Array[Double](m)
      val ys = new Array[Double](m)
      var i = 0
      var j = 0
      while (i < idx.length) {
        xs(j) = zs(idx(i)).toDouble / zMax
        ys(j) = if (n <= 1) 0.0 else idx(i).toDouble / (n - 1)
        j += 1
        i += step
      }
      mlp.fit(xs, ys, epochs, lr)
      mlp
    }

    // RMI training, level by level (§2): each level's models train on
    // the subset the previous level routes to them.
    val allIdx = Array.tabulate(n)(identity) // index into `ordered`
    val level0 = trainOn(allIdx, Mlp.hiddenFor(1, math.min(100, m1)), seed)
    val assign1 = allIdx.groupBy { i =>
      math.min(m1 - 1, math.max(0, (level0.predict1(zs(i).toDouble / zMax) * m1).toInt))
    }
    val level1 = Array.tabulate(m1) { j =>
      trainOn(assign1.getOrElse(j, Array.empty[Int]),
              Mlp.hiddenFor(1, math.min(100, m2)), seed + 1 + j)
    }
    val assign2 = allIdx.groupBy { i =>
      val zn = zs(i).toDouble / zMax
      val j1 = math.min(m1 - 1, math.max(0, (level0.predict1(zn) * m1).toInt))
      math.min(m2 - 1, math.max(0, (level1(j1).predict1(zn) * m2).toInt))
    }
    val level2 = Array.tabulate(m2) { j =>
      trainOn(assign2.getOrElse(j, Array.empty[Int]),
              Mlp.hiddenFor(1, math.min(100, numBlks)), seed + 1000 + j)
    }

    // Error bounds per leaf model (Eq. 4/5, Table 4).
    val errL = new Array[Int](m2)
    val errA = new Array[Int](m2)
    // Scan range is [pred − errL, pred + errA]: errL covers
    // over-predictions, errA under-predictions (cf. RsmiBuilder).
    for ((j, idx) <- assign2; i <- idx) {
      val actual = i / B
      val pred = level2(j).slot1(zs(i).toDouble / zMax, numBlks)
      if (pred > actual) errL(j) = math.max(errL(j), pred - actual)
      else errA(j) = math.max(errA(j), actual - pred)
    }

    // Pack blocks in Z order; freeze per-block minimum Z-values.
    val store = new BlockStore(B)
    store.packOriginals(ordered)
    store.chainOriginals()
    val minZ = Array.tabulate(store.originalCount)(b => zs(b * B))

    val (pmfX, pmfY) = Pmf.buildXY(pts)
    new ZmIndex(bits, level0, level1, level2, errL, errA, store, minZ, pmfX, pmfY, n.toLong)
  }
}

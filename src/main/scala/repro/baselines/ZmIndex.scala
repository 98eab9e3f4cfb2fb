package repro.baselines

import repro.spatial._
import repro.core.{LearnedIndex, Pmf}

/** Z-order model baseline (ZM) [Wang et al. 2019], as configured in
  * §6.1: a three-level recursive model index over Z-values, with 1,
  * √(n/B²) and n/B² sub-models per level.
  *
  * A point's search key is the Z-value obtained by interleaving the
  * bits of its coordinates (discretized to a 2^16 × 2^16 grid); the points
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
  * is preserved. Point queries, windows, kNN and updates are RSMI's
  * own, from [[LearnedIndex]]; a point query and a delete both search
  * with `find`.
  */
final class ZmIndex private (
    level0: Mlp,
    level1: Array[Mlp],
    private[repro] val level2: Array[Mlp],
    val errL: Array[Int],
    val errA: Array[Int],
    store: BlockStore,
    minZ: Array[Long],
    pmfX: Pmf, pmfY: Pmf,
    nPoints: Long) extends LearnedIndex(store, pmfX, pmfY, nPoints) {

  import ZmIndex.{Bits, ZMax}

  def name: String = "ZM"
  private def numBlks: Int = store.originalCount

  @inline private def zOf(x: Double, y: Double): Long = ZCurve.zOfUnit(Bits, x, y)
  @inline private def znorm(z: Long): Double = z.toDouble / ZMax

  /** RMI routing: returns the leaf model index handling this Z-value. */
  private def route(z: Long): Int = {
    val zn = znorm(z)
    val r0 = level0.predict1(zn)
    val j1 = math.min(level1.length - 1, math.max(0, (r0 * level1.length).toInt))
    val r1 = level1(j1).predict1(zn)
    math.min(level2.length - 1, math.max(0, (r1 * level2.length).toInt))
  }

  /** The leaf model's error range of original blocks for Z-value `z`. */
  private def errRange(z: Long): (Int, Int) = {
    val j = route(z)
    val pred = level2(j).slot1(znorm(z), numBlks)
    (math.max(0, pred - errL(j)), math.min(numBlks - 1, pred + errA(j)))
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

  /** Searches for (x, y) every group whose Z-range [minZ(b), minZ(b + 1)]
    * holds its Z-value, inside the leaf model's error range: the located
    * group first, then down the run of groups tied at that Z-value. A
    * run of equal Z-values can span any number of blocks, and the error
    * range covers every block of the run.
    */
  protected def find(x: Double, y: Double): Slot = {
    val z = zOf(x, y)
    val (lo, hi) = errRange(z)
    var g = locate(z, lo, hi)
    var s = store.findInGroup(g, x, y)
    while (!s.found && g > lo && minZ(g) == z) {
      g -= 1
      s = store.findInGroup(g, x, y)
    }
    s
  }

  /** §4.2 for Z-curves: ql/qh are the bottom-left and top-right window
    * corners; scan the predicted block range between them.
    */
  def windowRange(r: Rect): (Int, Int) = {
    val lo = errRange(zOf(r.xlo, r.ylo))._1
    val hi = errRange(zOf(r.xhi, r.yhi))._2
    (lo, math.max(lo, hi))
  }

  /** The group `p`'s Z-value locates to. */
  protected def insertGroup(p: Point): Int = {
    val z = zOf(p.x, p.y)
    val (lo, hi) = errRange(z)
    locate(z, lo, hi)
  }

  def sizeBytes: Long = {
    val models = (level0 +: (level1 ++ level2)).map(m => 8L * m.paramCount).sum
    models + store.sizeBytes + 8L * minZ.length
  }

  /** Max leaf error bounds — the (errl, erra) row of Table 4. */
  def maxErrBounds: (Int, Int) =
    (if (errL.isEmpty) 0 else errL.max, if (errA.isEmpty) 0 else errA.max)
}

object ZmIndex {

  /** Z-curve resolution per dimension: a 2^16 × 2^16 grid, the fixed
    * grid whose uneven curve-value gaps RSMI's rank space avoids.
    */
  private[repro] val Bits = 16
  private val ZMax = math.pow(2.0, 2.0 * Bits) - 1
  private val Lr = 0.01              // SGD learning rate (paper: 0.01)
  private val Seed = 23L             // the root model's
  private val MaxTrainSample = 20000 // a model trains on every max(1, m / 20 000)-th of its m points
  val DefaultEpochs = 150            // SGD epochs per sub-model

  /** Build the three-level ZM over `pts`. */
  def build(pts: Array[Point], B: Int = 100, epochs: Int = DefaultEpochs): ZmIndex = {
    require(pts.nonEmpty)
    val n = pts.length
    val z = pts.map(p => ZCurve.zOfUnit(Bits, p.x, p.y))
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
      val step = math.max(1, idx.length / MaxTrainSample)
      val m = (idx.length + step - 1) / step
      val xs = new Array[Double](m)
      val ys = new Array[Double](m)
      var i = 0
      var j = 0
      while (i < idx.length) {
        xs(j) = zs(idx(i)).toDouble / ZMax
        ys(j) = if (n <= 1) 0.0 else idx(i).toDouble / (n - 1)
        j += 1
        i += step
      }
      mlp.fit(xs, ys, epochs, Lr)
      mlp
    }

    // RMI training, level by level (§2): each level's models train on
    // the subset the previous level routes to them.
    val allIdx = Array.tabulate(n)(identity) // index into `ordered`
    val level0 = trainOn(allIdx, Mlp.hiddenFor(1, math.min(100, m1)), Seed)
    val assign1 = allIdx.groupBy { i =>
      math.min(m1 - 1, math.max(0, (level0.predict1(zs(i).toDouble / ZMax) * m1).toInt))
    }
    val level1 = Array.tabulate(m1) { j =>
      trainOn(assign1.getOrElse(j, Array.empty[Int]),
              Mlp.hiddenFor(1, math.min(100, m2)), Seed + 1 + j)
    }
    val assign2 = allIdx.groupBy { i =>
      val zn = zs(i).toDouble / ZMax
      val j1 = math.min(m1 - 1, math.max(0, (level0.predict1(zn) * m1).toInt))
      math.min(m2 - 1, math.max(0, (level1(j1).predict1(zn) * m2).toInt))
    }
    val level2 = Array.tabulate(m2) { j =>
      trainOn(assign2.getOrElse(j, Array.empty[Int]),
              Mlp.hiddenFor(1, math.min(100, numBlks)), Seed + 1000 + j)
    }

    // Error bounds per leaf model (Eq. 4/5, Table 4).
    val errL = new Array[Int](m2)
    val errA = new Array[Int](m2)
    // Scan range is [pred − errL, pred + errA]: errL covers
    // over-predictions, errA under-predictions (cf. RsmiBuilder).
    for ((j, idx) <- assign2; i <- idx) {
      val actual = i / B
      val pred = level2(j).slot1(zs(i).toDouble / ZMax, numBlks)
      if (pred > actual) errL(j) = math.max(errL(j), pred - actual)
      else errA(j) = math.max(errA(j), actual - pred)
    }

    // Pack blocks in Z order; freeze per-block minimum Z-values.
    val store = new BlockStore(B)
    store.packOriginals(ordered)
    store.chainOriginals()
    val minZ = Array.tabulate(store.originalCount)(b => zs(b * B))

    val (pmfX, pmfY) = Pmf.buildXY(pts)
    new ZmIndex(level0, level1, level2, errL, errA, store, minZ, pmfX, pmfY, n.toLong)
  }
}

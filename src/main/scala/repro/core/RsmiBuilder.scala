package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, ForkJoinPool, ForkJoinTask, ForkJoinWorkerThread, RecursiveTask}
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable
import repro.spatial._

/** Driver-side recursive construction of the RSMI (§3).
  *
  * [[RsmiSpark]] reuses the pieces here: it fits the root with
  * [[partition]], runs [[plan]] for each predicted cell on the
  * executors, and numbers the blocks with [[pack]] on the driver.
  */
object RsmiBuilder {

  /** A trained leaf before global block numbering: the §3.1 procedure
    * minus the store. `orderedPts` is the partition in curve-value
    * order, ready to be packed B-at-a-time.
    */
  final case class LeafResult(
      model: Regressor,
      orderedPts: Array[Point],
      errL: Int,
      errA: Int,
      mbr: Rect) extends Serializable

  /** §3.1: rank-space map → Hilbert order → pack → train → error
    * bounds. Deterministic in (pts, cfg, seed).
    */
  def trainLeaf(pts: Array[Point], cfg: RsmiConfig, seed: Long): LeafResult = {
    val n = pts.length
    require(n > 0, "empty leaf partition")
    val ordered = RankSpace.hilbertOrder(pts)

    val numBlks = (n + cfg.B - 1) / cfg.B
    val scale = math.max(1, numBlks - 1)
    val mbr = Rect.mbrOf(ordered)
    val norm = Norm(mbr)

    val hidden = Mlp.hiddenFor(2, math.min(100, numBlks))
    val mlp = new Mlp(2, hidden, seed)
    val xs = new Array[Double](2 * n)
    val ys = new Array[Double](n)
    var i = 0
    while (i < n) {
      val p = ordered(i)
      xs(2 * i) = norm.nx(p.x)
      xs(2 * i + 1) = norm.ny(p.y)
      ys(i) = if (numBlks <= 1) 0.0 else (i / cfg.B).toDouble / scale
      i += 1
    }
    mlp.fit(xs, ys, cfg.leafEpochs, cfg.lr)

    val model = new MlpRegressor(mlp, norm)
    // Eq. 4/5 error bounds in block units, on the *rounded* prediction
    // the query path uses. The scan range is [pred − errL, pred + errA]
    // (Alg 1 line 5): errL covers over-predictions (true block below
    // the prediction), errA covers under-predictions (true block above).
    var errL = 0
    var errA = 0
    i = 0
    while (i < n) {
      val p = ordered(i)
      val actual = i / cfg.B
      val pred = model.slotOf(p.x, p.y, numBlks)
      if (pred > actual) errL = math.max(errL, pred - actual)
      else errA = math.max(errA, actual - pred)
      i += 1
    }
    LeafResult(model, ordered, errL, errA, mbr)
  }

  /** Append a trained leaf's blocks (B points each, the tail block the
    * rest) to the store and wrap it as a node.
    */
  def materializeLeaf(lr: LeafResult, store: BlockStore, cfg: RsmiConfig): LeafNode = {
    require(store.capacity == cfg.B, s"store capacity ${store.capacity} differs from B = ${cfg.B}")
    val firstBlk = store.numBlocks
    store.packOriginals(lr.orderedPts)
    val numBlks = store.numBlocks - firstBlk
    new LeafNode(lr.model, firstBlk, numBlks, lr.errL, lr.errA, lr.mbr)
  }

  /** §3.2 non-regular grid: equal-count columns by x, equal-count cells
    * by y within each column. Returns the per-point cell curve value,
    * plus the cut arrays that drive the [[GridRegressor]] fallback.
    */
  private[core] final case class GridAssign(
      cellOf: Array[Int],
      xCuts: Array[Double],
      yCuts: Array[Array[Double]],
      order: Int,
      s: Int)

  private[core] def gridAssign(pts: Array[Point], s: Int): GridAssign = {
    val n = pts.length
    val order = math.max(1, Integer.numberOfTrailingZeros(s))
    val cellOf = new Array[Int](n)
    val byX = RankSpace.sortByX(pts, Array.tabulate(n)(identity))
    // Column c holds the i of byX with ⌊i·s/n⌋ = c: the slice from ⌈c·n/s⌉.
    def colStart(c: Int): Int = ((c.toLong * n + s - 1) / s).toInt
    val xCuts = new Array[Double](s - 1)
    val yCuts = Array.ofDim[Array[Double]](s)
    var c = 0
    while (c < s) {
      val start = colStart(c)
      val end = colStart(c + 1)
      if (c > 0 && start < end) xCuts(c - 1) = pts(byX(start)).x
      val byY = RankSpace.sortByY(pts, byX.slice(start, end))
      val m = byY.length
      val cuts = new Array[Double](s - 1)
      var j = 0
      while (j < m) {
        val r = ((j.toLong * s) / math.max(1, m)).toInt
        cellOf(byY(j)) = Hilbert.xy2d(order, c.toLong, r.toLong).toInt
        if (j > 0) {
          val rPrev = (((j - 1).toLong * s) / math.max(1, m)).toInt
          if (r != rPrev) cuts(r - 1) = pts(byY(j)).y
        }
        j += 1
      }
      // Fill unused cut slots monotonically (empty row groups).
      var r = 1
      while (r < s) {
        if (cuts(r - 1) == 0.0 && r - 2 >= 0) cuts(r - 1) = math.max(cuts(r - 1), cuts(r - 2))
        r += 1
      }
      yCuts(c) = cuts
      c += 1
    }
    GridAssign(cellOf, xCuts, yCuts, order, s)
  }

  /** Grid side length: 2^⌊log4 (N/B)⌋, at least 2 (§3.2). */
  def gridDim(cfg: RsmiConfig): Int = {
    val ratio = cfg.N / cfg.B
    val log4 = (math.log(ratio.toDouble) / math.log(4.0)).toInt
    math.max(2, 1 << log4)
  }

  /** Train the internal partitioning model and group the points by its
    * own predictions (the learned grouping of §3.2). Falls back to the
    * deterministic [[GridRegressor]] if the MLP cannot separate the
    * partition (see DESIGN.md).
    */
  private[core] def partition(pts: Array[Point], cfg: RsmiConfig, seed: Long)
      : (Regressor, Int, Array[Array[Point]], Rect) = {
    val n = pts.length
    val s = gridDim(cfg)
    val cells = s * s
    val ga = gridAssign(pts, s)
    val mbr = Rect.mbrOf(pts)
    val norm = Norm(mbr)

    val hidden = Mlp.hiddenFor(2, math.min(100, cells))
    val mlp = new Mlp(2, hidden, seed)
    val step = math.max(1, n / cfg.maxTrainSample)
    val m = (n + step - 1) / step
    val xs = new Array[Double](2 * m)
    val ys = new Array[Double](m)
    var i = 0
    var j = 0
    while (i < n) {
      val p = pts(i)
      xs(2 * j) = norm.nx(p.x)
      xs(2 * j + 1) = norm.ny(p.y)
      ys(j) = ga.cellOf(i).toDouble / (cells - 1)
      j += 1
      i += step
    }
    mlp.fit(xs, ys, cfg.internalEpochs, cfg.lr)

    def group(model: Regressor): Array[Array[Point]] = {
      val bufs = Array.fill(cells)(null: mutable.ArrayBuffer[Point])
      var i = 0
      while (i < n) {
        val p = pts(i)
        val c = model.slotOf(p.x, p.y, cells)
        if (bufs(c) == null) bufs(c) = mutable.ArrayBuffer.empty[Point]
        bufs(c) += p
        i += 1
      }
      bufs.map(b => if (b == null) null else b.toArray)
    }

    val mlpModel = new MlpRegressor(mlp, norm)
    val groups = group(mlpModel)
    val maxGroup = groups.iterator.filter(_ != null).map(_.length).max
    if (maxGroup < n || n <= cfg.N) (mlpModel, s, groups, mbr)
    else {
      // Degenerate model: no progress possible. Use the analytic grid.
      val gridModel = new GridRegressor(ga.xCuts, ga.yCuts, ga.order, cells)
      (gridModel, s, group(gridModel), mbr)
    }
  }

  private val MaxDepth = 24

  private def isLeaf(pts: Array[Point], cfg: RsmiConfig, depth: Int): Boolean =
    pts.length <= cfg.N || depth >= MaxDepth

  /** A sub-tree whose models are trained but whose blocks are not yet
    * numbered: the plan pass builds these in parallel, the pack pass
    * turns them into nodes on one thread.
    */
  private[core] sealed trait Planned
  private[core] final case class PlannedLeaf(lr: LeafResult) extends Planned
  private[core] final case class PlannedInternal(
      model: Regressor, dim: Int, children: Array[Planned], mbr: Rect) extends Planned

  /** Plans one sub-tree and forks a task per non-empty child group. The
    * first failure is kept in `failure` and rethrown unchanged by
    * [[planInPool]] (a task's own exception would reach the caller as a
    * copy); later tasks then stop early.
    */
  private final class PlanTask(pts: Array[Point], cfg: RsmiConfig, seed: Long, depth: Int,
                               failure: AtomicReference[Throwable]) extends RecursiveTask[Planned] {
    def compute(): Planned =
      if (failure.get != null) null
      else try {
        if (isLeaf(pts, cfg, depth)) PlannedLeaf(trainLeaf(pts, cfg, seed))
        else {
          val (model, s, groups, mbr) = partition(pts, cfg, seed)
          val tasks = Array.tabulate(groups.length) { c =>
            if (groups(c) != null && groups(c).nonEmpty)
              new PlanTask(groups(c), cfg, seed * 31 + c + 1, depth + 1, failure)
            else null
          }
          ForkJoinTask.invokeAll(tasks.filter(_ != null): _*)
          PlannedInternal(model, s, tasks.map(t => if (t == null) null else t.join()), mbr)
        }
      } catch { case t: Throwable => failure.compareAndSet(null, t); null }
  }

  /** Runs the plan pass on a pool of its own, sized to the machine. The
    * pool is shut down and its threads joined before this returns, so
    * no build thread outlives the build.
    */
  private def planInPool(pts: Array[Point], cfg: RsmiConfig, seed: Long, depth: Int): Planned = {
    val threads = new ConcurrentLinkedQueue[Thread]
    val pool = new ForkJoinPool(Runtime.getRuntime.availableProcessors, { (p: ForkJoinPool) =>
      val t = new ForkJoinWorkerThread(p) {}
      t.setName("rsmi-build-" + t.getName)
      threads.add(t)
      t
    }, null, false)
    val failure = new AtomicReference[Throwable]
    try {
      val planned = pool.invoke(new PlanTask(pts, cfg, seed, depth, failure))
      if (failure.get != null) throw failure.get
      planned
    } finally {
      pool.shutdownNow()
      threads.forEach(_.join())
    }
  }

  /** Numbers blocks depth-first in child-slot order, so the global block
    * order follows the recursive curve order (§3.2) whatever order the
    * plan pass trained the sub-trees in.
    */
  private[core] def pack(p: Planned, store: BlockStore, cfg: RsmiConfig): RsmiNode = p match {
    case PlannedLeaf(lr) => materializeLeaf(lr, store, cfg)
    case PlannedInternal(model, dim, children, mbr) =>
      new InternalNode(model, dim, children.map(c => if (c == null) null else pack(c, store, cfg)), mbr)
  }

  /** Trains the sub-tree over `pts` at `depth` without numbering its
    * blocks: sub-trees are trained in parallel, and a single leaf trains
    * on the calling thread and starts no pool. Deterministic in
    * (pts, cfg, seed, depth).
    */
  private[core] def plan(pts: Array[Point], cfg: RsmiConfig, seed: Long, depth: Int): Planned =
    if (isLeaf(pts, cfg, depth)) PlannedLeaf(trainLeaf(pts, cfg, seed))
    else planInPool(pts, cfg, seed, depth)

  /** Recursive node construction: the sub-tree is planned, then packed
    * on the calling thread, so the index (block ids, leaf ranges, error
    * bounds) does not depend on the thread count.
    */
  def buildNode(pts: Array[Point], cfg: RsmiConfig, store: BlockStore,
                seed: Long, depth: Int): RsmiNode =
    pack(plan(pts, cfg, seed, depth), store, cfg)

  /** Build an RSMI over `points` (driver-side reference builder). */
  def build(points: Array[Point], cfg: RsmiConfig = RsmiConfig()): Rsmi = {
    require(points.nonEmpty, "cannot index an empty point set")
    val store = new BlockStore(cfg.B)
    val root = buildNode(points, cfg, store, cfg.seed, depth = 1)
    store.chainOriginals()
    val (pmfX, pmfY) = Pmf.buildXY(points, cfg.gamma)
    new Rsmi(root, store, pmfX, pmfY, cfg, points.length.toLong)
  }
}

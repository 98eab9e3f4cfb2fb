package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.spatial._

/** Build parameters of the RSMI (defaults follow §6.1).
  *
  * @param B              block capacity (paper: 100)
  * @param N              partition threshold: a leaf model handles at
  *                       most N points (paper default: 10,000)
  * @param leafEpochs     SGD epochs for leaf models (paper: 500; lower
  *                       default keeps CI-scale builds tractable,
  *                       DESIGN.md §5)
  * @param internalEpochs SGD epochs for internal (partitioning) models
  */
final case class RsmiConfig(B: Int = 100, N: Int = 10000, leafEpochs: Int = 150, internalEpochs: Int = 60) {
  require(N >= 2 * B, s"partition threshold N=$N must be >= 2*B=${2 * B}")
  def lr: Double = 0.01                  // SGD learning rate (paper: 0.01)
  def seed: Long = 17                    // the root model's; a child's derives from its parent's and its slot
  def gamma: Int = 100                   // pieces of the kNN CDF approximation (paper: 100)
  def delta: Double = LearnedIndex.Delta // Δ of Eq. 6 (paper: 0.01)
  /** An internal model trains on every max(1, n / maxTrainSample)-th of
    * its partition's n points (integer division): a stride, not a cap,
    * so all n train for n in [20 000, 40 000), and up to 39 999 in all
    * (ROADMAP item 4). [[RsmiSpark.build]] fits the root on a sample of
    * at most 20 000 points.
    */
  def maxTrainSample: Int = 20000
}

/** A sub-model's input normalizer: affine map of the partition's MBR
  * onto the unit square (§6.1 normalizes coordinates to unit range).
  */
final case class Norm(rect: Rect) extends Serializable {
  val sx: Double = { val w = rect.xhi - rect.xlo; if (w > 0) 1.0 / w else 0.0 }
  val sy: Double = { val h = rect.yhi - rect.ylo; if (h > 0) 1.0 / h else 0.0 }
  @inline def nx(x: Double): Double = (x - rect.xlo) * sx
  @inline def ny(y: Double): Double = (y - rect.ylo) * sy
}

/** A trained sub-model: coordinates → normalized target in [0, 1]. */
sealed trait Regressor extends Serializable {
  def predict(x: Double, y: Double): Double
  def paramCount: Int

  /** `Mlp.slot(predict(x, y), slots)`: every routing, grouping, Eq. 4/5
    * bound and block prediction of RSMI goes through here.
    */
  def slotOf(x: Double, y: Double, slots: Int): Int = Mlp.slot(predict(x, y), slots)
}

/** The paper's MLP sub-model; it normalizes inputs by its own copy of a [[Norm]]'s doubles. */
final class MlpRegressor(val mlp: Mlp, xlo: Double, ylo: Double, sx: Double, sy: Double)
    extends Regressor {
  def this(mlp: Mlp, norm: Norm) = this(mlp, norm.rect.xlo, norm.rect.ylo, norm.sx, norm.sy)
  def predict(x: Double, y: Double): Double = mlp.predict2((x - xlo) * sx, (y - ylo) * sy)
  override def slotOf(x: Double, y: Double, slots: Int): Int =
    mlp.slot2((x - xlo) * sx, (y - ylo) * sy, slots)
  def paramCount: Int = mlp.paramCount
}

/** Deterministic fallback partitioner used only if an MLP degenerates
  * (all points predicted into one cell, so recursion can't progress):
  * locates the non-regular grid cell of §3.2 analytically from the
  * stored column/cell boundaries and returns its normalized curve
  * value. Still a pure function of the coordinates, so it remains a
  * valid partitioning-equals-indexing function.
  */
final class GridRegressor(
    xCuts: Array[Double],                // s-1 ascending column boundaries
    yCuts: Array[Array[Double]],         // per column: s-1 ascending cell boundaries
    order: Int,                          // Hilbert order log2(s)
    cells: Int) extends Regressor {
  def predict(x: Double, y: Double): Double = {
    var c = 0
    while (c < xCuts.length && x >= xCuts(c)) c += 1
    val yc = yCuts(c)
    var r = 0
    while (r < yc.length && y >= yc(r)) r += 1
    val cv = Hilbert.xy2d(order, c.toLong, r.toLong)
    if (cells <= 1) 0.0 else cv.toDouble / (cells - 1)
  }
  def paramCount: Int = xCuts.length + yCuts.map(_.length).sum
}

sealed trait RsmiNode extends Serializable {
  var mbr: Rect
  def model: Regressor
}

/** Internal node: the learned partitioning function M_{i,j} over an
  * s × s non-regular grid; `children(cv)` holds the sub-model for
  * predicted cell curve value cv (null when no point predicted there).
  */
final class InternalNode(
    val model: Regressor,
    val gridDim: Int,
    val children: Array[RsmiNode],
    var mbr: Rect) extends RsmiNode {
  val cells: Int = gridDim * gridDim

  /** Predicted child slot for a coordinate, clamped to [0, cells). */
  def predictCell(x: Double, y: Double): Int = model.slotOf(x, y, cells)

  /** Nearest non-null child slot to the predicted one (curve-order
    * distance). Build guarantees at least one non-null child.
    */
  def routeCell(x: Double, y: Double): Int = {
    val c = predictCell(x, y)
    if (children(c) != null) return c
    var d = 1
    while (d < cells) {
      if (c - d >= 0 && children(c - d) != null) return c - d
      if (c + d < cells && children(c + d) != null) return c + d
      d += 1
    }
    throw new IllegalStateException("internal node with no children")
  }
}

/** Leaf model: predicts the block holding a point among this
  * partition's `numBlks` consecutively packed original blocks
  * [firstBlk, firstBlk + numBlks).
  */
final class LeafNode(
    val model: Regressor,
    val firstBlk: Int,
    val numBlks: Int,
    val errL: Int,
    val errA: Int,
    var mbr: Rect) extends RsmiNode {
  def lastBlk: Int = firstBlk + numBlks - 1

  /** Predicted local block offset, clamped to the leaf's range. */
  def predictLocal(x: Double, y: Double): Int =
    if (numBlks <= 1) 0 else model.slotOf(x, y, numBlks)
}

/** The Recursive Spatial Model Index (the paper's contribution).
  *
  * Construction: [[RsmiBuilder.build]] (driver-side) or
  * [[RsmiSpark.build]] (root fit on the driver, sub-trees planned on
  * Spark executors). Queries: §4's algorithms — `pointQuery`,
  * `windowQuery` (approximate, no false positives), `knnQuery`
  * (approximate), and the MBR-based exact variants `windowQueryExact` /
  * `knnQueryExact` (RSMIa). Updates: §5's `insert` / `delete`, plus
  * `rebuilt()` for the RSMIr periodic rebuild. Point queries, windows,
  * kNN, updates and the access counter come from [[LearnedIndex]],
  * which the ZM baseline shares; RSMI supplies their predictions.
  */
final class Rsmi(
    val root: RsmiNode,
    store: BlockStore,
    pmfX: Pmf,
    pmfY: Pmf,
    val cfg: RsmiConfig,
    val buildCardinality: Long) extends LearnedIndex(store, pmfX, pmfY, buildCardinality) {

  def name: String = "RSMI"

  // ----------------------------------------------------------------- stats

  def height: Int = stats.height
  def numModels: Int = stats.models

  /** Point-weighted average number of sub-models on a root→block path. */
  def avgDepth: Double = stats.avgDepth

  /** Index size estimate: model parameters + node bookkeeping + blocks. */
  def sizeBytes: Long = stats.modelBytes + store.sizeBytes

  def maxErrBounds: (Int, Int) = { val st = stats; (st.errL, st.errA) }

  /** One walk over the sub-models, leaves in tree order. */
  private def stats: Rsmi.Stats = {
    var height = 0; var models = 0; var bytes = 0L
    var sumDepth = 0.0; var sumPts = 0L
    var errL = 0; var errA = 0
    def walk(nd: RsmiNode, d: Int): Unit = {
      height = math.max(height, d)
      models += 1
      nd match {
        case lf: LeafNode =>
          bytes += 8L * lf.model.paramCount + 64L
          var g = lf.firstBlk
          var c = 0L
          while (g <= lf.lastBlk) { c += store.peek(g).size; g += 1 }
          sumDepth += d.toDouble * c
          sumPts   += c
          errL = math.max(errL, lf.errL); errA = math.max(errA, lf.errA)
        case in: InternalNode =>
          bytes += 8L * in.model.paramCount + 8L * in.cells + 64L
          in.children.foreach(ch => if (ch != null) walk(ch, d + 1))
      }
    }
    walk(root, 1)
    Rsmi.Stats(height, models, if (sumPts == 0) 0.0 else sumDepth / sumPts, bytes, errL, errA)
  }

  // --------------------------------------------------------------- descend

  /** Alg 1 lines 1–3: one model invocation per level. Allocation-free
    * fast path for queries.
    */
  private def leafFor(x: Double, y: Double): LeafNode = {
    var nd: RsmiNode = root
    while (true) {
      nd match {
        case lf: LeafNode     => return lf
        case in: InternalNode => nd = in.children(in.routeCell(x, y))
      }
    }
    throw new IllegalStateException("unreachable")
  }

  /** Alg 1 lines 1–4 and Eq. 4/5: the leaf's predicted original block for
    * (x, y) and its error range [pred − errl, pred + erra], clamped to
    * the leaf's own blocks.
    */
  private def predictRange(x: Double, y: Double): Rsmi.BlockRange = {
    val leaf = leafFor(x, y)
    val pred = leaf.firstBlk + leaf.predictLocal(x, y)
    new Rsmi.BlockRange(math.max(leaf.firstBlk, pred - leaf.errL), pred, math.min(leaf.lastBlk, pred + leaf.errA))
  }

  // ---------------------------------------------------------- point query

  /** Algorithm 1's search, which §5's delete shares: the groups of the
    * predicted range, outward from the predicted block, so the average
    * number of accesses tracks the average (not maximum) prediction
    * error — matching the paper's measured 1.3–1.5 accesses against
    * error bounds of tens of blocks.
    */
  protected def find(x: Double, y: Double): Slot = {
    val r = predictRange(x, y)
    val maxD = math.max(r.pred - r.lo, r.hi - r.pred)
    var s = new Slot(-1L)
    var d = 0
    while (!s.found && d <= maxD) {
      if (r.pred + d <= r.hi) s = store.findInGroup(r.pred + d, x, y)
      if (!s.found && d > 0 && r.pred - d >= r.lo) s = store.findInGroup(r.pred - d, x, y)
      d += 1
    }
    s
  }

  // --------------------------------------------------------- window query

  /** Original-block range to scan for window `r` (Hilbert-curve case
    * of §4.2): each corner contributes the "not found" branch
    * [M(q.cord) − errl, M(q.cord) + erra], clamped to the corner leaf's
    * own range, and the range spans the min/max of the four.
    */
  def windowRange(r: Rect): (Int, Int) = {
    val a = predictRange(r.xlo, r.ylo); val b = predictRange(r.xhi, r.ylo)
    val c = predictRange(r.xlo, r.yhi); val d = predictRange(r.xhi, r.yhi)
    (math.min(math.min(a.lo, b.lo), math.min(c.lo, d.lo)), math.max(math.max(a.hi, b.hi), math.max(c.hi, d.hi)))
  }

  /** RSMIa exact window query: R-tree-style traversal over sub-model
    * MBRs, then, at each leaf, a read of every block whose MBR meets
    * `r`. A block the MBR shows to lie inside `r` is returned whole,
    * without a per-point test ([[Block.filterInto]]).
    */
  def windowQueryExact(r: Rect): Seq[Point] = {
    val out = mutable.ArrayBuffer.empty[Point]
    def walk(nd: RsmiNode): Unit = nd match {
      case in: InternalNode =>
        in.children.foreach(ch => if (ch != null && ch.mbr.intersects(r)) walk(ch))
      case lf: LeafNode =>
        var blk = store.rangeStart(lf.firstBlk)
        while (blk != null) {
          if (blk.mbr.intersects(r)) store.read(blk.id).filterInto(r, out)
          blk = store.rangeNext(blk, lf.lastBlk)
        }
    }
    walk(root)
    ArraySeq.unsafeWrapArray(out.toArray)
  }

  // ------------------------------------------------------------ kNN query

  /** Exact kNN via best-first traversal (RSMIa with MBRs): sub-models
    * and blocks are queued by MINDIST², a block's points offered to the
    * k best by distance² ([[BestFirst]]). Children go in slot order, a
    * leaf's blocks in chain order, a block's points in slot order.
    */
  def knnQueryExact(qx: Double, qy: Double, k: Int): Seq[Point] =
    new BestFirst[AnyRef](k, store.capacity) {
      protected def expand(node: AnyRef): Unit = node match {
        case b: Block =>
          val blk = store.read(b.id)
          val xs = blk.xs; val ys = blk.ys
          var i = 0
          while (i < blk.size) {
            val dx = xs(i) - qx; val dy = ys(i) - qy
            pushPoint(dx * dx + dy * dy, i)
            i += 1
          }
        case in: InternalNode =>
          var c = 0
          while (c < in.children.length) {
            val ch = in.children(c)
            if (ch != null) pushNode(ch.mbr.minDist2(qx, qy), ch)
            c += 1
          }
        case lf: LeafNode =>
          var blk = store.rangeStart(lf.firstBlk)
          while (blk != null) {
            pushNode(blk.mbr.minDist2(qx, qy), blk)
            blk = store.rangeNext(blk, lf.lastBlk)
          }
      }
      protected def point(node: AnyRef, slot: Int): Point = node.asInstanceOf[Block].point(slot)
    }.knn(root, root.mbr.minDist2(qx, qy))

  // -------------------------------------------------------------- updates

  /** §5 insertion's block: the predicted one. The descent widens the
    * MBR of each node on the way to the leaf, replacing it only when
    * `p` falls outside, so an insert allocates no path.
    */
  protected def insertGroup(p: Point): Int = {
    var nd = root
    var leaf: LeafNode = null
    while (leaf == null) {
      if (!nd.mbr.contains(p.x, p.y)) nd.mbr = nd.mbr.expand(p.x, p.y)
      nd match {
        case lf: LeafNode     => leaf = lf
        case in: InternalNode => nd = in.children(in.routeCell(p.x, p.y))
      }
    }
    leaf.firstBlk + leaf.predictLocal(p.x, p.y)
  }

  /** RSMIr periodic rebuild: retrain the whole index on the current
    * live points (the paper rebuilds oversized sub-models after every
    * 10% n insertions; a full rebuild is the same operation applied at
    * the root).
    */
  def rebuilt(): Rsmi = RsmiBuilder.build(store.allPoints.toArray, cfg)
}

object Rsmi {
  /** A leaf's predicted original block and its clamped error range. */
  private final class BlockRange(val lo: Int, val pred: Int, val hi: Int)

  private final case class Stats(height: Int, models: Int, avgDepth: Double, modelBytes: Long, errL: Int, errA: Int)
}

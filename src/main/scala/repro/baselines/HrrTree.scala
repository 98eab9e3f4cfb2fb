package repro.baselines

import repro.spatial._
import repro.core.RankSpace

/** HRR baseline [Qi et al. 2018/2020]: an R-tree bulk-loaded with the
  * rank-space technique of §3.1 — the very ordering RSMI learns — using
  * a Hilbert curve, packing B points per leaf and B entries per inner
  * node bottom-up. This is the paper's state-of-the-art window-query
  * R-tree.
  *
  * The original uses two auxiliary B-trees to map query coordinates to
  * ranks; we store node MBRs in original coordinates instead, so
  * queries run directly in the original space (DESIGN.md §5) — the
  * packing (and hence the tree quality being measured) is identical.
  *
  * Dynamic insertion (on the [[BlockTree]] core): least-area-enlargement
  * descent, median split on overflow, splits propagate to the root.
  */
final class HrrTree private (B: Int) extends BlockTree(B) {
  import BlockTree._

  val name = "HRR"

  private[baselines] def chooseChild(in: Inner, p: Point): Node = leastEnlargement(in, p)

  /** Halves the entries sorted along the longer side of the node's box. */
  private[baselines] def split(nd: Node): (Node, Node) = nd match {
    case lf: Leaf =>
      val vert = (lf.mbr.xhi - lf.mbr.xlo) >= (lf.mbr.yhi - lf.mbr.ylo)
      val sorted = lf.pts.sortBy(q => if (vert) (q.x, q.y) else (q.y, q.x))
      val mid = sorted.length / 2
      (Leaf.of(sorted.take(mid)), Leaf.of(sorted.drop(mid)))
    case in: Inner =>
      val vert = (in.mbr.xhi - in.mbr.xlo) >= (in.mbr.yhi - in.mbr.ylo)
      val sorted = in.children.sortBy(c => if (vert) c.mbr.centerX else c.mbr.centerY)
      val mid = sorted.length / 2
      (Inner.of(sorted.take(mid)), Inner.of(sorted.drop(mid)))
  }
}

object HrrTree {
  import BlockTree._

  /** Bulk load via rank space + Hilbert (§3.1 steps 1–3), then pack B
    * entries per node level by level.
    */
  def build(pts: Array[Point], B: Int = 100): HrrTree = {
    require(pts.nonEmpty)
    var level: Vector[Node] =
      RankSpace.hilbertOrder(pts).grouped(B).map(g => (Leaf.of(g.toIndexedSeq): Node)).toVector
    while (level.length > 1) {
      level = level.grouped(B).map(g => (Inner.of(g): Node)).toVector
    }
    val t = new HrrTree(B)
    t.root = level.head
    t
  }
}

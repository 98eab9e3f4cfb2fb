package repro.baselines

import scala.collection.mutable
import repro.spatial._

/** K-D-B-tree baseline [Robinson 1981]: a kd-tree implemented with a
  * B-tree-style block structure (§2, §6.1). Internal nodes hold up to
  * `B` disjoint child regions; leaves hold up to `B` points (one data
  * block). Bulk-loaded by recursive equal-count median splits with
  * alternating dimensions, giving the non-overlapping space partition
  * that makes KDB competitive on point queries (§6.2.3).
  *
  * Each node's box in the [[BlockTree]] core is its region, not the
  * MBR of its points; the root's region is the whole plane.
  */
final class KdbTree private (B: Int) extends BlockTree(B) {
  import BlockTree._

  val name = "KDB"

  /** The (unique) child region holding `p`; a point outside every
    * region goes to the nearest one, which the descent then widens.
    */
  private[baselines] def chooseChild(in: Inner, p: Point): Node = {
    val cs = in.children
    var ci = 0
    while (ci < cs.length) {
      if (cs(ci).mbr.contains(p.x, p.y)) return cs(ci)
      ci += 1
    }
    var best: Node = null
    var bd = Double.PositiveInfinity
    ci = 0
    while (ci < cs.length) {
      val d = cs(ci).mbr.minDist2(p.x, p.y)
      if (d < bd) { bd = d; best = cs(ci) }
      ci += 1
    }
    best
  }

  /** A full leaf splits in two by the median of its region's longer
    * side (the K-D-B leaf split). An inner node that overflows keeps the
    * extra entry: at bench insert volumes parents stay far below 2B
    * (documented deviation).
    */
  private[baselines] def split(nd: Node): (Node, Node) = nd match {
    case lf: Leaf =>
      val region = lf.mbr
      val vertical = (region.xhi - region.xlo) >= (region.yhi - region.ylo)
      val sorted = lf.pts.sortBy(q => if (vertical) (q.x, q.y) else (q.y, q.x))
      val mid = sorted(sorted.length / 2)
      val cut = if (vertical) mid.x else mid.y
      val (lp, rp) = lf.pts.partition(q => if (vertical) q.x < cut else q.y < cut)
      if (vertical) (new Leaf(lp, region.copy(xhi = cut)), new Leaf(rp, region.copy(xlo = cut)))
      else (new Leaf(lp, region.copy(yhi = cut)), new Leaf(rp, region.copy(ylo = cut)))
    case _: Inner => null
  }
}

object KdbTree {
  import BlockTree._

  /** Bulk load: recursively split into up to B equal-count regions per
    * node (alternating-dimension median cuts), then pack leaves of up
    * to B points.
    */
  def build(pts: Array[Point], B: Int = 100): KdbTree = {
    require(pts.nonEmpty)
    val t = new KdbTree(B)

    def buildNode(ps: Array[Point], region: Rect, vertical: Boolean): Node = {
      if (ps.length <= B) {
        new Leaf(mutable.ArrayBuffer.from(ps), region)
      } else {
        // Number of halvings so each child gets roughly <= B points at
        // the next level or recurses further; fanout capped at B.
        val wantChildren = math.min(64, Integer.highestOneBit(
          math.max(2, math.min(64, (ps.length + B - 1) / B))) * 2)
        val levels = 31 - Integer.numberOfLeadingZeros(wantChildren)
        var groups = List((ps, region, vertical))
        var l = 0
        while (l < levels) {
          groups = groups.flatMap { case (g, reg, vert) =>
            if (g.length <= 1) List((g, reg, !vert))
            else {
              val sorted = g.sortBy(q => if (vert) (q.x, q.y, q.id) else (q.y, q.x, q.id))
              val mid = sorted.length / 2
              val cutP = sorted(mid)
              val cut = if (vert) cutP.x else cutP.y
              val (rl, rr) =
                if (vert) (reg.copy(xhi = cut), reg.copy(xlo = cut))
                else (reg.copy(yhi = cut), reg.copy(ylo = cut))
              List((sorted.take(mid), rl, !vert), (sorted.drop(mid), rr, !vert))
            }
          }
          l += 1
        }
        val children = groups.collect { case (g, reg, vert) if g.nonEmpty => buildNode(g, reg, vert) }
        new Inner(mutable.ArrayBuffer.from(children), region)
      }
    }

    t.root = buildNode(pts, Rect(-1e9, -1e9, 1e9, 1e9), vertical = true)
    t
  }
}

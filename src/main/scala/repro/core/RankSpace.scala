package repro.core

import repro.spatial.{Hilbert, Point}

/** Rank-space transformation (§3.1, from the R-tree packing work
  * [37, 38]).
  *
  * The rank space of n points is an n × n grid in which the coordinate
  * of a point in each dimension is its *rank* in that dimension of the
  * original space; ties on x are broken by y (and vice versa), then by
  * id for full determinism. By construction every row and every column
  * of the grid holds exactly one point — the property that evens out
  * the gaps between SFC curve values and simplifies the CDF to learn.
  */
object RankSpace {

  /** Returns (rankX, rankY) aligned with `pts` —
    * rankX(i) is the x-rank of pts(i), in [0, n).
    */
  def ranks(pts: Array[Point]): (Array[Int], Array[Int]) = {
    val n = pts.length
    val rankX = new Array[Int](n)
    val rankY = new Array[Int](n)
    val idx = Array.tabulate(n)(identity)

    val byX = idx.sortWith { (a, b) =>
      val pa = pts(a); val pb = pts(b)
      if (pa.x != pb.x) pa.x < pb.x
      else if (pa.y != pb.y) pa.y < pb.y
      else pa.id < pb.id
    }
    var i = 0
    while (i < n) { rankX(byX(i)) = i; i += 1 }

    val byY = idx.sortWith { (a, b) =>
      val pa = pts(a); val pb = pts(b)
      if (pa.y != pb.y) pa.y < pb.y
      else if (pa.x != pb.x) pa.x < pb.x
      else pa.id < pb.id
    }
    i = 0
    while (i < n) { rankY(byY(i)) = i; i += 1 }

    (rankX, rankY)
  }

  /** §3.1 steps 1–3: `pts` ordered by the Hilbert curve value of
    * their rank-space cells (a bijection, so no two points tie). HRR
    * packs its leaves in this order, and each RSMI leaf its blocks.
    */
  def hilbertOrder(pts: Array[Point]): Array[Point] = {
    val n = pts.length
    val (rankX, rankY) = ranks(pts)
    val order = Hilbert.orderFor(n)
    val cv = new Array[Long](n)
    var i = 0
    while (i < n) { cv(i) = Hilbert.xy2d(order, rankX(i), rankY(i)); i += 1 }
    Array.tabulate(n)(identity).sortWith((a, b) => cv(a) < cv(b)).map(pts(_))
  }
}

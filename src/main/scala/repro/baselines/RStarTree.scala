package repro.baselines

import repro.spatial._

/** R*-tree family baseline standing in for the Revised R*-tree (RR*)
  * [Beckmann & Seeger 2009], whose C sources are not available offline
  * (DESIGN.md §5). Like RR*, we use the R*-tree's ChooseSubtree
  * (overlap-enlargement minimization at the leaf level) and the
  * margin-driven topological split, and — also like RR* — no forced
  * reinsertion. The tree is built by one-by-one insertion ("created by
  * means of top-down insertions", §6.2.2), which is why its
  * construction is slower than the bulk-loaded competitors and its
  * nodes are less compact.
  *
  * Node capacity B entries, minimum fill 40% on splits; queries and
  * the insert descent are the [[BlockTree]] core's.
  */
final class RStarTree(B: Int) extends BlockTree(B) {
  import BlockTree._

  val name = "RR*"
  private val minFill = math.max(1, (B * 0.4).toInt)
  root = Leaf.of(Nil)

  /** R* ChooseSubtree: at the level above the leaves minimize overlap
    * enlargement (ties: area enlargement, then area); higher up
    * minimize area enlargement.
    */
  private[baselines] def chooseChild(in: Inner, p: Point): Node = {
    val leafLevel = in.children.head.isInstanceOf[Leaf]
    if (!leafLevel) leastEnlargement(in, p)
    else {
      // R* optimization: evaluate overlap enlargement only for the
      // `ChooseSubtreeP` children with least area enlargement.
      val cand = in.children
        .sortBy(c => c.mbr.expand(p.x, p.y).area - c.mbr.area)
        .take(RStarTree.ChooseSubtreeP)
      var best: Node = null
      var bestKey = (Double.PositiveInfinity, Double.PositiveInfinity, Double.PositiveInfinity)
      for (c <- cand) {
        val grown = c.mbr.expand(p.x, p.y)
        var ovEnl = 0.0
        var cj = 0
        while (cj < in.children.length) {
          val o = in.children(cj)
          if (o ne c) ovEnl += grown.overlapArea(o.mbr) - c.mbr.overlapArea(o.mbr)
          cj += 1
        }
        val key = (ovEnl, grown.area - c.mbr.area, c.mbr.area)
        if (Ordering[(Double, Double, Double)].lt(key, bestKey)) { best = c; bestKey = key }
      }
      best
    }
  }

  /** R* topological split: pick the axis with minimum total margin over
    * all legal distributions, then the distribution with minimum
    * overlap (ties: minimum total area).
    */
  private def splitEntries[T](entries: IndexedSeq[T], mbrOf: T => Rect): (IndexedSeq[T], IndexedSeq[T]) = {
    val m = entries.length
    def distributions(sorted: IndexedSeq[T]): Seq[(IndexedSeq[T], IndexedSeq[T])] =
      (minFill to (m - minFill)).map(i => (sorted.take(i), sorted.drop(i)))
    def marginSum(sorted: IndexedSeq[T]): Double =
      distributions(sorted).map { case (a, b) =>
        a.foldLeft(Rect.empty)((r, e) => r.union(mbrOf(e))).margin +
        b.foldLeft(Rect.empty)((r, e) => r.union(mbrOf(e))).margin
      }.sum
    val byX = entries.sortBy(e => (mbrOf(e).xlo, mbrOf(e).xhi))
    val byY = entries.sortBy(e => (mbrOf(e).ylo, mbrOf(e).yhi))
    val sorted = if (marginSum(byX) <= marginSum(byY)) byX else byY
    distributions(sorted).minBy { case (a, b) =>
      val ra = a.foldLeft(Rect.empty)((r, e) => r.union(mbrOf(e)))
      val rb = b.foldLeft(Rect.empty)((r, e) => r.union(mbrOf(e)))
      (ra.overlapArea(rb), ra.area + rb.area)
    }
  }

  private[baselines] def split(nd: Node): (Node, Node) = nd match {
    case lf: Leaf =>
      val (a, b) = splitEntries(lf.pts.toIndexedSeq, (p: Point) => Rect(p.x, p.y, p.x, p.y))
      (Leaf.of(a), Leaf.of(b))
    case in: Inner =>
      val (a, b) = splitEntries(in.children.toIndexedSeq, (c: Node) => c.mbr)
      (Inner.of(a), Inner.of(b))
  }
}

object RStarTree {
  /** ChooseSubtree candidate cap (the R*-tree paper's p = 32-entry
    * heuristic, scaled to our fanout).
    */
  val ChooseSubtreeP = 16

  /** Build by repeated insertion (the paper's construction for RR*). */
  def build(pts: Array[Point], B: Int = 100): RStarTree = {
    val t = new RStarTree(B)
    pts.foreach(t.insert)
    t.resetCounters()
    t
  }
}

package repro.core

import scala.collection.mutable
import repro.baselines.GridFile
import repro.spatial.{Block, BlockStore, Point, Rect}

/** Reference copies of the kNN walks that keep their k best in a
  * [[repro.spatial.KBest]]: Alg 3's curve-order walk over the learned
  * range ([[ExpandingKnn]]), the Grid File's ring search, and the
  * best-first walk of RSMIa and the tree baselines
  * ([[repro.spatial.BestFirst]]). The first two keep their k best in a
  * `java.util.PriorityQueue` of points, worst on top, and walk the
  * blocks with `peek` and the chain fields, as the benchmark's own copy
  * of Alg 3 does; the best-first copy queues nodes and points together
  * in one `PriorityQueue`. Tests run an index's walk beside these and
  * require the same blocks read, the same rounds and the same
  * distances, so a change to how the k best are kept cannot move which
  * blocks are read.
  */
object ReferenceKnn {

  /** What a walk found: the k distances², nearest first, the blocks it
    * read and the rounds it ran (Alg 3's windows, the Grid's rings).
    */
  final case class Walk(dist2s: Seq[Double], blocks: Int, rounds: Int)

  private final class HeapKBest(k: Int, qx: Double, qy: Double) {
    private val heap = new java.util.PriorityQueue[Point](k,
      (a: Point, b: Point) => java.lang.Double.compare(b.dist2(qx, qy), a.dist2(qx, qy)))
    var blocks = 0

    def size: Int = heap.size
    def kth2: Double = if (heap.size < k) Double.PositiveInfinity else heap.peek.dist2(qx, qy)

    def offer(blk: Block): Unit = {
      blocks += 1
      var i = 0
      while (i < blk.size) {
        val p = blk.point(i)
        if (heap.size < k) heap.add(p)
        else if (p.dist2(qx, qy) < kth2) { heap.poll(); heap.add(p) }
        i += 1
      }
    }

    def walk(rounds: Int): Walk = {
      val out = mutable.ArrayBuffer.empty[Double]
      while (!heap.isEmpty) out += heap.poll().dist2(qx, qy)
      Walk(out.reverse.toSeq, blocks, rounds)
    }
  }

  /** Alg 3: expanding windows, each scanning original range [begin, end]
    * along the chain and reading a block only while the k best are
    * incomplete or its MINDIST is below the k-th distance.
    */
  def alg3(store: BlockStore, pmfX: Pmf, pmfY: Pmf, cardinality: Long, delta: Double,
           qx: Double, qy: Double, k: Int)(windowRange: Rect => (Int, Int)): Walk = {
    val n = math.max(1L, cardinality)
    val side = math.sqrt(k.toDouble / n)
    var width  = math.max(1e-9, pmfX.alpha(qx, delta) * side)
    var height = math.max(1e-9, pmfY.alpha(qy, delta) * side)
    val best = new HeapKBest(k, qx, qy)
    val visited = mutable.BitSet.empty
    var iter = 0
    var done = false
    while (!done && iter < 64) {
      iter += 1
      val (begin, end) = windowRange(Rect(qx - width / 2, qy - height / 2, qx + width / 2, qy + height / 2))
      var cur = math.max(0, math.min(begin, store.originalCount - 1))
      val hi  = math.max(cur, math.min(end, store.originalCount - 1))
      var stop = false
      while (cur >= 0 && !stop) {
        val meta = store.peek(cur)
        if (meta.ord > hi) stop = true
        else {
          if (!visited(cur) && (best.size < k || meta.mbr.minDist2(qx, qy) < best.kth2)) {
            visited += cur
            best.offer(meta)
          }
          cur = meta.next
        }
      }
      val diagHalf2 = (width * width + height * height) / 4
      if (best.size < k) {
        if (width >= 2 && height >= 2) done = true
        width *= 2; height *= 2
      } else if (best.kth2 > diagHalf2) {
        val d = 2 * math.sqrt(best.kth2)
        width = d; height = d
      } else done = true
    }
    best.walk(iter)
  }

  /** The Grid File's ring search: Chebyshev rings of cells around the
    * query's cell, reading a cell's blocks when its MINDIST is below the
    * k-th distance, until the k-th distance is within the ring's reach.
    */
  def gridRings(g: GridFile, qx: Double, qy: Double, k: Int): Walk = {
    val best = new HeapKBest(k, qx, qy)
    val dim = g.dim
    val c0 = g.cellOf(qx, qy)
    val cx0 = c0 % dim; val cy0 = c0 / dim
    val cellW = math.min((g.space.xhi - g.space.xlo) / dim, (g.space.yhi - g.space.ylo) / dim)
    var ring = 0
    var done = false
    while (!done && ring < 2 * dim) {
      var any = false
      for (cy <- math.max(0, cy0 - ring) to math.min(dim - 1, cy0 + ring);
           cx <- math.max(0, cx0 - ring) to math.min(dim - 1, cx0 + ring)
           if math.max(math.abs(cx - cx0), math.abs(cy - cy0)) == ring) {
        any = true
        val cell = cy * dim + cx
        if (g.cellRect(cell).minDist2(qx, qy) < best.kth2) g.cellBlocks(cell).foreach(b => best.offer(g.store.peek(b)))
      }
      val ringDist = ring.toDouble * cellW
      if (best.size == k && best.kth2 <= ringDist * ringDist) done = true
      if (!any && ring > dim) done = true
      ring += 1
    }
    best.walk(ring)
  }

  /** An index's node structure, as the best-first walk sees it: a
    * node's region, its children in queueing order, the points it holds
    * in slot order, and whether expanding it costs a block access.
    */
  trait Nodes[N] {
    def mbr(n: N): Rect
    def children(n: N): Seq[N]
    def points(n: N): Seq[Point]
    def charged(n: N): Boolean
  }

  /** The best-first walk with one `PriorityQueue` on the key holding
    * both nodes, keyed by MINDIST², and points, keyed by distance²: every
    * child and every point of an expanded node is queued, and the walk
    * stops once k points have been popped or the queue is empty. `rounds`
    * counts the nodes expanded.
    */
  def bestFirst[N](t: Nodes[N], root: N, qx: Double, qy: Double, k: Int): Walk = {
    final case class Entry(d2: Double, node: Option[N])
    val pq = new java.util.PriorityQueue[Entry](64, (a: Entry, b: Entry) => java.lang.Double.compare(a.d2, b.d2))
    pq.add(Entry(t.mbr(root).minDist2(qx, qy), Some(root)))
    val out = mutable.ArrayBuffer.empty[Double]
    var blocks = 0
    var expanded = 0
    while (out.size < k && !pq.isEmpty) {
      val e = pq.poll()
      e.node match {
        case None => out += e.d2
        case Some(n) =>
          expanded += 1
          if (t.charged(n)) blocks += 1
          t.children(n).foreach(c => pq.add(Entry(t.mbr(c).minDist2(qx, qy), Some(c))))
          t.points(n).foreach(p => pq.add(Entry(p.dist2(qx, qy), None)))
      }
    }
    Walk(out.toSeq, blocks, expanded)
  }

  /** RSMIa's nodes: sub-models, then a leaf's blocks in chain order; a
    * block is charged.
    */
  def rsmiNodes(idx: Rsmi): Nodes[AnyRef] = new Nodes[AnyRef] {
    def mbr(n: AnyRef): Rect = n match {
      case b: Block   => b.mbr
      case r: RsmiNode => r.mbr
    }
    def children(n: AnyRef): Seq[AnyRef] = n match {
      case in: InternalNode => in.children.toSeq.filter(_ != null)
      case lf: LeafNode =>
        val out = mutable.ArrayBuffer.empty[AnyRef]
        var blk = idx.store.rangeStart(lf.firstBlk)
        while (blk != null) { out += blk; blk = idx.store.rangeNext(blk, lf.lastBlk) }
        out.toSeq
      case _: Block => Nil
    }
    def points(n: AnyRef): Seq[Point] = n match {
      case b: Block => (0 until b.size).map(b.point)
      case _        => Nil
    }
    def charged(n: AnyRef): Boolean = n.isInstanceOf[Block]
  }
}

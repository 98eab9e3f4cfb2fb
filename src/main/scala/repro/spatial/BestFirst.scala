package repro.spatial

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Best-first kNN traversal [Roussopoulos et al. 1995], the one exact
  * kNN walk of the comparison: the tree baselines (KDB, HRR, RR*)
  * run it through `BlockTree.knnQuery`, RSMIa through
  * `Rsmi.knnQueryExact`.
  *
  * A [[DistHeap]] holds index nodes only, keyed by the MINDIST² of
  * their region; points go into a [[KBest]] of the k nearest offered so
  * far. A caller supplies only the expand step: [[expand]] queues a
  * node's children with [[pushNode]] or offers the points it holds with
  * [[pushPoint]], and [[point]] names the point in a slot of a node.
  * After each expansion one selection cuts the points back to k, so the
  * k-th distance² `kth2` is exact for the points offered so far (and
  * infinite until k are held). Two rules follow from it:
  *
  *  - stop: the walk expands the heap top only while its MINDIST² is
  *    strictly below `kth2`. Every node left in the heap is then at
  *    least as far as the k-th, so it holds nothing strictly closer;
  *  - push: [[pushNode]] drops a node whose MINDIST² is not below
  *    `kth2`. The k-th only shrinks, so such a node would never be
  *    expanded.
  *
  * A child's region lies inside its parent's, so its MINDIST² is no
  * smaller; the walk therefore expands every node whose MINDIST² is
  * below the true k-th distance², and no node farther than it. Of the
  * nodes that tie it exactly, it expands only those it reaches while
  * fewer than k points at most that far are held. Queued nodes go into one table, so a heap
  * ref is a node's table index `j` and a point's ref is `j << 32 | slot`;
  * queuing a node, offering a point and expanding a node allocate
  * nothing once the arrays have grown to fit.
  *
  * An instance answers one query for the `k` nearest points. Its k-best
  * buffer starts with room for k plus one block of `blockCapacity`
  * points, the most one expansion offers before its selection.
  */
abstract class BestFirst[N <: AnyRef](k: Int, blockCapacity: Int) {
  require(k >= 1)
  private val heap = new DistHeap(64)
  private val best = new KBest(k, math.min(k.toLong + blockCapacity, 4096L).toInt)
  private val nodes = mutable.ArrayBuffer.empty[N]
  private var expanding = 0L

  /** Queues the entries of `node`, charging its block accesses. */
  protected def expand(node: N): Unit

  /** The point that [[expand]] of `node` offered for `slot`. */
  protected def point(node: N, slot: Int): Point

  /** Queues `node` when its MINDIST² `d2` is below the current k-th. */
  protected final def pushNode(d2: Double, node: N): Unit =
    if (d2 < best.kth2) {
      heap.push(d2, nodes.length)
      nodes += node
    }

  /** Offers the point in `slot` (>= 0) of the node being expanded. */
  protected final def pushPoint(d2: Double, slot: Int): Unit = {
    best.reserve(1)
    best.add(d2, expanding | slot)
  }

  /** The k nearest points, nearest first, below `root`, whose MINDIST²
    * is `rootDist2`.
    */
  final def knn(root: N, rootDist2: Double): Seq[Point] = {
    pushNode(rootDist2, root)
    while (!heap.isEmpty && heap.topKey < best.kth2) {
      val j = heap.topRef.toInt
      heap.pop()
      expanding = j.toLong << 32
      expand(nodes(j))
      best.select()
    }
    best.sort()
    val out = new Array[Point](best.size)
    var i = 0
    while (i < out.length) {
      val ref = best.ref(i)
      out(i) = point(nodes((ref >>> 32).toInt), ref.toInt)
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }
}

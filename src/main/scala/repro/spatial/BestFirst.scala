package repro.spatial

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Best-first kNN traversal [Roussopoulos et al. 1995], the one exact
  * kNN walk of the comparison: the tree baselines (KDB, HRR, RR*)
  * run it through `BlockTree.knnQuery`, RSMIa through
  * `Rsmi.knnQueryExact`.
  *
  * One [[DistHeap]] holds both index entries, keyed by the MINDIST² of
  * their region, and points, keyed by their distance². When a point
  * reaches the top no unexpanded entry can contain anything closer, so
  * it is a confirmed neighbour. A caller supplies only the expand step:
  * [[expand]] queues a node's children with [[pushNode]] or the points
  * it holds with [[pushPoint]], and [[point]] names the point in a slot
  * of a node. Queued nodes go into one table, so a heap ref is either
  * a node's table index `j` (as `Long.MinValue + j`) or a point's
  * `j << 32 | slot`; queuing an entry and expanding a node allocate
  * nothing.
  *
  * `DistHeap` pops in the order a `java.util.PriorityQueue` on the key
  * would for the same pushes, ties included, so the walk visits what
  * the same walk over such a queue visits. An instance answers one
  * query for the `k` nearest points. Its heap starts with room for k
  * plus eight blocks of `blockCapacity` points: an RSMIa kNN at
  * k = 25 and B = 100 on clustered data with 50% inserts holds at most
  * ~670 entries at once in the median query. Growing copies the arrays
  * and keeps the heap order.
  */
abstract class BestFirst[N <: AnyRef](k: Int, blockCapacity: Int) {
  require(k >= 1)
  private val heap = new DistHeap(math.min(k.toLong + 8L * blockCapacity, 4096L).toInt)
  private val nodes = mutable.ArrayBuffer.empty[N]
  private var expanding = 0

  /** Queues the entries of `node`, charging its block accesses. */
  protected def expand(node: N): Unit

  /** The point that [[expand]] of `node` queued for `slot`. */
  protected def point(node: N, slot: Int): Point

  protected final def pushNode(d2: Double, node: N): Unit = {
    heap.push(d2, Long.MinValue + nodes.length)
    nodes += node
  }

  /** Queues the point in `slot` (>= 0) of the node being expanded. */
  protected final def pushPoint(d2: Double, slot: Int): Unit =
    heap.push(d2, expanding.toLong << 32 | slot)

  /** The k nearest points, nearest first, below `root`, whose MINDIST²
    * is `rootDist2`.
    */
  final def knn(root: N, rootDist2: Double): Seq[Point] = {
    pushNode(rootDist2, root)
    val out = mutable.ArrayBuffer.empty[Point]
    while (out.size < k && !heap.isEmpty) {
      val ref = heap.topRef
      heap.pop()
      if (ref >= 0) out += point(nodes((ref >>> 32).toInt), ref.toInt)
      else {
        expanding = (ref - Long.MinValue).toInt
        expand(nodes(expanding))
      }
    }
    ArraySeq.unsafeWrapArray(out.toArray)
  }
}

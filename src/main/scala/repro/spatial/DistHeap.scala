package repro.spatial

/** A binary min-heap of (key, ref) pairs kept in two primitive arrays:
  * `Double` keys (squared distances) and `Long` refs (a [[Slot]]'s bits,
  * or a caller's own encoding), so queueing a candidate allocates
  * nothing.
  *
  * `push` and `pop` sift exactly as `java.util.PriorityQueue` does with
  * a comparator on the key, so a sequence of pushes and pops visits
  * entries in the same order as that queue would, ties included. A
  * max-heap (the k best so far, worst on top) is the same heap over
  * negated keys. Keys must not be NaN.
  */
final class DistHeap(initialCapacity: Int) {
  private var keys = new Array[Double](math.max(1, initialCapacity))
  private var refs = new Array[Long](math.max(1, initialCapacity))
  private var n = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0
  def topKey: Double = keys(0)
  def topRef: Long = refs(0)

  def push(key: Double, ref: Long): Unit = {
    if (n == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * n)
      refs = java.util.Arrays.copyOf(refs, 2 * n)
    }
    var k = n
    n += 1
    var moving = true
    while (moving && k > 0) {
      val parent = (k - 1) >>> 1
      if (key >= keys(parent)) moving = false
      else { keys(k) = keys(parent); refs(k) = refs(parent); k = parent }
    }
    keys(k) = key; refs(k) = ref
  }

  /** Removes the top entry; the heap must not be empty. */
  def pop(): Unit = {
    n -= 1
    if (n > 0) siftDown(keys(n), refs(n))
  }

  /** Replaces the top entry with (key, ref): a `pop` then `push` in one sift. */
  def replaceTop(key: Double, ref: Long): Unit = siftDown(key, ref)

  private def siftDown(key: Double, ref: Long): Unit = {
    val half = n >>> 1
    var k = 0
    var moving = true
    while (moving && k < half) {
      var child = 2 * k + 1
      if (child + 1 < n && keys(child) > keys(child + 1)) child += 1
      if (key <= keys(child)) moving = false
      else { keys(k) = keys(child); refs(k) = refs(child); k = child }
    }
    keys(k) = key; refs(k) = ref
  }
}

/** The k points nearest to (qx, qy) among the blocks offered so far,
  * kept as block slots in a [[DistHeap]] over negated squared
  * distances, so the k-th best is on top. Scans read the blocks'
  * coordinate columns; [[result]] builds a `Point` for each of the k
  * only. Shared by Alg 3 ([[repro.core.ExpandingKnn]]) and the Grid
  * File's ring search.
  */
final class KNearest(k: Int, qx: Double, qy: Double) {
  require(k >= 1)
  private val heap = new DistHeap(math.min(k, 1024))

  def size: Int = heap.size

  /** Squared distance of the k-th best so far; infinite until k are held. */
  def kth2: Double = if (heap.size < k) Double.PositiveInfinity else -heap.topKey

  /** Offers every live point of `blk`; a point replaces the k-th best
    * only when strictly closer.
    */
  def offer(blk: Block): Unit = {
    val xs = blk.xs; val ys = blk.ys
    var i = 0
    while (i < blk.size) {
      val dx = xs(i) - qx; val dy = ys(i) - qy
      val d2 = dx * dx + dy * dy
      if (heap.size < k) heap.push(-d2, Slot(blk.id, i).bits)
      else if (d2 < -heap.topKey) heap.replaceTop(-d2, Slot(blk.id, i).bits)
      i += 1
    }
  }

  /** The points held, nearest first; empties the heap. */
  def result(store: BlockStore): Seq[Point] = {
    val out = new Array[Point](heap.size)
    var i = heap.size - 1
    while (i >= 0) {
      val s = new Slot(heap.topRef)
      out(i) = store.peek(s.block).point(s.index)
      heap.pop()
      i -= 1
    }
    out.toSeq
  }
}

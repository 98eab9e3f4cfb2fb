package repro.spatial

import scala.collection.immutable.ArraySeq

/** A binary min-heap of (key, ref) pairs kept in two primitive arrays:
  * `Double` keys (squared distances) and `Long` refs (the caller's own
  * encoding), so queueing a candidate allocates nothing. [[BestFirst]],
  * the exact kNN of the tree baselines and of RSMIa, queues its index
  * nodes on it, keyed by MINDIST².
  *
  * `push` and `pop` sift exactly as `java.util.PriorityQueue` does with
  * a comparator on the key, so a sequence of pushes and pops visits
  * entries in the same order as that queue would, ties included
  * (`DistHeapSpec`). Keys must not be NaN.
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

/** The k smallest squared distances offered so far, each with the
  * caller's `Long` ref, kept unsorted in two primitive arrays. The one
  * k-best buffer of the kNN walks: [[KNearest]] (Alg 3 and the Grid
  * File's ring search) and [[BestFirst]] (RSMIa and the tree baselines)
  * run on it.
  *
  * A walk offers a batch of candidates (one block's points) with
  * [[add]] and then calls [[select]]. `add` writes every candidate and
  * advances the count by its comparison with the current k-th, so it
  * keeps exactly those strictly closer without a branch. When the batch
  * leaves more than k, `select` runs one quickselect that keeps the k
  * nearest, with the k-th at index k − 1. So after every `select`,
  * [[kth2]] is exactly the k-th smallest distance offered so far, as the
  * top of a bounded max-heap would be; only which of several candidates
  * tied at that distance is kept may differ. [[sort]] orders the held
  * candidates once, nearest first.
  */
final class KBest(k: Int, initialCapacity: Int) {
  require(k >= 1)
  private var d2s = new Array[Double](math.max(1, initialCapacity))
  private var refs = new Array[Long](d2s.length)
  private var n = 0
  private var kth = Double.PositiveInfinity

  /** Candidates held: at most k after a [[select]]. */
  def size: Int = n

  /** Squared distance of the k-th best so far; infinite until k are held. */
  def kth2: Double = kth

  /** The ref of the i-th held candidate (nearest first after [[sort]]). */
  def ref(i: Int): Long = refs(i)

  /** Room for `m` more [[add]]s before the next [[select]]. */
  def reserve(m: Int): Unit =
    if (n + m > d2s.length) {
      val to = math.max(n + m, math.min(2L * d2s.length, Int.MaxValue - 8L).toInt)
      d2s = java.util.Arrays.copyOf(d2s, to)
      refs = java.util.Arrays.copyOf(refs, to)
    }

  /** Keeps (d2, ref) when d2 is strictly below the k-th best; room for
    * it must have been [[reserve]]d.
    */
  @inline def add(d2: Double, ref: Long): Unit = {
    d2s(n) = d2; refs(n) = ref
    n += below(d2, kth)
  }

  /** Cuts the candidates held back to the k nearest, when more are held. */
  def select(): Unit =
    if (n > k || (n == k && kth == Double.PositiveInfinity)) keepK()

  /** Orders the candidates held, nearest first. */
  def sort(): Unit = sort(0, n - 1)

  /** Quickselect: the k smallest of the n held move to [0, k), the k-th at k − 1. */
  private def keepK(): Unit = {
    var lo = 0
    var hi = n - 1
    val target = k - 1
    while (lo < hi) {
      val p = partition(lo, hi)
      val s = (p >>> 32).toInt; val e = p.toInt
      if (target < s) hi = s - 1
      else if (target < e) lo = hi
      else lo = e
    }
    n = k
    kth = d2s(target)
  }

  /** Ascending quicksort of [lo, hi]; small ranges by insertion. */
  private def sort(lo0: Int, hi0: Int): Unit = {
    var lo = lo0
    var hi = hi0
    while (hi - lo > 16) {
      val p = partition(lo, hi)
      val s = (p >>> 32).toInt; val e = p.toInt
      // Recurse into the smaller side, loop on the larger.
      if (s - lo < hi - e) { sort(lo, s - 1); lo = e }
      else { sort(e, hi); hi = s - 1 }
    }
    var i = lo + 1
    while (i <= hi) {
      val d = d2s(i); val r = refs(i)
      var j = i - 1
      while (j >= lo && d2s(j) > d) { d2s(j + 1) = d2s(j); refs(j + 1) = refs(j); j -= 1 }
      d2s(j + 1) = d; refs(j + 1) = r
      i += 1
    }
  }

  /** Partitions [lo, hi], lo < hi, around the median of its first,
    * middle and last keys, and returns (s, e) packed as `s << 32 | e`:
    * [lo, s) is below the pivot, [s, e) equals it (e > s) and [e, hi]
    * is at least the pivot. Equal keys are gathered only when none is
    * below the pivot, so a run of ties costs one extra pass, not one
    * pass per key.
    */
  private def partition(lo: Int, hi: Int): Long = {
    val mid = (lo + hi) >>> 1
    if (d2s(mid) < d2s(lo)) swap(mid, lo)
    if (d2s(hi) < d2s(lo)) swap(hi, lo)
    if (d2s(mid) < d2s(hi)) swap(mid, hi)
    val pivot = d2s(hi)
    val s = sweep(lo, hi, pivot, orEqual = false)
    swap(s, hi)
    val e = if (s == lo) sweep(s + 1, hi + 1, pivot, orEqual = true) else s + 1
    s.toLong << 32 | e
  }

  /** Branch-free Lomuto pass over [lo, end): moves the keys below
    * `pivot` (or at most `pivot`, when `orEqual`) to the front and
    * returns where the rest begins.
    */
  private def sweep(lo: Int, end: Int, pivot: Double, orEqual: Boolean): Int = {
    var s = lo
    var i = lo
    while (i < end) {
      val d = d2s(i); val r = refs(i)
      d2s(i) = d2s(s); refs(i) = refs(s)
      d2s(s) = d; refs(s) = r
      s += (if (orEqual) 1 - below(pivot, d) else below(d, pivot))
      i += 1
    }
    s
  }

  /** 1 when a < b, else 0, without a branch: the sign bit of a − b. */
  @inline private def below(a: Double, b: Double): Int =
    (java.lang.Double.doubleToRawLongBits(a - b) >>> 63).toInt

  private def swap(a: Int, b: Int): Unit = {
    val d = d2s(a); d2s(a) = d2s(b); d2s(b) = d
    val r = refs(a); refs(a) = refs(b); refs(b) = r
  }
}

/** The k points nearest to (qx, qy) among the blocks of `store` offered
  * so far, as block slots in a [[KBest]] sized for k plus one block of
  * the store. Shared by Alg 3 ([[repro.core.ExpandingKnn]]) and the Grid
  * File's ring search.
  *
  * [[offer]] scans a block's coordinate columns into the buffer and
  * selects once, so after every `offer`, [[kth2]] is exactly the k-th
  * smallest distance offered so far. [[result]] sorts the k once and
  * builds a `Point` for each.
  */
final class KNearest(k: Int, qx: Double, qy: Double, store: BlockStore) {
  private val best = new KBest(k, math.min(k.toLong + store.capacity, 4096L).toInt)

  def size: Int = best.size

  /** Squared distance of the k-th best so far; infinite until k are held. */
  def kth2: Double = best.kth2

  /** Offers every live point of `blk`; a point is kept only when
    * strictly closer than the k-th best.
    */
  def offer(blk: Block): Unit = {
    val m = blk.size
    best.reserve(m)
    val xs = blk.xs; val ys = blk.ys
    val blockBits = Slot(blk.id, 0).bits
    var i = 0
    while (i < m) {
      val dx = xs(i) - qx; val dy = ys(i) - qy
      best.add(dx * dx + dy * dy, blockBits | i)
      i += 1
    }
    best.select()
  }

  /** The points held, nearest first. */
  def result(): Seq[Point] = {
    best.sort()
    val out = new Array[Point](best.size)
    var i = 0
    while (i < out.length) {
      val s = new Slot(best.ref(i))
      out(i) = store.peek(s.block).point(s.index)
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }
}

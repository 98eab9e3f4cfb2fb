package repro.perfbench

import scala.collection.mutable
import repro.core._
import repro.spatial.{Point, Rect}

/** Sums of per-layer quantities, averaged per operation on output. */
final class Layers {
  private val sums = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  private val counts = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)

  def add(name: String, v: Double): Unit = sums(name) += v
  def op(kind: String): Unit = counts(kind) += 1
  def ops(kind: String): Long = counts(kind)
  def sum(name: String): Double = sums.getOrElse(name, 0.0)
  /** Mean of `name` per operation of its kind (the prefix before '.'). */
  def mean(name: String): Double = {
    val n = ops(name.takeWhile(_ != '.'))
    if (n == 0) 0.0 else sum(name) / n
  }
}

/** Counting copies of the query algorithms, used only by the traced
  * run. They do the work the real call does, and count it: levels,
  * blocks, overflow blocks, points examined and results. Where an
  * operation's layers are timed inside a walk, it takes a timestamp at
  * each boundary between layers. The traced run checks each walk's
  * block count against the program's own access counter (read before
  * the walk), and the layer sums against the untraced calls, so a walk
  * that drifts from the program fails the run.
  */
object Shadow {

  final class Work {
    var levels = 0; var blocks = 0; var overflow = 0; var points = 0; var nodes = 0
    var rangeNs = 0.0; var scanNs = 0.0
    val out = mutable.ArrayBuffer.empty[Point]
    /** `out` as the program returns it (`toSeq`), where the walk's time
      * includes that conversion.
      */
    var result: Seq[Point] = Nil
  }

  /** Alg 1 lines 1-3: the `routeCell` walk to a leaf. */
  def descend(root: RsmiNode, x: Double, y: Double, w: Work): LeafNode = {
    var nd = root
    while (true) {
      w.levels += 1
      nd match {
        case lf: LeafNode     => return lf
        case in: InternalNode => nd = in.children(in.routeCell(x, y))
      }
    }
    throw new IllegalStateException("unreachable")
  }

  /** Alg 1 block scan: outward from the predicted block, each original
    * block followed by its overflow chain. Returns the point at (x, y),
    * or null.
    */
  def pointScan(idx: Rsmi, leaf: LeafNode, local: Int, x: Double, y: Double, w: Work): Option[Point] = {
    val store = idx.store
    // As `Rsmi.findInBlockGroup`, including its Option of a tuple.
    def group(g: Int): Option[(Int, Int)] = {
      val ord = store.peek(g).ord
      var cur = g
      while (cur >= 0) {
        val meta = store.peek(cur)
        if (cur != g && !(meta.inserted && meta.ord == ord)) return None
        val blk = store.read(cur)
        w.blocks += 1
        if (cur != g) w.overflow += 1
        val i = blk.indexOf(x, y)
        w.points += (if (i >= 0) i + 1 else blk.size)
        if (i >= 0) return Some((cur, i))
        cur = meta.next
      }
      None
    }
    val gpred = leaf.firstBlk + local
    val lo = math.max(leaf.firstBlk, gpred - leaf.errL)
    val hi = math.min(leaf.lastBlk, gpred + leaf.errA)
    var d = 0
    val maxD = math.max(gpred - lo, hi - gpred)
    while (d <= maxD) {
      if (gpred + d <= hi) {
        group(gpred + d) match {
          case Some((b, i)) => return Some(store.peek(b).point(i))
          case None         =>
        }
      }
      if (d > 0 && gpred - d >= lo) {
        group(gpred - d) match {
          case Some((b, i)) => return Some(store.peek(b).point(i))
          case None         =>
        }
      }
      d += 1
    }
    None
  }

  /** Alg 2 scan, counted: `BlockStore.scanRange` over original blocks
    * [a, b], keeping the points inside `r`.
    */
  def rangeScan(idx: Rsmi, a: Int, b: Int, r: Rect, w: Work): Unit = {
    val store = idx.store
    if (store.originalCount == 0) return
    val lo = math.max(0, math.min(a, store.originalCount - 1))
    val hi = math.max(lo, math.min(b, store.originalCount - 1))
    var cur = lo
    while (cur >= 0) {
      val blk = store.peek(cur)
      w.blocks += 1
      if (blk.ord > hi) return
      w.points += blk.size
      var i = 0
      while (i < blk.size) { val p = blk.point(i); if (r.contains(p)) w.out += p; i += 1 }
      cur = blk.next
    }
  }

  /** Model nodes on the four corner descents of an approximate window. */
  def cornerLevels(idx: Rsmi, r: Rect, w: Work): Unit =
    for ((cx, cy) <- Seq((r.xlo, r.ylo), (r.xhi, r.ylo), (r.xlo, r.yhi), (r.xhi, r.yhi))) {
      val c = new Work
      descend(idx.root, cx, cy, c)
      w.nodes += c.levels
    }

  /** RSMIa window: the MBR traversal, and block-MBR filtered scans at
    * the leaves it reaches, in the program's order. Time on model nodes
    * goes to `rangeNs`, time scanning a leaf's blocks to `scanNs`.
    */
  def exactWindow(idx: Rsmi, r: Rect, w: Work): Unit = {
    val c = Reads.clockNs
    var t = System.nanoTime()
    def walk(nd: RsmiNode): Unit = {
      w.nodes += 1
      nd match {
        case in: InternalNode =>
          in.children.foreach(ch => if (ch != null && ch.mbr.intersects(r)) walk(ch))
        case lf: LeafNode =>
          val t1 = System.nanoTime()
          w.rangeNs += t1 - t - c
          var cur = lf.firstBlk
          var stop = false
          while (cur >= 0 && !stop) {
            val meta = idx.store.peek(cur)
            if (meta.ord > lf.lastBlk) stop = true
            else {
              if (meta.mbr.intersects(r)) {
                val blk = idx.store.read(cur)
                w.blocks += 1; w.points += blk.size
                var i = 0
                while (i < blk.size) { val p = blk.point(i); if (r.contains(p)) w.out += p; i += 1 }
              }
              cur = meta.next
            }
          }
          t = System.nanoTime()
          w.scanNs += t - t1 - c
      }
    }
    walk(idx.root)
    val t1 = System.nanoTime()
    w.rangeNs += t1 - t - c
    w.result = w.out.toSeq
    w.scanNs += System.nanoTime() - t1 - c
  }

  /** The program's own Alg 3 (`ExpandingKnn.knn`), with a timestamp on
    * entering and leaving each `windowRange` call: time inside the calls
    * goes to `rangeNs`, the time between them to `scanNs`.
    */
  def timedKnn(idx: Rsmi, qx: Double, qy: Double, k: Int, w: Work): Unit = {
    val c = Reads.clockNs
    var t = System.nanoTime()
    val got = ExpandingKnn.knn(idx.store, idx.pmfX, idx.pmfY, idx.cardinality, idx.cfg.delta, qx, qy, k) { r =>
      val t1 = System.nanoTime()
      w.scanNs += t1 - t - c
      val res = idx.windowRange(r)
      t = System.nanoTime()
      w.rangeNs += t - t1 - c
      res
    }
    w.scanNs += System.nanoTime() - t - c
    w.out ++= got
  }

  /** Alg 3 ([[ExpandingKnn]]) with counters; `nodes` counts expansions. */
  def approxKnn(idx: Rsmi, qx: Double, qy: Double, k: Int, w: Work): Unit = {
    val store = idx.store
    val n = math.max(1L, idx.cardinality)
    val side = math.sqrt(k.toDouble / n)
    var width  = math.max(1e-9, idx.pmfX.alpha(qx, idx.cfg.delta) * side)
    var height = math.max(1e-9, idx.pmfY.alpha(qy, idx.cfg.delta) * side)
    val heap = new java.util.PriorityQueue[Point](k,
      (a: Point, b: Point) => java.lang.Double.compare(b.dist2(qx, qy), a.dist2(qx, qy)))
    def kth2: Double = if (heap.size < k) Double.PositiveInfinity else heap.peek.dist2(qx, qy)
    val visited = mutable.BitSet.empty
    var iter = 0
    var done = false
    while (!done && iter < 64) {
      iter += 1
      w.nodes += 1
      val (begin, end) = idx.windowRange(
        Rect(qx - width / 2, qy - height / 2, qx + width / 2, qy + height / 2))
      var cur = math.max(0, math.min(begin, store.originalCount - 1))
      val hi  = math.max(cur, math.min(end, store.originalCount - 1))
      var stop = false
      while (cur >= 0 && !stop) {
        val meta = store.peek(cur)
        if (meta.ord > hi) stop = true
        else {
          if (!visited(cur) && (heap.size < k || meta.mbr.minDist2(qx, qy) < kth2)) {
            visited += cur
            w.blocks += 1
            w.points += meta.size
            var i = 0
            while (i < meta.size) {
              val p = meta.point(i)
              if (heap.size < k) heap.add(p)
              else if (p.dist2(qx, qy) < kth2) { heap.poll(); heap.add(p) }
              i += 1
            }
          }
          cur = meta.next
        }
      }
      val diagHalf2 = (width * width + height * height) / 4
      if (heap.size < k) {
        if (width >= 2 && height >= 2) done = true
        width *= 2; height *= 2
      } else if (kth2 > diagHalf2) {
        val d = 2 * math.sqrt(kth2)
        width = d; height = d
      } else done = true
    }
    while (!heap.isEmpty) w.out += heap.poll()
  }

  /** RSMIa best-first kNN: the model-node share of a call, timed apart.
    * A copy of `knnQueryExact` ran 15-30% slower than the original, with
    * or without a timestamp at each switch between model nodes and
    * blocks. So a counting copy of the walk (`nodes` counts node
    * expansions) finds the nodes the call expands, and those expansions
    * are replayed on their own, with the same distance computations and
    * queue insertions, into `rangeNs`.
    */
  def exactKnnRange(idx: Rsmi, qx: Double, qy: Double, k: Int, w: Work): Unit = {
    val c = Reads.clockNs
    val expanded = mutable.ArrayBuffer.empty[RsmiNode]
    exactKnn(idx, qx, qy, k, w, expanded)
    val pq = new java.util.PriorityQueue[Entry](64, byD2)
    val t0 = System.nanoTime()
    var i = 0
    while (i < expanded.size) { expand(idx, expanded(i), qx, qy, pq); i += 1 }
    w.rangeNs += System.nanoTime() - t0 - c
  }

  private final case class Entry(d2: Double, node: RsmiNode, blockId: Int, point: Point)
  private val byD2: java.util.Comparator[Entry] = (a: Entry, b: Entry) => java.lang.Double.compare(a.d2, b.d2)

  /** A counting copy of `Rsmi.knnQueryExact` that keeps the nodes it
    * expands.
    */
  def exactKnn(idx: Rsmi, qx: Double, qy: Double, k: Int, w: Work,
               expanded: mutable.ArrayBuffer[RsmiNode] = mutable.ArrayBuffer.empty): Unit = {
    val store = idx.store
    val pq = new java.util.PriorityQueue[Entry](64, byD2)
    pq.add(Entry(idx.root.mbr.minDist2(qx, qy), idx.root, -1, null))
    val out = w.out
    while (out.size < k && !pq.isEmpty) {
      val e = pq.poll()
      if (e.point != null) out += e.point
      else if (e.blockId >= 0) {
        val blk = store.read(e.blockId)
        w.blocks += 1
        w.points += blk.size
        var i = 0
        while (i < blk.size) {
          val p = blk.point(i)
          pq.add(Entry(p.dist2(qx, qy), null, -1, p))
          i += 1
        }
      } else {
        w.nodes += 1
        expanded += e.node
        expand(idx, e.node, qx, qy, pq)
      }
    }
  }

  /** Queues the children of an internal node, or the blocks of a leaf. */
  private def expand(idx: Rsmi, nd: RsmiNode, qx: Double, qy: Double, pq: java.util.PriorityQueue[Entry]): Unit =
    nd match {
      case in: InternalNode =>
        in.children.foreach { ch =>
          if (ch != null) pq.add(Entry(ch.mbr.minDist2(qx, qy), ch, -1, null))
        }
      case lf: LeafNode =>
        var cur = lf.firstBlk
        var stop = false
        while (cur >= 0 && !stop) {
          val meta = idx.store.peek(cur)
          if (meta.ord > lf.lastBlk) stop = true
          else {
            pq.add(Entry(meta.mbr.minDist2(qx, qy), null, meta.id, null))
            cur = meta.next
          }
        }
    }

  /** Overflow chains after updates: (overflow blocks, longest chain,
    * mean chain length over original blocks that have a chain).
    */
  def chains(idx: Rsmi): (Int, Int, Double) = {
    val s = idx.store
    var longest = 0; var chained = 0; var total = 0
    var g = 0
    while (g < s.originalCount) {
      var len = 0
      var cur = s.peek(g).next
      while (cur >= 0 && s.peek(cur).inserted && s.peek(cur).ord == g) { len += 1; cur = s.peek(cur).next }
      if (len > 0) { chained += 1; total += len; longest = math.max(longest, len) }
      g += 1
    }
    (s.numBlocks - s.originalCount, longest, if (chained == 0) 0.0 else total.toDouble / chained)
  }
}

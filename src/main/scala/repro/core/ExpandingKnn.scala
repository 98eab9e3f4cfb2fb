package repro.core

import scala.collection.mutable
import repro.spatial.{BlockStore, Point, Rect}

/** Algorithm 3: the expanding-window approximate kNN search, shared by
  * RSMI and — as in the paper ("ZM does not come with a kNN algorithm,
  * so we use our kNN algorithm for it", §6.2.4) — by the ZM baseline.
  *
  * The caller supplies `windowRange`, the index-specific mapping from a
  * window query to the original-block scan range (RSMI: corner point
  * queries, §4.2; ZM: Z-values of the bottom-left/top-right corners).
  */
object ExpandingKnn {

  def knn(store: BlockStore,
          pmfX: Pmf, pmfY: Pmf,
          cardinality: Long,
          delta: Double,
          qx: Double, qy: Double, k: Int)(
          windowRange: Rect => (Int, Int)): Seq[Point] = {
    require(k >= 1)
    val n = math.max(1L, cardinality)
    val side = math.sqrt(k.toDouble / n)
    var width  = math.max(1e-9, pmfX.alpha(qx, delta) * side)
    var height = math.max(1e-9, pmfY.alpha(qy, delta) * side)
    val heap = new java.util.PriorityQueue[Point](k,
      (a: Point, b: Point) => java.lang.Double.compare(b.dist2(qx, qy), a.dist2(qx, qy)))
    def kth2: Double = if (heap.size < k) Double.PositiveInfinity else heap.peek.dist2(qx, qy)
    val visited = mutable.BitSet.empty
    var iter = 0
    var done = false
    while (!done && iter < 64) {
      iter += 1
      val wq = Rect(qx - width / 2, qy - height / 2, qx + width / 2, qy + height / 2)
      val (begin, end) = windowRange(wq)
      var meta = store.rangeStart(begin)
      while (meta != null) {
        if (!visited(meta.id) && (heap.size < k || meta.mbr.minDist2(qx, qy) < kth2)) {
          visited += meta.id
          val blk = store.read(meta.id)
          var i = 0
          while (i < blk.size) {
            val p = blk.point(i)
            val d2 = p.dist2(qx, qy)
            if (heap.size < k) heap.add(p)
            else if (d2 < kth2) { heap.poll(); heap.add(p) }
            i += 1
          }
        }
        meta = store.rangeNext(meta, end)
      }
      val diagHalf2 = (width * width + height * height) / 4
      if (heap.size < k) {
        if (width >= 2 && height >= 2) done = true // region already covers the space
        width *= 2; height *= 2
      } else if (kth2 > diagHalf2) {
        val d = 2 * math.sqrt(kth2)
        width = d; height = d
      } else done = true
    }
    val out = new Array[Point](heap.size)
    var i = heap.size - 1
    while (i >= 0) { out(i) = heap.poll(); i -= 1 }
    out.toSeq
  }
}

package repro.core

import scala.collection.mutable
import repro.spatial.{BlockStore, KNearest, Point, Rect}

/** Algorithm 3: the expanding-window approximate kNN search, shared by
  * RSMI and — as in the paper ("ZM does not come with a kNN algorithm,
  * so we use our kNN algorithm for it", §6.2.4) — by the ZM baseline.
  *
  * The caller supplies `windowRange`, the index-specific mapping from a
  * window query to the original-block scan range (RSMI: corner point
  * queries, §4.2; ZM: Z-values of the bottom-left/top-right corners).
  *
  * Each round walks the blocks of the learned range in curve order
  * and reads a block only when its MINDIST is below the current k-th
  * distance. The k best candidates so far are block slots in a
  * [[KNearest]], scanned from the blocks' coordinate columns; its k-th
  * distance is exact after every block, so which blocks are read and
  * when the window grows depend only on the distances offered. A
  * `Point` is built only for the k returned.
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
    val best = new KNearest(k, qx, qy, store)
    val visited = mutable.BitSet.empty
    var iter = 0
    var done = false
    while (!done && iter < 64) {
      iter += 1
      val wq = Rect(qx - width / 2, qy - height / 2, qx + width / 2, qy + height / 2)
      val (begin, end) = windowRange(wq)
      var meta = store.rangeStart(begin)
      while (meta != null) {
        if (!visited(meta.id) && meta.mbr.minDist2(qx, qy) < best.kth2) {
          visited += meta.id
          best.offer(store.read(meta.id))
        }
        meta = store.rangeNext(meta, end)
      }
      val diagHalf2 = (width * width + height * height) / 4
      if (best.size < k) {
        if (width >= 2 && height >= 2) done = true // region already covers the space
        width *= 2; height *= 2
      } else if (best.kth2 > diagHalf2) {
        val d = 2 * math.sqrt(best.kth2)
        width = d; height = d
      } else done = true
    }
    best.result()
  }
}

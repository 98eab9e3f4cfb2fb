package repro.core

import repro.harness.SpatialIndexApi
import repro.spatial.{BlockStore, Point, Rect, Slot}

/** The learned-range core RSMI and the ZM baseline share. The paper runs
  * ZM through RSMI's own algorithms (§6.2.4, §6.2.5), so both answer a
  * window by scanning the original-block range `windowRange` predicts
  * (Alg 2), a kNN query by [[ExpandingKnn]] over the same ranges
  * (Alg 3), and a delete by removing the slot their own group search
  * finds (§5). Each index supplies its prediction: `windowRange`,
  * `pointQuery`, `insert` and `deleteSlot`.
  */
abstract class LearnedIndex(val store: BlockStore, val pmfX: Pmf, val pmfY: Pmf, builtCount: Long)
    extends SpatialIndexApi with Serializable {

  /** Number of live points currently indexed (maintained by updates). */
  var cardinality: Long = builtCount

  /** Original-block range [begin, end] to scan for window `r`. */
  def windowRange(r: Rect): (Int, Int)

  /** Algorithm 2 (approximate; never returns a point outside `r`). */
  final def windowQuery(r: Rect): Seq[Point] = {
    val (begin, end) = windowRange(r)
    store.windowScan(begin, end, r)
  }

  /** Algorithm 3: expanding-window approximate kNN, initial region
    * sized by the PMF skew estimates (Eq. 6).
    */
  final def knnQuery(qx: Double, qy: Double, k: Int): Seq[Point] =
    ExpandingKnn.knn(store, pmfX, pmfY, cardinality, LearnedIndex.Delta, qx, qy, k)(windowRange)

  /** The slot of an indexed point at (x, y) that [[delete]] removes. */
  protected def deleteSlot(x: Double, y: Double): Slot

  /** §5 deletion: removes the point `deleteSlot` finds by swap-with-last.
    * Blocks are never deallocated (error-bound validity).
    */
  final def delete(x: Double, y: Double): Boolean = {
    val s = deleteSlot(x, y)
    if (s.found) { store.peek(s.block).removeAt(s.index); cardinality -= 1 }
    s.found
  }

  final def blockAccesses: Long = store.accesses
  final def resetCounters(): Unit = store.resetAccesses()
}

object LearnedIndex {
  /** Δ of Eq. 6 (paper: 0.01). */
  val Delta = 0.01
}

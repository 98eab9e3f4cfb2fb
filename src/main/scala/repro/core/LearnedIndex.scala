package repro.core

import repro.harness.SpatialIndexApi
import repro.spatial.{BlockStore, Point, Rect, Slot}

/** The learned-range core RSMI and the ZM baseline share. The paper runs
  * ZM through RSMI's own algorithms (§6.2.4, §6.2.5), so both answer a
  * point query by the group search `find` predicts (Alg 1), a window by
  * scanning the original-block range `windowRange` predicts (Alg 2), a
  * kNN query by [[ExpandingKnn]] over the same ranges (Alg 3), and an
  * update as §5 does: an insert goes to the group of the block
  * `insertGroup` predicts, and a delete removes the slot `find` returns,
  * so it reads exactly the blocks a point query of the same point reads.
  * Each index supplies only its predictions: `windowRange`, `find` and
  * `insertGroup`.
  */
abstract class LearnedIndex(val store: BlockStore, val pmfX: Pmf, val pmfY: Pmf, builtCount: Long)
    extends SpatialIndexApi with Serializable {

  private var live: Long = builtCount

  /** Number of live points currently indexed (maintained by updates). */
  final def cardinality: Long = live

  /** Original-block range [begin, end] to scan for window `r`. */
  def windowRange(r: Rect): (Int, Int)

  /** The slot of an indexed point at (x, y), or a not-found slot. */
  protected def find(x: Double, y: Double): Slot

  /** The original block whose group receives an insert of `p`. */
  protected def insertGroup(p: Point): Int

  /** Algorithm 1: the indexed point with these coordinates, if any. */
  final def pointQuery(x: Double, y: Double): Option[Point] = {
    val s = find(x, y)
    if (s.found) Some(store.peek(s.block).point(s.index)) else None
  }

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

  /** §5 insertion: `p` goes into the group of its predicted block,
    * overflowing into a chained `inserted` block (exempt from error
    * bounds).
    */
  final def insert(p: Point): Unit = {
    store.appendToGroup(insertGroup(p), p)
    live += 1
  }

  /** §5 deletion: removes the point `find` finds by swap-with-last.
    * Blocks are never deallocated (error-bound validity).
    */
  final def delete(x: Double, y: Double): Boolean = {
    val s = find(x, y)
    if (s.found) { store.peek(s.block).removeAt(s.index); live -= 1 }
    s.found
  }

  final def blockAccesses: Long = store.accesses
  final def resetCounters(): Unit = store.resetAccesses()
}

object LearnedIndex {
  /** Δ of Eq. 6 (paper: 0.01). */
  val Delta = 0.01
}

package repro.baselines

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.harness.SpatialIndexApi
import repro.spatial._

/** Grid File baseline [Nievergelt et al. 1984], as configured in §6.1:
  * a regular √(n/B) × √(n/B) grid over the data space; each cell keeps
  * a chain of blocks holding its points (one block per cell under a
  * uniform distribution). The in-memory cell table is the directory
  * (its lookups are not block accesses — the paper gives Grid a fixed
  * depth of 1).
  */
final class GridFile private (
    val space: Rect,
    val dim: Int,
    private[repro] val store: BlockStore,
    private[repro] val cellBlocks: Array[mutable.ArrayBuffer[Int]]) extends SpatialIndexApi {

  val name = "Grid"

  private[repro] def cellOf(x: Double, y: Double): Int = {
    val cx = math.min(dim - 1, math.max(0,
      ((x - space.xlo) / (space.xhi - space.xlo) * dim).toInt))
    val cy = math.min(dim - 1, math.max(0,
      ((y - space.ylo) / (space.yhi - space.ylo) * dim).toInt))
    cy * dim + cx
  }

  private[repro] def cellRect(c: Int): Rect = {
    val cx = c % dim; val cy = c / dim
    val w = (space.xhi - space.xlo) / dim
    val h = (space.yhi - space.ylo) / dim
    Rect(space.xlo + cx * w, space.ylo + cy * h,
         space.xlo + (cx + 1) * w, space.ylo + (cy + 1) * h)
  }

  def pointQuery(x: Double, y: Double): Option[Point] = {
    val blocks = cellBlocks(cellOf(x, y))
    var bi = 0
    while (bi < blocks.length) {
      val blk = store.read(blocks(bi))
      val i = blk.indexOf(x, y)
      if (i >= 0) return Some(blk.point(i))
      bi += 1
    }
    None
  }

  def windowQuery(r: Rect): Seq[Point] = {
    val out = mutable.ArrayBuffer.empty[Point]
    val cxLo = math.min(dim - 1, math.max(0, ((r.xlo - space.xlo) / (space.xhi - space.xlo) * dim).toInt))
    val cxHi = math.min(dim - 1, math.max(0, ((r.xhi - space.xlo) / (space.xhi - space.xlo) * dim).toInt))
    val cyLo = math.min(dim - 1, math.max(0, ((r.ylo - space.ylo) / (space.yhi - space.ylo) * dim).toInt))
    val cyHi = math.min(dim - 1, math.max(0, ((r.yhi - space.ylo) / (space.yhi - space.ylo) * dim).toInt))
    var cy = cyLo
    while (cy <= cyHi) {
      var cx = cxLo
      while (cx <= cxHi) {
        val blocks = cellBlocks(cy * dim + cx)
        var bi = 0
        while (bi < blocks.length) {
          store.read(blocks(bi)).filterInto(r, out)
          bi += 1
        }
        cx += 1
      }
      cy += 1
    }
    ArraySeq.unsafeWrapArray(out.toArray)
  }

  /** Exact kNN by expanding rings of cells: after processing every cell
    * within Chebyshev ring ρ, any unseen point is at least (ρ) cell
    * widths away, so once the kth distance is below that bound the
    * answer is final.
    */
  def knnQuery(qx: Double, qy: Double, k: Int): Seq[Point] = {
    require(k >= 1)
    val best = new KNearest(k, qx, qy, store)
    val c0 = cellOf(qx, qy)
    val cx0 = c0 % dim; val cy0 = c0 / dim
    val cellW = math.min((space.xhi - space.xlo) / dim, (space.yhi - space.ylo) / dim)
    var ring = 0
    var done = false
    while (!done && ring < 2 * dim) {
      var any = false
      var cy = math.max(0, cy0 - ring)
      while (cy <= math.min(dim - 1, cy0 + ring)) {
        var cx = math.max(0, cx0 - ring)
        while (cx <= math.min(dim - 1, cx0 + ring)) {
          if (math.max(math.abs(cx - cx0), math.abs(cy - cy0)) == ring) {
            any = true
            val cell = cy * dim + cx
            if (cellRect(cell).minDist2(qx, qy) < best.kth2) {
              val blocks = cellBlocks(cell)
              var bi = 0
              while (bi < blocks.length) {
                best.offer(store.read(blocks(bi)))
                bi += 1
              }
            }
          }
          cx += 1
        }
        cy += 1
      }
      val ringDist = ring.toDouble * cellW
      if (best.size == k && best.kth2 <= ringDist * ringDist) done = true
      if (!any && ring > dim) done = true
      ring += 1
    }
    best.result()
  }

  /** §6.2.5: a new point goes to the last block of its cell. */
  def insert(p: Point): Unit = {
    val c = cellOf(p.x, p.y)
    val blocks = cellBlocks(c)
    if (blocks.isEmpty || store.peek(blocks.last).isFull) {
      val nb = store.allocate(store.numBlocks, inserted = true)
      blocks += nb.id
    }
    store.peek(blocks.last).add(p)
  }

  def blockAccesses: Long = store.accesses
  def resetCounters(): Unit = store.resetAccesses()

  /** Blocks + one directory entry per cell. */
  def sizeBytes: Long = store.sizeBytes + 16L * dim * dim
}

object GridFile {
  def build(pts: Array[Point], B: Int = 100): GridFile = {
    require(pts.nonEmpty)
    val dim = math.max(1, math.sqrt(pts.length.toDouble / B).toInt)
    val space = Rect.mbrOf(pts)
    val store = new BlockStore(B)
    val cellBlocks = Array.fill(dim * dim)(mutable.ArrayBuffer.empty[Int])
    val gf = new GridFile(space, dim, store, cellBlocks)
    // Bulk placement cell by cell keeps blocks dense.
    val byCell = pts.groupBy(p => gf.cellOf(p.x, p.y))
    for ((c, cellPts) <- byCell) {
      val first = store.numBlocks
      store.packOriginals(cellPts)
      cellBlocks(c) ++= first until store.numBlocks
    }
    store.chainOriginals()
    gf
  }
}

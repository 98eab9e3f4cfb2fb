package repro.spatial

import scala.collection.mutable.ArrayBuffer

/** One simulated disk block of capacity `capacity`.
  *
  * The paper runs everything in main memory and reports *block
  * accesses* as the external-memory cost indicator (§6.1); we do the
  * same. A block keeps its points in three primitive columns, `ids`,
  * `xs` and `ys`, so scans read coordinates without dereferencing a
  * `Point`; [[point]] builds one only for a point a query returns.
  * Deletions follow §5: the deleted point is swapped with the last
  * live point, so slots `0 until size` are always the live points.
  *
  * The columns start with `slots` entries. [[BlockStore.packOriginals]]
  * allocates build-time blocks at their final size; a block that grows
  * by insertion doubles its columns, up to `capacity`.
  *
  * `next` is the block's successor on the [[BlockStore]] chain (the
  * "pointers" of §3.2); `ord` and `inserted` place the block in it.
  */
final class Block(val id: Int, val ord: Int, val inserted: Boolean, capacity: Int, slots: Int) {
  private var n = 0
  private var idCol = new Array[Long](slots)
  private var xCol = new Array[Double](slots)
  private var yCol = new Array[Double](slots)
  var next: Int = -1
  /** MBR over every point ever stored; not shrunk on delete (safe for
    * MINDIST pruning, just conservative).
    */
  var mbr: Rect = Rect.empty

  def size: Int = n
  def isFull: Boolean = n >= capacity

  /** The columns; slots `0 until size` are live. Read-only for callers. */
  private[repro] def ids: Array[Long] = idCol
  private[repro] def xs: Array[Double] = xCol
  private[repro] def ys: Array[Double] = yCol

  def point(i: Int): Point = {
    if (i < 0 || i >= n) throw new IndexOutOfBoundsException(s"slot $i of block $id holding $n points")
    Point(idCol(i), xCol(i), yCol(i))
  }

  def points: Seq[Point] = (0 until n).map(point)

  def add(p: Point): Unit = {
    require(!isFull, s"block $id full")
    if (n == xCol.length) grow()
    idCol(n) = p.id; xCol(n) = p.x; yCol(n) = p.y
    n += 1
    if (!mbr.contains(p.x, p.y)) mbr = mbr.expand(p.x, p.y)
  }

  private def grow(): Unit = {
    val len = math.min(capacity, math.max(1, 2 * xCol.length))
    idCol = java.util.Arrays.copyOf(idCol, len)
    xCol = java.util.Arrays.copyOf(xCol, len)
    yCol = java.util.Arrays.copyOf(yCol, len)
  }

  /** Swap-with-last removal of the point at slot `i`. */
  def removeAt(i: Int): Unit = {
    if (i < 0 || i >= n) throw new IndexOutOfBoundsException(s"slot $i of block $id holding $n points")
    n -= 1
    idCol(i) = idCol(n); xCol(i) = xCol(n); yCol(i) = yCol(n)
  }

  def indexOf(x: Double, y: Double): Int = {
    var i = 0
    while (i < n) {
      if (xCol(i) == x && yCol(i) == y) return i
      i += 1
    }
    -1
  }

  /** Appends the live points inside `r` (edges included) to `out`. */
  def filterInto(r: Rect, out: ArrayBuffer[Point]): Unit = {
    val xlo = r.xlo; val ylo = r.ylo; val xhi = r.xhi; val yhi = r.yhi
    var i = 0
    while (i < n) {
      val x = xCol(i); val y = yCol(i)
      if (x >= xlo && x <= xhi && y >= ylo && y <= yhi) out += Point(idCol(i), x, y)
      i += 1
    }
  }
}

/** Where a point lives: block id and slot, packed in one Long so a
  * lookup ([[BlockStore.findInGroup]]) or a kNN candidate allocates
  * nothing.
  */
final class Slot(val bits: Long) extends AnyVal {
  def found: Boolean = bits >= 0
  def block: Int = (bits >>> 32).toInt
  def index: Int = bits.toInt
}

object Slot {
  def apply(block: Int, index: Int): Slot = new Slot(block.toLong << 32 | index)
}

/** An append-only store of simulated blocks with an access counter,
  * and the only code that knows how blocks are chained.
  *
  * `read` counts one block access; `peek` does not (build-time
  * bookkeeping). Original blocks are allocated contiguously at build
  * time so an original block's ID equals its position in curve order,
  * and `chainOriginals` links them in that order. Blocks created by
  * insertions are flagged `inserted`, carry the `ord` of the original
  * block they overflow, and are linked after it (§5). So original block
  * `g` and the inserted blocks that follow it form `g`'s *group*, and
  * the chain visits blocks in non-decreasing `ord`: a walk over
  * original IDs [a, b] follows the chain while `ord <= b` and meets
  * every overflow block in the range, while error bounds keep
  * referring to original IDs only.
  */
final class BlockStore(val capacity: Int) extends Serializable {
  private val blocks = new ArrayBuffer[Block]()
  private var accessCount: Long = 0L
  /** Number of blocks created at build time (IDs 0 until originalCount). */
  var originalCount: Int = 0

  def numBlocks: Int = blocks.length
  def accesses: Long = accessCount
  def resetAccesses(): Unit = accessCount = 0

  def allocate(ord: Int, inserted: Boolean): Block = allocate(ord, inserted, math.min(capacity, 16))

  private def allocate(ord: Int, inserted: Boolean, slots: Int): Block = {
    val b = new Block(blocks.length, ord, inserted, capacity, slots)
    blocks += b
    b
  }

  /** Packs `pts`, in order, into new original blocks of `capacity`
    * points each (the last takes the rest), each allocated at its final
    * size; a block's `ord` is its ID. Build-time packing.
    */
  def packOriginals(pts: Array[Point]): Unit = {
    var i = 0
    while (i < pts.length) {
      val end = math.min(pts.length, i + capacity)
      val blk = allocate(blocks.length, inserted = false, end - i)
      while (i < end) { blk.add(pts(i)); i += 1 }
    }
  }

  /** Read a block, counting one access. */
  def read(id: Int): Block = {
    accessCount += 1
    blocks(id)
  }

  /** Access a block without counting (builder/maintenance use only). */
  def peek(id: Int): Block = blocks(id)

  /** Chain the original blocks [0, originalCount) in ID order. Called
    * once after build-time packing.
    */
  def chainOriginals(): Unit = {
    originalCount = blocks.length
    var i = 0
    while (i < blocks.length) {
      blocks(i).next = if (i + 1 < blocks.length) i + 1 else -1
      i += 1
    }
  }

  /** Link block `nb` into the chain immediately after `pred`. */
  private def linkAfter(pred: Block, nb: Block): Unit = {
    nb.next = pred.next
    pred.next = nb.id
  }

  /** Whether block `id` (-1: none) is an overflow block of the group with `ord`. */
  private def inGroup(id: Int, ord: Int): Boolean =
    id >= 0 && blocks(id).inserted && blocks(id).ord == ord

  /** Scans original block `g`, then its overflow blocks, for a point at
    * (x, y), counting one access per block read and stopping at the
    * first match.
    */
  def findInGroup(g: Int, x: Double, y: Double): Slot = {
    val ord = blocks(g).ord
    var id = g
    while (id >= 0) {
      val blk = read(id)
      val i = blk.indexOf(x, y)
      if (i >= 0) return Slot(id, i)
      id = if (inGroup(blk.next, ord)) blk.next else -1
    }
    new Slot(-1L)
  }

  /** Adds `p` to the first non-full block of original block `g`'s group;
    * when every block is full, links a new inserted block with `g`'s
    * `ord` after the group's last one. Counts no access.
    */
  def appendToGroup(g: Int, p: Point): Unit = {
    val ord = blocks(g).ord
    var target = blocks(g)
    while (target.isFull && inGroup(target.next, ord)) target = blocks(target.next)
    if (target.isFull) {
      val nb = allocate(ord, inserted = true)
      linkAfter(target, nb)
      target = nb
    }
    target.add(p)
  }

  /** Cursor over the blocks of original range [a, b], b >= a, in chain
    * order: original block `a` (clamped to the originals), then each
    * block after it on the chain whose `ord` is <= b, overflow blocks
    * included. `rangeStart(a)` is the first block, `rangeNext(blk, b)`
    * the one after `blk`, and null ends the walk:
    * {{{
    * var blk = store.rangeStart(a)
    * while (blk != null) { ...; blk = store.rangeNext(blk, b) }
    * }}}
    * The walk counts no access; callers `read` the blocks they scan.
    */
  def rangeStart(a: Int): Block =
    if (originalCount == 0) null else blocks(math.max(0, math.min(a, originalCount - 1)))

  /** The block after `blk` on a [[rangeStart]] walk ending at original block `b`, or null. */
  def rangeNext(blk: Block, b: Int): Block =
    if (blk.next < 0) null
    else {
      val n = blocks(blk.next)
      if (n.ord <= b) n else null
    }

  /** The [[rangeStart]] walk over [a, b], reading every block it
    * visits, one access each. The block that ends the range is charged
    * an access too, though it is not visited. The visitor returns false
    * to stop early.
    */
  def scanRange(a: Int, b: Int)(visit: Block => Boolean): Unit = {
    var blk = rangeStart(a)
    while (blk != null) {
      accessCount += 1
      if (!visit(blk)) return
      val next = rangeNext(blk, b)
      if (next == null && blk.next >= 0) accessCount += 1
      blk = next
    }
  }

  /** Alg 2's scan: the points inside `r` of the blocks `scanRange(a, b)` visits. */
  def windowScan(a: Int, b: Int, r: Rect): Seq[Point] = {
    val out = ArrayBuffer.empty[Point]
    scanRange(a, b) { blk => blk.filterInto(r, out); true }
    out.toSeq
  }

  /** Live points across all blocks (tests / rebuild). */
  def allPoints: Seq[Point] = blocks.iterator.flatMap(_.points).toSeq

  /** Rough serialized size in bytes: 24 bytes per live point (its
    * 8-byte `ids`, `xs` and `ys` column entries, as in a `blocks.bin`
    * record) plus a small per-block header — used for the index-size
    * columns. Unused column capacity is not counted.
    */
  def sizeBytes: Long =
    blocks.iterator.map(b => 24L * b.size + 16L).sum
}

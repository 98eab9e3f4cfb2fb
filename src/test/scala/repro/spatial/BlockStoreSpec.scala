package repro.spatial

import org.scalatest.funsuite.AnyFunSuite

class BlockStoreSpec extends AnyFunSuite {

  private def store(b: Int = 4): BlockStore = new BlockStore(b)

  test("allocate assigns sequential IDs") {
    val s = store()
    assert(s.allocate(0, inserted = false).id === 0)
    assert(s.allocate(1, inserted = false).id === 1)
    assert(s.numBlocks === 2)
  }

  test("block add respects capacity and updates MBR") {
    val s = store(2)
    val b = s.allocate(0, inserted = false)
    b.add(Point(1, 0.1, 0.2))
    b.add(Point(2, 0.5, 0.9))
    assert(b.isFull)
    assert(b.mbr === Rect(0.1, 0.2, 0.5, 0.9))
    intercept[IllegalArgumentException](b.add(Point(3, 0.3, 0.3)))
  }

  test("removeAt swaps with last") {
    val s = store()
    val b = s.allocate(0, inserted = false)
    b.add(Point(1, 0.1, 0.1)); b.add(Point(2, 0.2, 0.2)); b.add(Point(3, 0.3, 0.3))
    b.removeAt(0)
    assert(b.size === 2)
    assert(b.point(0) === Point(3, 0.3, 0.3)) // last swapped in, all three columns
    assert(b.indexOf(0.1, 0.1) === -1)
  }

  test("a block grows its columns past the first allocation up to capacity") {
    val s = store(100)
    val b = s.allocate(0, inserted = false)
    val pts = (0 until 100).map(i => Point(1000L + i, i * 0.01, 1 - i * 0.01))
    pts.foreach(b.add)
    assert(b.isFull && b.size === 100)
    assert(b.xs.length === 100) // doubled 16 -> 32 -> 64, then capped
    assert((0 until 100).map(b.point) === pts)
    intercept[IllegalArgumentException](b.add(Point(1, 0.5, 0.5)))
  }

  test("point(i) returns exactly what add stored, and no slot past size") {
    val s = store()
    val b = s.allocate(0, inserted = false)
    val stored = Seq(Point(Long.MinValue, -0.0, Double.MinPositiveValue), Point(Long.MaxValue, 1e300, -1e-300))
    stored.foreach(b.add)
    stored.indices.foreach { i =>
      val p = b.point(i)
      assert(p.id === stored(i).id)
      assert(java.lang.Double.doubleToRawLongBits(p.x) === java.lang.Double.doubleToRawLongBits(stored(i).x))
      assert(java.lang.Double.doubleToRawLongBits(p.y) === java.lang.Double.doubleToRawLongBits(stored(i).y))
    }
    intercept[IndexOutOfBoundsException](b.point(2))
    intercept[IndexOutOfBoundsException](b.point(-1))
  }

  test("removeAt on the last slot and on the only slot") {
    val s = store()
    val b = s.allocate(0, inserted = false)
    b.add(Point(1, 0.1, 0.1)); b.add(Point(2, 0.2, 0.2)); b.add(Point(3, 0.3, 0.3))
    b.removeAt(2)
    assert(b.points === Seq(Point(1, 0.1, 0.1), Point(2, 0.2, 0.2)))
    val only = s.allocate(1, inserted = false)
    only.add(Point(4, 0.4, 0.4))
    only.removeAt(0)
    assert(only.size === 0 && only.indexOf(0.4, 0.4) === -1)
    intercept[IndexOutOfBoundsException](only.removeAt(0))
    only.add(Point(5, 0.5, 0.5)) // the freed slot is reused
    assert(only.points === Seq(Point(5, 0.5, 0.5)))
  }

  test("filterInto includes points on the window's edges and corners") {
    val s = store(8)
    val b = s.allocate(0, inserted = false)
    val r = Rect(0.2, 0.2, 0.6, 0.6)
    val inside = Seq(Point(1, 0.2, 0.4), Point(2, 0.6, 0.3), Point(3, 0.4, 0.2), Point(4, 0.5, 0.6),
                     Point(5, 0.2, 0.2), Point(6, 0.6, 0.6), Point(7, 0.4, 0.4))
    val outside = Seq(Point(8, 0.6000000000000001, 0.4))
    (inside ++ outside).foreach(b.add)
    val out = scala.collection.mutable.ArrayBuffer.empty[Point]
    b.filterInto(r, out)
    assert(out.toSeq === inside)
  }

  test("packOriginals allocates each block at its final size") {
    val s = store(40)
    s.packOriginals(Array.tabulate(90)(i => Point(i, i * 0.01, i * 0.01)))
    assert((0 until s.numBlocks).map(s.peek(_).size) === Seq(40, 40, 10))
    (0 until s.numBlocks).foreach { b =>
      val blk = s.peek(b)
      assert(blk.ord === b && !blk.inserted)
      assert(blk.xs.length === blk.size && blk.ys.length === blk.size && blk.ids.length === blk.size)
    }
    assert(s.peek(2).point(9) === Point(89, 0.89, 0.89))
    // A later insert into the tail block grows its columns, capped at capacity.
    (0 until 30).foreach(i => s.peek(2).add(Point(100 + i, 0.5, 0.5)))
    assert(s.peek(2).isFull && s.peek(2).xs.length === 40)
  }

  test("read counts accesses, peek does not") {
    val s = store()
    s.allocate(0, inserted = false)
    s.peek(0)
    assert(s.accesses === 0)
    s.read(0); s.read(0)
    assert(s.accesses === 2)
    s.resetAccesses()
    assert(s.accesses === 0)
  }

  test("chainOriginals links blocks in ID order") {
    val s = store()
    (0 until 5).foreach(i => s.allocate(i, inserted = false))
    s.chainOriginals()
    assert(s.originalCount === 5)
    assert(s.peek(0).next === 1)
    assert(s.peek(3).next === 4)
    assert(s.peek(4).next === -1)
  }

  /** `n` original blocks of capacity 2, chained, each holding one point. */
  private def originals(n: Int): BlockStore = {
    val s = store(2)
    (0 until n).foreach(i => s.allocate(i, inserted = false).add(Point(i * 10, 0.1 * i, 0.1 * i)))
    s.chainOriginals()
    s
  }

  test("appendToGroup splices overflow blocks into the chain after the group") {
    val s = originals(3)
    s.appendToGroup(1, Point(11, 0.11, 0.11)) // block 1 has room
    assert(s.numBlocks === 3)
    s.appendToGroup(1, Point(12, 0.12, 0.12))
    val nb = s.peek(3)
    assert(nb.inserted && nb.ord === 1 && nb.size === 1)
    assert(s.peek(1).next === 3)
    assert(nb.next === 2)
    s.appendToGroup(1, Point(13, 0.13, 0.13)) // fills block 3
    s.appendToGroup(1, Point(14, 0.14, 0.14)) // opens block 4 after it
    assert(s.peek(3).size === 2)
    assert(s.peek(3).next === 4)
    assert(s.peek(4).ord === 1 && s.peek(4).next === 2)
    assert(s.originalCount === 3) // inserted blocks don't count as original
    assert(s.accesses === 0)
  }

  test("findInGroup reads the group's blocks up to the match, and no further") {
    val s = originals(3)
    val added = (11 to 14).map(i => Point(i, 0.01 * i, 0.01 * i))
    added.foreach(s.appendToGroup(1, _))
    val last = added.last
    val hit = s.findInGroup(1, last.x, last.y)
    assert(hit.found && hit.block === 4 && s.peek(4).point(hit.index) === last)
    assert(s.accesses === 3) // blocks 1, 3 and 4
    s.resetAccesses()
    assert(!s.findInGroup(1, 0.2, 0.2).found) // block 2's point lies outside group 1
    assert(s.accesses === 3)
    s.resetAccesses()
    assert(!s.findInGroup(2, last.x, last.y).found)
    assert(s.accesses === 1)
  }

  test("the range cursor follows overflow blocks and counts no access") {
    val s = originals(4)
    s.appendToGroup(1, Point(11, 0.11, 0.11))
    s.appendToGroup(1, Point(12, 0.12, 0.12))
    def walk(a: Int, b: Int): Seq[Int] = {
      val ids = Seq.newBuilder[Int]
      var blk = s.rangeStart(a)
      while (blk != null) { ids += blk.id; blk = s.rangeNext(blk, b) }
      ids.result()
    }
    assert(walk(1, 2) === Seq(1, 4, 2))
    assert(walk(0, 1) === Seq(0, 1, 4))
    assert(walk(-5, 9) === Seq(0, 1, 4, 2, 3))
    assert(walk(7, 9) === Seq(3))
    assert(s.accesses === 0)
    assert(new BlockStore(2).rangeStart(0) === null)
  }

  test("scanRange also charges the block that ends the range") {
    val s = originals(4)
    s.scanRange(1, 2) { _ => true }
    assert(s.accesses === 3)
    s.resetAccesses()
    s.scanRange(2, 3) { _ => true }
    assert(s.accesses === 2) // the chain ends at block 3
  }

  test("windowScan returns the range's points inside the window") {
    val s = originals(4)
    s.appendToGroup(1, Point(11, 0.11, 0.11))
    s.appendToGroup(1, Point(12, 0.12, 0.12))
    assert(s.windowScan(0, 2, Rect(0.05, 0.05, 0.25, 0.25)).map(_.id).toSet === Set(10L, 11L, 12L, 20L))
    assert(s.windowScan(2, 3, Rect(0.05, 0.05, 0.25, 0.25)).map(_.id).toSet === Set(20L))
  }

  test("scanRange visits originals in range plus chained inserted blocks") {
    val s = originals(4)
    s.peek(1).add(Point(11, 0.11, 0.11))
    s.appendToGroup(1, Point(999, 0.15, 0.15))
    val nb = s.peek(4)
    val visited = scala.collection.mutable.ArrayBuffer.empty[Int]
    s.scanRange(0, 2) { b => visited += b.id; true }
    assert(visited.toSeq === Seq(0, 1, nb.id, 2))
  }

  test("scanRange stops when the visitor returns false") {
    val s = store()
    (0 until 5).foreach(i => s.allocate(i, inserted = false))
    s.chainOriginals()
    var cnt = 0
    s.scanRange(0, 4) { _ => cnt += 1; cnt < 2 }
    assert(cnt === 2)
  }

  test("scanRange clamps out-of-range bounds") {
    val s = store()
    (0 until 3).foreach(i => s.allocate(i, inserted = false))
    s.chainOriginals()
    var cnt = 0
    s.scanRange(-5, 100) { _ => cnt += 1; true }
    assert(cnt === 3)
  }

  test("allPoints returns live points across all blocks") {
    val s = store(2)
    val b0 = s.allocate(0, inserted = false)
    b0.add(Point(1, 0.1, 0.1)); b0.add(Point(2, 0.2, 0.2))
    val b1 = s.allocate(1, inserted = false)
    b1.add(Point(3, 0.3, 0.3))
    b1.removeAt(0)
    assert(s.allPoints.map(_.id).toSet === Set(1L, 2L))
  }

  test("sizeBytes grows with stored points") {
    val s = store(10)
    val empty = s.sizeBytes
    val b = s.allocate(0, inserted = false)
    (1 to 5).foreach(i => b.add(Point(i, 0.1, 0.1)))
    assert(s.sizeBytes > empty)
  }
}

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
    assert(b.point(0).id === 3) // last swapped in
    assert(b.indexOf(0.1, 0.1) === -1)
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

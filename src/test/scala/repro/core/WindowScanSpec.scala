package repro.core

import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ZmIndex
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Block, BlockStore, Point, Rect}

/** The window scan's block-MBR gate (`Block.filterInto`): a block whose
  * MBR misses the window appends nothing and one whose MBR lies inside
  * it appends all its points untested. Every check compares against a
  * per-point filter over the block's live slots, which the gate must
  * match point for point and in order, and every query path must charge
  * the blocks the per-point walk charges.
  */
class WindowScanSpec extends AnyFunSuite {

  /** The live points of `blk` inside `r`, edges included, in slot order,
    * by testing each point.
    */
  private def perPoint(blk: Block, r: Rect): Seq[Point] =
    (0 until blk.size).map(blk.point).filter(p => p.x >= r.xlo && p.x <= r.xhi && p.y >= r.ylo && p.y <= r.yhi)

  private def filtered(blk: Block, r: Rect): Seq[Point] = {
    val out = ArrayBuffer.empty[Point]
    blk.filterInto(r, out)
    out.toSeq
  }

  private val whole = Seq(
    Rect(Double.NegativeInfinity, Double.NegativeInfinity, Double.PositiveInfinity, Double.PositiveInfinity),
    Rect(-1.0, -1.0, 2.0, 2.0), Rect.unit)

  /** Windows placed around `m`, a block's MBR: disjoint on each side,
    * touching each edge and a corner exactly from outside, straddling,
    * inside, equal and containing, zero-width, inverted, and the whole
    * space.
    */
  private def windowsAround(m: Rect): Seq[Rect] = {
    val w = math.max(m.xhi - m.xlo, 1e-6); val h = math.max(m.yhi - m.ylo, 1e-6)
    val cx = m.centerX; val cy = m.centerY
    Seq(
      // disjoint on each side
      Rect(m.xhi + w, m.ylo, m.xhi + 2 * w, m.yhi), Rect(m.xlo - 2 * w, m.ylo, m.xlo - w, m.yhi),
      Rect(m.xlo, m.yhi + h, m.xhi, m.yhi + 2 * h), Rect(m.xlo, m.ylo - 2 * h, m.xhi, m.ylo - h),
      // touching one edge exactly, from outside
      Rect(m.xhi, m.ylo - h, m.xhi + w, m.yhi + h), Rect(m.xlo - w, m.ylo - h, m.xlo, m.yhi + h),
      Rect(m.xlo - w, m.yhi, m.xhi + w, m.yhi + h), Rect(m.xlo - w, m.ylo - h, m.xhi + w, m.ylo),
      // touching a corner only, and just missing an edge
      Rect(m.xhi, m.yhi, m.xhi + w, m.yhi + h), Rect(math.nextUp(m.xhi), m.ylo, m.xhi + w, m.yhi),
      // straddling each edge, and inside
      Rect(cx, m.ylo - h, m.xhi + w, m.yhi + h), Rect(m.xlo - w, m.ylo - h, cx, m.yhi + h),
      Rect(m.xlo - w, cy, m.xhi + w, m.yhi + h), Rect(m.xlo - w, m.ylo - h, m.xhi + w, cy),
      Rect(cx - w / 4, cy - h / 4, cx + w / 4, cy + h / 4),
      // equal, containing, and equal but for one edge pulled in by an ulp
      m, Rect(m.xlo - w, m.ylo - h, m.xhi + w, m.yhi + h),
      Rect(m.xlo, m.ylo, math.nextDown(m.xhi), m.yhi), Rect(math.nextUp(m.xlo), m.ylo, m.xhi, m.yhi),
      // zero-width and zero-height lines through the MBR, and its corner point
      Rect(cx, m.ylo - h, cx, m.yhi + h), Rect(m.xlo, m.ylo - h, m.xlo, m.yhi + h),
      Rect(m.xlo - w, m.yhi, m.xhi + w, m.yhi), Rect(m.xhi, m.yhi, m.xhi, m.yhi),
      // inverted on x, on y, and on both
      Rect(m.xhi + w, m.ylo - h, m.xlo - w, m.yhi + h), Rect(m.xlo - w, m.yhi + h, m.xhi + w, m.ylo - h),
      Rect(m.xhi, m.yhi, m.xlo, m.ylo)
    ) ++ whole
  }

  /** Windows through the points of `blk`: a zero-size window on each of
    * a few points, and a window with a point on each of its edges.
    */
  private def windowsOnPoints(blk: Block): Seq[Rect] = {
    val pts = (0 until blk.size).map(blk.point)
    pts.take(3).map(p => Rect(p.x, p.y, p.x, p.y)) ++ (if (pts.length < 2) Nil else {
      val a = pts.head; val b = pts.last
      Seq(Rect(math.min(a.x, b.x), math.min(a.y, b.y), math.max(a.x, b.x), math.max(a.y, b.y)))
    })
  }

  private def assertGateMatches(s: BlockStore, extra: Seq[Rect]): Unit =
    (0 until s.numBlocks).foreach { id =>
      val blk = s.peek(id)
      val live = (0 until blk.size).map(blk.point)
      assert(live.forall(p => blk.mbr.contains(p)), s"block $id: MBR ${blk.mbr} misses a live point")
      (windowsAround(blk.mbr) ++ windowsOnPoints(blk) ++ extra).foreach { r =>
        assert(filtered(blk, r) === perPoint(blk, r), s"block $id (MBR ${blk.mbr}) window $r")
      }
    }

  test("filterInto equals the per-point filter on every kind of block and window") {
    val s = new BlockStore(8)
    val rnd = new java.util.Random(21)
    s.packOriginals(Array.tabulate(60)(i => Point(i, rnd.nextDouble(), rnd.nextDouble())))
    s.chainOriginals()
    // Overflow blocks: more points than block 2 has room for, some on
    // its MBR's edges, some far outside.
    val m2 = s.peek(2).mbr
    Seq(Point(100, m2.xlo, m2.centerY), Point(101, m2.xhi, m2.yhi), Point(102, 0.0, 0.0), Point(103, 1.0, 1.0))
      .foreach(s.appendToGroup(2, _))
    (0 until 14).foreach(i => s.appendToGroup(2, Point(200 + i, m2.centerX + i * 1e-3, m2.centerY - i * 1e-3)))
    assert(s.numBlocks - s.originalCount === 3)
    // A block emptied by removeAt keeps its MBR; one that lost its
    // extreme points keeps the old, wider MBR.
    val emptied = s.peek(4)
    val keptMbr = emptied.mbr
    while (emptied.size > 0) emptied.removeAt(0)
    assert(emptied.mbr === keptMbr && !keptMbr.isEmpty)
    val thinned = s.peek(5)
    thinned.removeAt(thinned.size - 1); thinned.removeAt(0)
    // A block that was never filled has the empty MBR.
    val never = s.allocate(3, inserted = true)
    assert(never.size === 0 && never.mbr === Rect.empty)

    val fixed = Seq(Rect(0.2, 0.2, 0.6, 0.6), Rect(0.5, 0.0, 0.5, 1.0), Rect(0.9, 0.9, 0.1, 0.1))
    assertGateMatches(s, fixed)
    assert(filtered(emptied, keptMbr).isEmpty && filtered(never, whole.head).isEmpty)
    assert(s.accesses === 0)
  }

  // ---------------------------------------------------------------------
  // Whole query paths over built indexes with overflow chains and deletes.

  /** 1 500 inserts in 15 tight clusters around base points, so some
    * groups chain overflow blocks.
    */
  private def clusteredInserts(base: Array[Point]): Array[Point] = {
    val rnd = new java.util.Random(17)
    Array.tabulate(1500) { i =>
      val a = base((i / 100) * (base.length / 15))
      Point(5000000L + i, math.min(0.999999, a.x + rnd.nextDouble() * 2e-3), math.min(0.999999, a.y + rnd.nextDouble() * 2e-3))
    }
  }

  /** Windows at three sizes around live points, the MBRs of a few
    * blocks, and degenerate windows.
    */
  private def queryWindows(live: Array[Point], s: BlockStore): Seq[Rect] = {
    val centers = SpatialData.queryCenters(live, 40, seed = 19).toSeq
    centers.flatMap(c => Seq(1e-5, 1e-3, 0.01).map(Harness.window(c.x, c.y, _))) ++
      (0 until s.numBlocks by 7).map(s.peek(_).mbr).filter(!_.isEmpty) ++
      centers.take(5).flatMap(c => Seq(Rect(c.x, c.y, c.x, c.y), Rect(c.x, 0.0, c.x, 1.0), Rect(c.x + 0.01, c.y, c.x, c.y + 0.01))) ++
      whole
  }

  /** Per-point filter of the blocks `scanRange` visits over `range`, in order. */
  private def alg2Reference(s: BlockStore, range: (Int, Int), r: Rect): Seq[Point] = {
    val out = ArrayBuffer.empty[Point]
    s.scanRange(range._1, range._2) { blk => out ++= perPoint(blk, r); true }
    out.toSeq
  }

  /** RSMIa's walk with the per-point filter: sub-models whose MBR meets
    * `r`, then, at each leaf, every block whose MBR meets it.
    */
  private def exactReference(idx: Rsmi, r: Rect): Seq[Point] = {
    val out = ArrayBuffer.empty[Point]
    def walk(nd: RsmiNode): Unit = nd match {
      case in: InternalNode => in.children.foreach(ch => if (ch != null && ch.mbr.intersects(r)) walk(ch))
      case lf: LeafNode =>
        var blk = idx.store.rangeStart(lf.firstBlk)
        while (blk != null) {
          if (blk.mbr.intersects(r)) out ++= perPoint(idx.store.read(blk.id), r)
          blk = idx.store.rangeNext(blk, lf.lastBlk)
        }
    }
    walk(idx.root)
    out.toSeq
  }

  /** The answer of `query` and of `reference` on `r`, and the block
    * accesses of each, must be equal.
    */
  private def assertSameAsReference(s: BlockStore, r: Rect, what: String)
                                   (query: Rect => Seq[Point], reference: Rect => Seq[Point]): Unit = {
    s.resetAccesses()
    val got = query(r)
    val gotAccesses = s.accesses
    s.resetAccesses()
    val want = reference(r)
    assert(got === want, s"$what window $r")
    assert(gotAccesses === s.accesses, s"$what window $r")
  }

  /** Inserts [[clusteredInserts]] of `base`, then deletes 300 points
    * drawn from base and inserts; returns the live points.
    */
  private def updated(base: Array[Point], seed: Long)
                     (insert: Point => Unit, delete: (Double, Double) => Boolean): Array[Point] = {
    val extra = clusteredInserts(base)
    extra.foreach(insert)
    val rnd = new java.util.Random(seed)
    val all = base ++ extra
    val gone = (0 until 300).map(_ => all(rnd.nextInt(all.length))).distinct
    gone.foreach(p => assert(delete(p.x, p.y), s"could not delete $p"))
    val goneIds = gone.map(_.id).toSet
    all.filterNot(p => goneIds(p.id))
  }

  for (dist <- Seq(SpatialData.Skewed, SpatialData.OsmLike)) {
    lazy val base = SpatialData.local(dist, 6000, seed = 23)

    test(s"$dist: RSMI Alg 2 and RSMIa windows equal the per-point walk after inserts and deletes") {
      val idx = RsmiBuilder.build(base, RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30))
      val live = updated(base, 29)(idx.insert, idx.delete)
      val s = idx.store
      assert(s.numBlocks > s.originalCount, "no overflow block")
      assertGateMatches(s, Nil)
      queryWindows(live, s).foreach { r =>
        assertSameAsReference(s, r, "RSMI")(idx.windowQuery, r => alg2Reference(s, idx.windowRange(r), r))
        assertSameAsReference(s, r, "RSMIa")(idx.windowQueryExact, exactReference(idx, _))
        assert(idx.windowQueryExact(r).map(_.id).toSet === Harness.truthWindow(live, r), s"RSMIa window $r")
      }
    }

    test(s"$dist: ZM Alg 2 windows equal the per-point walk after inserts and deletes") {
      val z = ZmIndex.build(base, B = 50, epochs = 30)
      val live = updated(base, 31)(z.insert, z.delete)
      val s = z.store
      assert(s.numBlocks > s.originalCount, "no overflow block")
      assertGateMatches(s, Nil)
      queryWindows(live, s).foreach { r =>
        assertSameAsReference(s, r, "ZM")(z.windowQuery, r => alg2Reference(s, z.windowRange(r), r))
      }
    }
  }
}

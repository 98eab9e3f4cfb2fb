package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ZmIndex
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{BlockStore, Point, Rect}

/** Overflow chains (§5): groups several blocks deep, and the block
  * accesses every query path charges when it meets them. Error bounds
  * cover original blocks only, so each walk over a group or a range of
  * original blocks has to follow the chain of inserted blocks behind it.
  */
class OverflowChainSpec extends AnyFunSuite {

  private val B = 20

  /** 4·B distinct points a hair apart around `anchor`: they share a
    * predicted block, so its group grows by at least three overflow
    * blocks.
    */
  private def cluster(anchor: Point): Array[Point] =
    Array.tabulate(4 * B)(i => Point(9000000 + i, anchor.x + (i + 1) * 1e-9, anchor.y + (i + 1) * 1e-9))

  /** Block ids of group `g`: `g` and the inserted blocks chained after it. */
  private def group(s: BlockStore, g: Int): Seq[Int] = {
    val ids = Seq.newBuilder[Int]
    ids += g
    var cur = s.peek(g).next
    while (cur >= 0 && s.peek(cur).inserted && s.peek(cur).ord == s.peek(g).ord) { ids += cur; cur = s.peek(cur).next }
    ids.result()
  }

  /** The group holding point id `id`, among the original blocks. */
  private def groupOf(s: BlockStore, id: Long): Seq[Int] =
    (0 until s.originalCount).iterator.map(group(s, _))
      .find(_.exists(b => s.peek(b).points.exists(_.id == id))).get

  /** The chain from block 0 reaches every block once, in non-decreasing `ord`. */
  private def assertChainOrdered(s: BlockStore): Unit = {
    val ords = Seq.newBuilder[Int]
    var cur = 0
    while (cur >= 0) { ords += s.peek(cur).ord; cur = s.peek(cur).next }
    val seq = ords.result()
    assert(seq.length === s.numBlocks)
    assert(seq === seq.sorted)
  }

  /** Deletes a point from the middle of the deep group and checks that
    * only it goes missing.
    */
  private def deleteFromMiddle(s: BlockStore, deep: Seq[Int], live: Array[Point],
                               find: (Double, Double) => Option[Point],
                               delete: (Double, Double) => Boolean): Unit = {
    val mid = s.peek(deep(deep.length / 2))
    val victim = mid.point(mid.size / 2)
    assert(delete(victim.x, victim.y))
    assert(find(victim.x, victim.y).isEmpty)
    live.filter(_.id != victim.id).foreach(p => assert(find(p.x, p.y).contains(p), s"lost $p"))
  }

  private lazy val base = SpatialData.local(SpatialData.Uniform, 2000, seed = 3)

  test("RSMI: a group three overflow blocks deep keeps point, exact window and exact kNN answers") {
    val idx = RsmiBuilder.build(base, RsmiConfig(B = B, N = 400, leafEpochs = 30, internalEpochs = 30))
    val extra = cluster(base(777))
    extra.foreach(idx.insert)
    val deep = groupOf(idx.store, extra.head.id)
    assert(deep.length >= 4, s"group $deep")
    assert(extra.forall(p => deep.exists(b => idx.store.peek(b).points.contains(p))))
    assertChainOrdered(idx.store)

    val all = base ++ extra
    all.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p), s"missing $p"))
    val a = base(777)
    val windows = Rect(a.x - 1e-7, a.y - 1e-7, a.x + 4e-8, a.y + 4e-8) +:
      Harness.window(a.x, a.y, 0.001) +:
      SpatialData.queryCenters(all, 15).map(c => Harness.window(c.x, c.y, 0.005)).toSeq
    windows.foreach { r =>
      assert(idx.windowQueryExact(r).map(_.id).toSet === Harness.truthWindow(all, r))
    }
    def d2s(ps: Seq[Point], q: Point) = ps.map(_.dist2(q.x, q.y)).sorted
    (a +: SpatialData.queryCenters(all, 10).toSeq).foreach { q =>
      Seq(5, 2 * B, 6 * B).foreach { k =>
        assert(d2s(idx.knnQueryExact(q.x, q.y, k), q) === Harness.truthKnn(all, q.x, q.y, k).dist2s)
      }
    }

    deleteFromMiddle(idx.store, deep, all, idx.pointQuery, idx.delete)
    assertChainOrdered(idx.store)
  }

  test("ZM: a group three overflow blocks deep keeps point answers and deletes") {
    val z = ZmIndex.build(base, B = B, epochs = 30)
    val extra = cluster(base(777))
    extra.foreach(z.insert)
    val deep = groupOf(z.store, extra.head.id)
    assert(deep.length >= 4, s"group $deep")
    assert(extra.forall(p => deep.exists(b => z.store.peek(b).points.contains(p))))
    assertChainOrdered(z.store)

    val all = base ++ extra
    all.foreach(p => assert(z.pointQuery(p.x, p.y).contains(p), s"missing $p"))
    deleteFromMiddle(z.store, deep, all, z.pointQuery, z.delete)
    assertChainOrdered(z.store)
  }

  // ---------------------------------------------------------------------
  // Pinned block accesses. The block-access columns of the bench suites
  // (Fig 6, Fig 8, Table 3) rest on what each query path charges, so a
  // change to how a path walks the chain must leave these totals as they are.

  private lazy val mixBase = SpatialData.local(SpatialData.OsmLike, 3000, seed = 5)
  private lazy val mixExtra = SpatialData.local(SpatialData.OsmLike, 1500, seed = 6).map(p => p.copy(id = p.id + 1000000))

  /** Accesses per operation kind over a fixed seeded mix: 300 point
    * queries (50 of absent points), one run per query kind over 40
    * windows/kNN centres, then 200 deletes (some repeated, so missing).
    */
  private def mix(pointQuery: (Double, Double) => Unit,
                  queries: Seq[(String, Point => Unit)],
                  delete: (Double, Double) => Unit,
                  accesses: () => Long, reset: () => Unit): Seq[(String, Long)] = {
    val all = mixBase ++ mixExtra
    val rnd = new java.util.Random(11)
    def counted(kind: String)(body: => Unit): (String, Long) = { reset(); body; kind -> accesses() }
    val centers = SpatialData.queryCenters(all, 40, seed = 13)
    counted("point") {
      (0 until 250).foreach { _ => val p = all(rnd.nextInt(all.length)); pointQuery(p.x, p.y) }
      (0 until 50).foreach { _ => pointQuery(rnd.nextDouble(), rnd.nextDouble()) }
    } +: queries.map { case (kind, q) => counted(kind)(centers.foreach(q)) } :+
    counted("delete") {
      (0 until 200).foreach { _ => val p = all(rnd.nextInt(all.length)); delete(p.x, p.y) }
    }
  }

  test("RSMI block accesses over overflow chains are pinned per query kind") {
    val idx = RsmiBuilder.build(mixBase, RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40))
    mixExtra.foreach(idx.insert)
    assert(idx.store.numBlocks - idx.store.originalCount === 59) // overflow blocks
    val got = mix(idx.pointQuery(_, _),
      Seq("window"      -> (c => idx.windowQuery(Harness.window(c.x, c.y, 0.005))),
          "windowExact" -> (c => idx.windowQueryExact(Harness.window(c.x, c.y, 0.005))),
          "knn"         -> (c => idx.knnQuery(c.x, c.y, 10)),
          "knnExact"    -> (c => idx.knnQueryExact(c.x, c.y, 10))),
      idx.delete(_, _), () => idx.blockAccesses, () => idx.resetCounters())
    assert(got === Seq("point" -> 1067L, "window" -> 763L, "windowExact" -> 357L,
                       "knn" -> 298L, "knnExact" -> 264L, "delete" -> 809L))
  }

  test("ZM block accesses over overflow chains are pinned per query kind") {
    val z = ZmIndex.build(mixBase, B = 50, epochs = 40)
    mixExtra.foreach(z.insert)
    assert(z.store.numBlocks - z.store.originalCount === 71) // overflow blocks
    val got = mix(z.pointQuery(_, _),
      Seq("window" -> (c => z.windowQuery(Harness.window(c.x, c.y, 0.005))),
          "knn"    -> (c => z.knnQuery(c.x, c.y, 10))),
      z.delete(_, _), () => z.blockAccesses, () => z.resetCounters())
    assert(got === Seq("point" -> 1351L, "window" -> 1227L, "knn" -> 483L, "delete" -> 877L))
  }
}

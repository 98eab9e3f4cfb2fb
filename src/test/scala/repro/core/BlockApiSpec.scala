package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{BlockStore, Point}

/** The block API that code outside the library builds on: a built index
  * copied block by block through `allocate`/`add`/`point` and
  * `chainOriginals` (the way the `rsmibench` benchmark starts each
  * update cycle from a fresh copy) must answer like the original. A
  * block-layout change that breaks that API fails here first.
  */
class BlockApiSpec extends AnyFunSuite {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40)

  /** A copy of a freshly built index through the public block API. */
  private def copyIndex(idx: Rsmi): Rsmi = {
    val src = idx.store
    assert(src.numBlocks === src.originalCount)
    val store = new BlockStore(src.capacity)
    var g = 0
    while (g < src.numBlocks) {
      val b = src.peek(g)
      val nb = store.allocate(b.ord, inserted = false)
      assert(nb.id === b.id && !nb.inserted)
      var i = 0
      while (i < b.size) { nb.add(b.point(i)); i += 1 }
      assert(nb.size === b.size && nb.mbr === b.mbr && nb.isFull === b.isFull)
      g += 1
    }
    store.chainOriginals()
    def node(nd: RsmiNode): RsmiNode = nd match {
      case in: InternalNode =>
        new InternalNode(in.model, in.gridDim, in.children.map(c => if (c == null) null else node(c)), in.mbr)
      case lf: LeafNode => new LeafNode(lf.model, lf.firstBlk, lf.numBlks, lf.errL, lf.errA, lf.mbr)
    }
    new Rsmi(node(idx.root), store, idx.pmfX, idx.pmfY, idx.cfg, idx.buildCardinality)
  }

  private val pts = SpatialData.local(SpatialData.OsmLike, 5000)
  private val built = RsmiBuilder.build(pts, cfg)
  private val copy = copyIndex(built)

  test("the copy keeps every block's points, slot for slot, and the chain") {
    assert(copy.store.numBlocks === built.store.numBlocks)
    assert(copy.store.originalCount === built.store.originalCount)
    (0 until built.store.numBlocks).foreach { b =>
      val (x, y) = (built.store.peek(b), copy.store.peek(b))
      assert(y.ord === x.ord && y.next === x.next)
      (0 until x.size).foreach { i =>
        assert(y.point(i) === x.point(i))
        assert(y.indexOf(x.point(i).x, x.point(i).y) === i)
      }
    }
  }

  test("the copy answers every point query") {
    pts.foreach(p => assert(copy.pointQuery(p.x, p.y).contains(p), s"missing $p"))
  }

  test("the copy matches brute force on RSMIa windows and the original on Alg 3 kNN") {
    SpatialData.queryCenters(pts, 25).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(copy.windowQueryExact(r).map(_.id).toSet === Harness.truthWindow(pts, r).map(_.id).toSet)
      val viaCallback = ExpandingKnn.knn(copy.store, copy.pmfX, copy.pmfY, copy.cardinality, copy.cfg.delta,
        q.x, q.y, 10)(copy.windowRange)
      assert(viaCallback === built.knnQuery(q.x, q.y, 10))
    }
  }

  test("inserts into the copy leave the original untouched") {
    val c = copyIndex(built)
    val extra = (0 until 2 * cfg.B).map(i => Point(900000L + i, 0.3 + i * 1e-9, 0.3))
    extra.foreach(c.insert)
    extra.foreach(p => assert(c.pointQuery(p.x, p.y).contains(p)))
    assert(c.store.numBlocks > built.store.numBlocks)
    extra.foreach(p => assert(built.pointQuery(p.x, p.y).isEmpty))
  }
}

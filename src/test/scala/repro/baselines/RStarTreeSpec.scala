package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

class RStarTreeSpec extends AnyFunSuite {

  private def buildOn(dist: SpatialData.Dist, n: Int = 3000) = {
    val pts = SpatialData.local(dist, n)
    (pts, RStarTree.build(pts, B = 50))
  }

  test("point query finds every inserted point") {
    for (d <- Seq(SpatialData.Uniform, SpatialData.Skewed)) {
      val (pts, t) = buildOn(d, 2500)
      pts.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p), s"dist=$d"))
    }
  }

  test("point query misses absent points") {
    val (_, t) = buildOn(SpatialData.Uniform, 500)
    assert(t.pointQuery(0.424242, 0.242424).isEmpty)
  }

  test("window query is exact") {
    val (pts, t) = buildOn(SpatialData.Normal)
    SpatialData.queryCenters(pts, 20).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(t.windowQuery(r).map(_.id).toSet ===
             Harness.truthWindow(pts, r))
    }
  }

  test("kNN is exact (best-first)") {
    val (pts, t) = buildOn(SpatialData.OsmLike)
    SpatialData.queryCenters(pts, 20).foreach { q =>
      assert(t.knnQuery(q.x, q.y, 10).map(_.dist2(q.x, q.y)) === Harness.truthKnn(pts, q.x, q.y, 10).dist2s)
    }
  }

  test("nodes never exceed capacity B") {
    val (_, t) = buildOn(SpatialData.Skewed, 3000)
    def walk(n: BlockTree.Node): Unit = n match {
      case lf: BlockTree.Leaf  => assert(lf.pts.length <= 50)
      case in: BlockTree.Inner =>
        assert(in.children.length <= 50)
        in.children.foreach(walk)
    }
    walk(t.root)
  }

  test("splits respect the 40% minimum fill") {
    val (_, t) = buildOn(SpatialData.Uniform, 3000)
    def walk(n: BlockTree.Node, isRoot: Boolean): Unit = n match {
      case lf: BlockTree.Leaf =>
        if (!isRoot) assert(lf.pts.length >= 1)
      case in: BlockTree.Inner =>
        if (!isRoot) assert(in.children.length >= 2)
        in.children.foreach(walk(_, isRoot = false))
    }
    walk(t.root, isRoot = true)
  }

  test("MBRs contain their subtrees") {
    val (_, t) = buildOn(SpatialData.TigerLike, 2000)
    def walk(n: BlockTree.Node): Unit = n match {
      case lf: BlockTree.Leaf =>
        lf.pts.foreach(p => assert(lf.mbr.contains(p)))
      case in: BlockTree.Inner =>
        in.children.foreach { c =>
          assert(in.mbr.containsRect(c.mbr))
          walk(c)
        }
    }
    walk(t.root)
  }

  test("incremental inserts after build stay queryable") {
    val (_, t) = buildOn(SpatialData.Uniform, 1500)
    val extra = SpatialData.local(SpatialData.Normal, 800, seed = 53)
      .map(p => p.copy(id = p.id + 9000000))
    extra.foreach(t.insert)
    extra.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p)))
  }

  test("empty tree point query returns None") {
    val t = new RStarTree(50)
    assert(t.pointQuery(0.5, 0.5).isEmpty)
    assert(t.windowQuery(Rect(0, 0, 1, 1)).isEmpty)
  }

  test("single point tree answers all query types") {
    val t = new RStarTree(50)
    val p = Point(1, 0.5, 0.5)
    t.insert(p)
    assert(t.pointQuery(0.5, 0.5).contains(p))
    assert(t.windowQuery(Rect(0, 0, 1, 1)) === Seq(p))
    assert(t.knnQuery(0.1, 0.1, 1) === Seq(p))
  }
}

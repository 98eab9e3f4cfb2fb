package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

class HrrTreeSpec extends AnyFunSuite {

  private def buildOn(dist: SpatialData.Dist, n: Int = 4000) = {
    val pts = SpatialData.local(dist, n)
    (pts, HrrTree.build(pts, B = 50))
  }

  test("point query finds every indexed point") {
    for (d <- Seq(SpatialData.Uniform, SpatialData.Skewed, SpatialData.OsmLike)) {
      val (pts, t) = buildOn(d, 3000)
      pts.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p), s"dist=$d missing $p"))
    }
  }

  test("point query misses absent points") {
    val (_, t) = buildOn(SpatialData.Uniform, 500)
    assert(t.pointQuery(0.333333, 0.777777).isEmpty)
  }

  test("window query is exact") {
    val (pts, t) = buildOn(SpatialData.TigerLike)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(t.windowQuery(r).map(_.id).toSet ===
             Harness.truthWindow(pts, r))
    }
  }

  test("kNN is exact (best-first)") {
    val (pts, t) = buildOn(SpatialData.Skewed)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      assert(t.knnQuery(q.x, q.y, 10).map(_.dist2(q.x, q.y)) === Harness.truthKnn(pts, q.x, q.y, 10).dist2s)
    }
  }

  test("bulk-loaded height matches ceil(log_B) packing") {
    // 4000 pts @ B=50 → 80 leaves → 2 inner nodes → root: height 3.
    val (_, t) = buildOn(SpatialData.Uniform, 4000)
    assert(t.height === 3)
    // 100 pts → 2 leaves → root: height 2.
    val (_, t2) = buildOn(SpatialData.Uniform, 100)
    assert(t2.height === 2)
    // 40 pts → a single leaf root: height 1.
    val (_, t3) = buildOn(SpatialData.Uniform, 40)
    assert(t3.height === 1)
  }

  test("leaves hold at most B points (packing invariant)") {
    val (_, t) = buildOn(SpatialData.Normal, 3210)
    def walk(n: HrrTree.Node): Unit = n match {
      case lf: HrrTree.Leaf  => assert(lf.pts.length <= 50)
      case in: HrrTree.Inner => in.children.foreach(walk)
    }
    walk(t.root)
  }

  test("node MBRs contain their subtrees") {
    val (_, t) = buildOn(SpatialData.OsmLike, 2000)
    def walk(n: HrrTree.Node): Unit = n match {
      case lf: HrrTree.Leaf =>
        lf.pts.foreach(p => assert(lf.mbr.contains(p)))
      case in: HrrTree.Inner =>
        in.children.foreach { c =>
          assert(in.mbr.containsRect(c.mbr))
          walk(c)
        }
    }
    walk(t.root)
  }

  test("insert keeps points queryable through splits") {
    val (_, t) = buildOn(SpatialData.Uniform, 2000)
    val extra = SpatialData.local(SpatialData.Skewed, 1000, seed = 41)
      .map(p => p.copy(id = p.id + 7000000))
    extra.foreach(t.insert)
    extra.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p)))
  }

  test("window query after inserts is exact") {
    val (pts, t) = buildOn(SpatialData.Uniform, 1500)
    val extra = SpatialData.local(SpatialData.Uniform, 600, seed = 43)
      .map(p => p.copy(id = p.id + 7000000))
    extra.foreach(t.insert)
    val all = pts ++ extra
    SpatialData.queryCenters(all, 15).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      assert(t.windowQuery(r).map(_.id).toSet ===
             Harness.truthWindow(all, r))
    }
  }

  test("accesses include inner nodes") {
    val (pts, t) = buildOn(SpatialData.Uniform, 4000)
    t.resetCounters()
    t.pointQuery(pts(0).x, pts(0).y)
    assert(t.blockAccesses >= t.height)
  }
}

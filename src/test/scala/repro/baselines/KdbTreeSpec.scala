package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

class KdbTreeSpec extends AnyFunSuite {

  private def buildOn(dist: SpatialData.Dist, n: Int = 4000) = {
    val pts = SpatialData.local(dist, n)
    (pts, KdbTree.build(pts, B = 50))
  }

  test("point query finds every indexed point (Uniform)") {
    val (pts, t) = buildOn(SpatialData.Uniform)
    pts.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query finds every indexed point (Skewed)") {
    val (pts, t) = buildOn(SpatialData.Skewed)
    pts.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query finds every indexed point (Tiger-like)") {
    val (pts, t) = buildOn(SpatialData.TigerLike)
    pts.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query misses absent points") {
    val (_, t) = buildOn(SpatialData.Uniform, 500)
    assert(t.pointQuery(0.111111, 0.222222).isEmpty)
  }

  test("window query is exact across distributions") {
    for (d <- Seq(SpatialData.Uniform, SpatialData.Skewed, SpatialData.OsmLike)) {
      val (pts, t) = buildOn(d, 3000)
      SpatialData.queryCenters(pts, 15).foreach { q =>
        val r = Harness.window(q.x, q.y, 0.01)
        assert(t.windowQuery(r).map(_.id).toSet ===
               Harness.truthWindow(pts, r), s"dist=$d")
      }
    }
  }

  test("kNN is exact") {
    val (pts, t) = buildOn(SpatialData.Normal)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      assert(t.knnQuery(q.x, q.y, 8).map(_.dist2(q.x, q.y)) === Harness.truthKnn(pts, q.x, q.y, 8).dist2s)
    }
  }

  test("height is small for bulk-loaded trees (multiway nodes)") {
    val (_, t) = buildOn(SpatialData.Uniform, 4000)
    assert(t.height <= 4, s"height=${t.height}")
  }

  test("insert into non-full leaf keeps point queryable") {
    val (_, t) = buildOn(SpatialData.Uniform, 3000)
    val p = Point(888888, 0.31, 0.62)
    t.insert(p)
    assert(t.pointQuery(p.x, p.y).contains(p))
  }

  test("many inserts trigger leaf splits and stay queryable") {
    val (_, t) = buildOn(SpatialData.Uniform, 2000)
    val extra = SpatialData.local(SpatialData.Normal, 1000, seed = 31)
      .map(p => p.copy(id = p.id + 5000000))
    extra.foreach(t.insert)
    extra.foreach(p => assert(t.pointQuery(p.x, p.y).contains(p), s"missing $p"))
  }

  test("window query after inserts remains exact") {
    val (pts, t) = buildOn(SpatialData.Uniform, 2000)
    val extra = SpatialData.local(SpatialData.Uniform, 500, seed = 37)
      .map(p => p.copy(id = p.id + 5000000))
    extra.foreach(t.insert)
    val all = pts ++ extra
    SpatialData.queryCenters(all, 15).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      assert(t.windowQuery(r).map(_.id).toSet ===
             Harness.truthWindow(all, r))
    }
  }

  test("node accesses are counted") {
    val (pts, t) = buildOn(SpatialData.Uniform, 2000)
    t.resetCounters()
    t.pointQuery(pts(0).x, pts(0).y)
    assert(t.blockAccesses >= 2) // at least root + leaf
  }
}

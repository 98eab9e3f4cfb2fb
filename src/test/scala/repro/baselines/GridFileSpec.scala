package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ReferenceKnn
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

class GridFileSpec extends AnyFunSuite {

  private def buildOn(dist: SpatialData.Dist, n: Int = 4000) = {
    val pts = SpatialData.local(dist, n)
    (pts, GridFile.build(pts, B = 50))
  }

  test("grid dimension follows sqrt(n/B)") {
    val (_, g) = buildOn(SpatialData.Uniform, 5000)
    assert(g.dim === math.sqrt(5000.0 / 50).toInt)
  }

  test("point query finds every indexed point") {
    val (pts, g) = buildOn(SpatialData.Uniform)
    pts.foreach(p => assert(g.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query finds every point under skew") {
    val (pts, g) = buildOn(SpatialData.Skewed)
    pts.foreach(p => assert(g.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query misses absent points") {
    val (_, g) = buildOn(SpatialData.Uniform, 1000)
    assert(g.pointQuery(0.123456, 0.654321).isEmpty)
  }

  test("window query is exact") {
    val (pts, g) = buildOn(SpatialData.Normal)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(g.windowQuery(r).map(_.id).toSet ===
             Harness.truthWindow(pts, r))
    }
  }

  test("kNN is exact") {
    val (pts, g) = buildOn(SpatialData.OsmLike)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      assert(g.knnQuery(q.x, q.y, 10).map(_.dist2(q.x, q.y)) === Harness.truthKnn(pts, q.x, q.y, 10).dist2s)
    }
  }

  test("kNN reads the blocks of the reference heap walk and finds its distances") {
    for (dist <- Seq(SpatialData.OsmLike, SpatialData.Skewed)) {
      val (pts, g) = buildOn(dist)
      val extra = SpatialData.local(dist, 1000, seed = 6).map(p => p.copy(id = p.id + 1000000))
      extra.foreach(g.insert)
      for (k <- Seq(1, 5, 25, 125, 150); q <- SpatialData.queryCenters(pts ++ extra, 30)) {
        g.resetCounters()
        val got = g.knnQuery(q.x, q.y, k)
        val ref = ReferenceKnn.gridRings(g, q.x, q.y, k)
        assert(g.blockAccesses === ref.blocks, s"${dist.name} k=$k at $q")
        assert(got.map(_.dist2(q.x, q.y)) === ref.dist2s, s"${dist.name} k=$k at $q")
      }
    }
  }

  test("kNN with k larger than n returns everything") {
    val pts = SpatialData.local(SpatialData.Uniform, 30)
    val g = GridFile.build(pts, B = 10)
    assert(g.knnQuery(0.5, 0.5, 100).size === 30)
  }

  test("insert appends to the cell and point remains queryable") {
    val (_, g) = buildOn(SpatialData.Uniform, 2000)
    val p = Point(999999, 0.42, 0.58)
    g.insert(p)
    assert(g.pointQuery(p.x, p.y).contains(p))
    assert(g.windowQuery(Rect(0.4, 0.55, 0.45, 0.6)).exists(_.id == p.id))
  }

  test("block accesses on skewed data exceed those on uniform data") {
    // Random query sample: a point stored deep in an overflowing cell
    // needs several block reads; only skewed data overflows cells.
    val (ptsU, gU) = buildOn(SpatialData.Uniform, 5000)
    val (ptsS, gS) = buildOn(SpatialData.Skewed, 5000)
    gU.resetCounters()
    SpatialData.queryCenters(ptsU, 500).foreach(p => gU.pointQuery(p.x, p.y))
    gS.resetCounters()
    SpatialData.queryCenters(ptsS, 500).foreach(p => gS.pointQuery(p.x, p.y))
    assert(gS.blockAccesses > gU.blockAccesses)
  }

  test("sizeBytes includes the cell directory") {
    val (_, g) = buildOn(SpatialData.Uniform, 2000)
    assert(g.sizeBytes > 16L * g.dim * g.dim)
  }
}

package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

class ZmIndexSpec extends AnyFunSuite {

  private def buildOn(dist: SpatialData.Dist, n: Int = 4000) = {
    val pts = SpatialData.local(dist, n)
    (pts, ZmIndex.build(pts, B = 50, epochs = 60))
  }

  test("point query finds every indexed point (Uniform)") {
    val (pts, z) = buildOn(SpatialData.Uniform)
    pts.foreach(p => assert(z.pointQuery(p.x, p.y).contains(p), s"missing $p"))
  }

  test("point query finds every indexed point (Skewed)") {
    val (pts, z) = buildOn(SpatialData.Skewed)
    pts.foreach(p => assert(z.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query finds every indexed point (OSM-like)") {
    val (pts, z) = buildOn(SpatialData.OsmLike)
    pts.foreach(p => assert(z.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query misses absent points") {
    val (_, z) = buildOn(SpatialData.Uniform, 1000)
    assert(z.pointQuery(0.123321, 0.456654).isEmpty)
  }

  test("window query has no false positives") {
    val (pts, z) = buildOn(SpatialData.Normal)
    SpatialData.queryCenters(pts, 25).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      z.windowQuery(r).foreach(p => assert(r.contains(p)))
    }
  }

  test("window query recall is high") {
    val (pts, z) = buildOn(SpatialData.Uniform)
    val recalls = SpatialData.queryCenters(pts, 25).map { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      Harness.recall(z.windowQuery(r), Harness.truthWindow(pts, r))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.85, s"avg recall $avg")
  }

  test("kNN (via the shared expanding algorithm) has high recall") {
    val (pts, z) = buildOn(SpatialData.Uniform)
    val recalls = SpatialData.queryCenters(pts, 25).map { q =>
      Harness.truthKnn(pts, q.x, q.y, 10).recall(z.knnQuery(q.x, q.y, 10), q.x, q.y)
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.8, s"avg recall $avg")
  }

  test("error bounds are much larger on skewed than RSMI's (Table 4 shape)") {
    val pts = SpatialData.local(SpatialData.Skewed, 8000)
    val z = ZmIndex.build(pts, B = 50, epochs = 60)
    val rsmi = repro.core.RsmiBuilder.build(pts,
      repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 60, internalEpochs = 40))
    val (zl, za) = z.maxErrBounds
    val (rl, ra) = rsmi.maxErrBounds
    assert(zl + za > rl + ra, s"ZM ($zl,$za) vs RSMI ($rl,$ra)")
  }

  test("insert then find") {
    val (_, z) = buildOn(SpatialData.Uniform, 2000)
    val extra = SpatialData.local(SpatialData.Uniform, 300, seed = 61)
      .map(p => p.copy(id = p.id + 3000000))
    extra.foreach(z.insert)
    extra.foreach(p => assert(z.pointQuery(p.x, p.y).contains(p), s"missing inserted $p"))
  }

  test("inserted points appear in window queries") {
    val (_, z) = buildOn(SpatialData.Uniform, 2000)
    val p = Point(4000000, 0.501, 0.502)
    z.insert(p)
    assert(z.windowQuery(Rect(0.49, 0.49, 0.52, 0.52)).exists(_.id == p.id))
  }

  test("delete removes a point") {
    val (pts, z) = buildOn(SpatialData.Normal, 2000)
    val victim = pts(42)
    assert(z.delete(victim.x, victim.y))
    assert(z.pointQuery(victim.x, victim.y).isEmpty)
  }

  test("point query uses few accesses (binary search within error range)") {
    val (pts, z) = buildOn(SpatialData.Skewed, 6000)
    z.resetCounters()
    val sample = pts.take(1000)
    sample.foreach(p => z.pointQuery(p.x, p.y))
    val avg = z.blockAccesses.toDouble / sample.length
    // log2 of the error range, not the error range itself.
    assert(avg < 15, s"avg accesses $avg")
  }
}

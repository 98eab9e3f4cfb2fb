package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.spatial.{Point, Rect}

class HarnessSpec extends AnyFunSuite {

  test("recall of identical sets is 1") {
    val pts = Seq(Point(1, 0, 0), Point(2, 1, 1))
    assert(Harness.recall(pts, Set(1L, 2L)) === 1.0)
  }

  test("recall counts matched ids over truth size") {
    val got = Seq(Point(1, 0, 0), Point(3, 2, 2))
    assert(Harness.recall(got, Set(1L, 2L, 3L, 4L)) === 0.5)
  }

  test("recall of empty truth is 1 by convention") {
    assert(Harness.recall(Seq.empty, Set.empty) === 1.0)
    assert(Harness.KnnTruth(Set.empty, IndexedSeq.empty).recall(Seq.empty, 0, 0) === 1.0)
  }

  test("window builds a rect of requested area and aspect") {
    val r = Harness.window(0.5, 0.5, 0.04, aspect = 4.0)
    assert(math.abs(r.area - 0.04) < 1e-12)
    assert(math.abs((r.xhi - r.xlo) / (r.yhi - r.ylo) - 4.0) < 1e-9)
    assert(r.contains(0.5, 0.5))
  }

  test("truthWindow matches a straightforward filter") {
    val pts = SpatialData.local(SpatialData.Uniform, 1000)
    val r = Rect(0.2, 0.2, 0.4, 0.4)
    assert(Harness.truthWindow(pts, r) === pts.filter(r.contains).map(_.id).toSet)
  }

  test("truthKnn returns the k nearest by distance") {
    val pts = Array(Point(1, 0.1, 0.1), Point(2, 0.2, 0.2), Point(3, 0.9, 0.9))
    val knn = Harness.truthKnn(pts, 0.0, 0.0, 2)
    assert(knn.ids === Set(1L, 2L))
    assert(knn.dist2s === Seq(pts(0).dist2(0, 0), pts(1).dist2(0, 0)))
    assert(knn.kth2 === pts(1).dist2(0, 0))
    assert(Harness.truthKnn(pts, 0.0, 0.0, 5).dist2s === pts.map(_.dist2(0, 0)).toSeq)
  }

  test("kNN recall counts a point tied with the k-th as correct") {
    // Points 2 and 3 tie at the k-th distance; the truth holds one of them.
    val pts = Array(Point(1, 0.1, 0.0), Point(2, 0.2, 0.0), Point(3, 0.0, 0.2), Point(4, 0.5, 0.5))
    val truth = Harness.truthKnn(pts, 0.0, 0.0, 2)
    assert(truth.ids.size === 2 && truth.ids.contains(1L))
    assert(truth.kth2 === pts(1).dist2(0, 0))
    assert(truth.recall(Seq(pts(0), pts(1)), 0, 0) === 1.0)
    assert(truth.recall(Seq(pts(0), pts(2)), 0, 0) === 1.0)
    assert(truth.recall(Seq(pts(0), pts(3)), 0, 0) === 0.5)
  }

  test("buildAll constructs the requested subset") {
    val pts = SpatialData.local(SpatialData.Uniform, 1500)
    val cfg = repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 20, internalEpochs = 20)
    val built = Harness.buildAll(pts, cfg, zmEpochs = 20, include = Set("Grid", "RSMI"))
    assert(built.map(_.index.name).toSet === Set("Grid", "RSMI"))
    built.foreach(b => assert(b.buildMillis >= 0))
  }

  test("buildAll default includes all seven competitors") {
    val pts = SpatialData.local(SpatialData.Uniform, 1200)
    val cfg = repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 10, internalEpochs = 10)
    val built = Harness.buildAll(pts, cfg, zmEpochs = 10)
    assert(built.map(_.index.name).toSet ===
      Set("Grid", "HRR", "KDB", "RR*", "RSMI", "RSMIa", "ZM"))
  }

  test("every built index answers a point query consistently") {
    val pts = SpatialData.local(SpatialData.Normal, 1200)
    val cfg = repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)
    val built = Harness.buildAll(pts, cfg, zmEpochs = 30)
    val p = pts(7)
    built.foreach { b =>
      assert(b.index.pointQuery(p.x, p.y).contains(p), s"${b.index.name} missed $p")
    }
  }

  test("exact indices agree on window queries (cross-index consistency)") {
    val pts = SpatialData.local(SpatialData.OsmLike, 1500)
    val cfg = repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)
    val built = Harness.buildAll(pts, cfg, include = Set("Grid", "HRR", "KDB", "RR*", "RSMIa"))
    SpatialData.queryCenters(pts, 10).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      val answers = built.map(b => b.index.name -> b.index.windowQuery(r).map(_.id).toSet)
      val first = answers.head._2
      answers.foreach { case (name, ids) => assert(ids === first, s"$name disagrees") }
    }
  }

  test("exact indices agree on kNN (cross-index consistency)") {
    val pts = SpatialData.local(SpatialData.Skewed, 1500)
    val cfg = repro.core.RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)
    val built = Harness.buildAll(pts, cfg, include = Set("Grid", "HRR", "KDB", "RR*", "RSMIa"))
    SpatialData.queryCenters(pts, 10).foreach { q =>
      val answers = built.map(b => b.index.name -> b.index.knnQuery(q.x, q.y, 5).map(_.dist2(q.x, q.y)))
      val first = answers.head._2
      answers.foreach { case (name, ids) => assert(ids === first, s"$name disagrees") }
    }
  }

  test("timeNanos measures and returns the value") {
    val (v, t) = Harness.timeNanos { Thread.sleep(5); 42 }
    assert(v === 42)
    assert(t >= 5000000L)
  }
}

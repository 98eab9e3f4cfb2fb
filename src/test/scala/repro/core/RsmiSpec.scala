package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

/** Structural and behavioral invariants of the RSMI (driver-side
  * builder). No SparkSession needed — these run on local generators.
  */
class RsmiSpec extends AnyFunSuite {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40)

  private def buildOn(dist: SpatialData.Dist, n: Int = 5000) = {
    val pts = SpatialData.local(dist, n)
    (pts, RsmiBuilder.build(pts, cfg))
  }

  test("build packs every point exactly once") {
    val (pts, idx) = buildOn(SpatialData.Uniform)
    val stored = idx.store.allPoints
    assert(stored.size === pts.length)
    assert(stored.map(_.id).toSet === pts.map(_.id).toSet)
  }

  test("no block exceeds capacity B") {
    val (_, idx) = buildOn(SpatialData.Skewed)
    (0 until idx.store.numBlocks).foreach { b =>
      assert(idx.store.peek(b).size <= cfg.B)
    }
  }

  test("block chain links all original blocks in order") {
    val (_, idx) = buildOn(SpatialData.Uniform, 3000)
    var cur = 0
    var count = 0
    while (cur >= 0) {
      val blk = idx.store.peek(cur)
      assert(blk.ord === cur)
      count += 1
      cur = blk.next
    }
    assert(count === idx.store.originalCount)
  }

  test("point query finds every indexed point (Uniform)") {
    val (pts, idx) = buildOn(SpatialData.Uniform)
    pts.foreach { p =>
      val got = idx.pointQuery(p.x, p.y)
      assert(got.contains(p), s"missing $p")
    }
  }

  test("point query finds every indexed point (Skewed)") {
    val (pts, idx) = buildOn(SpatialData.Skewed)
    pts.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query finds every indexed point (OSM-like clusters)") {
    val (pts, idx) = buildOn(SpatialData.OsmLike)
    pts.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p)))
  }

  test("point query returns None for absent points") {
    val (_, idx) = buildOn(SpatialData.Uniform, 2000)
    assert(idx.pointQuery(2.0, 2.0).isEmpty)
    assert(idx.pointQuery(0.123456789, 0.987654321).isEmpty)
  }

  test("error bounds are valid for every point (Eq 4/5)") {
    val (pts, idx) = buildOn(SpatialData.Normal)
    // pointQuery already only scans within [pred-errl, pred+erra]; a
    // found point proves its true block is inside the bound.
    pts.foreach(p => assert(idx.pointQuery(p.x, p.y).isDefined))
  }

  test("height is 1 when n <= N") {
    val pts = SpatialData.local(SpatialData.Uniform, 500)
    val idx = RsmiBuilder.build(pts, cfg)
    assert(idx.height === 1)
  }

  test("height grows beyond 1 when n > N") {
    val (_, idx) = buildOn(SpatialData.Uniform, 5000)
    assert(idx.height >= 2)
  }

  test("leaf partitions respect threshold N (via leaf block counts)") {
    val (_, idx) = buildOn(SpatialData.Skewed, 8000)
    def walk(nd: RsmiNode): Unit = nd match {
      case lf: LeafNode =>
        // depth cap aside, a leaf built below MaxDepth holds <= N points
        val n = (lf.firstBlk to lf.lastBlk).map(idx.store.peek(_).size).sum
        assert(n <= cfg.N)
      case in: InternalNode => in.children.foreach(c => if (c != null) walk(c))
    }
    walk(idx.root)
  }

  test("MBRs contain all points beneath them") {
    val (_, idx) = buildOn(SpatialData.TigerLike)
    def walk(nd: RsmiNode): Unit = nd match {
      case lf: LeafNode =>
        (lf.firstBlk to lf.lastBlk).foreach { b =>
          idx.store.peek(b).points.foreach(p => assert(lf.mbr.contains(p)))
        }
      case in: InternalNode =>
        in.children.foreach { c =>
          if (c != null) {
            assert(in.mbr.containsRect(c.mbr) || in.mbr == c.mbr)
            walk(c)
          }
        }
    }
    walk(idx.root)
  }

  test("window query returns no false positives") {
    val (pts, idx) = buildOn(SpatialData.Skewed)
    val qs = SpatialData.queryCenters(pts, 30)
    qs.foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      idx.windowQuery(r).foreach(p => assert(r.contains(p)))
    }
  }

  test("window query recall is high (>= 0.8 across 30 windows)") {
    val (pts, idx) = buildOn(SpatialData.Normal)
    val qs = SpatialData.queryCenters(pts, 30)
    val recalls = qs.map { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      Harness.recall(idx.windowQuery(r), Harness.truthWindow(pts, r))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.8, s"avg recall $avg")
  }

  test("exact window query (RSMIa) equals brute force") {
    val (pts, idx) = buildOn(SpatialData.OsmLike)
    val qs = SpatialData.queryCenters(pts, 20)
    qs.foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      val got = idx.windowQueryExact(r).map(_.id).toSet
      val exp = Harness.truthWindow(pts, r)
      assert(got === exp)
    }
  }

  test("approximate kNN has high recall") {
    val (pts, idx) = buildOn(SpatialData.Uniform)
    val qs = SpatialData.queryCenters(pts, 30)
    val recalls = qs.map { q =>
      Harness.truthKnn(pts, q.x, q.y, 10).recall(idx.knnQuery(q.x, q.y, 10), q.x, q.y)
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.8, s"avg kNN recall $avg")
  }

  test("exact kNN (RSMIa best-first) equals brute force") {
    val (pts, idx) = buildOn(SpatialData.Skewed)
    val qs = SpatialData.queryCenters(pts, 20)
    qs.foreach { q =>
      val got = idx.knnQueryExact(q.x, q.y, 5).map(_.dist2(q.x, q.y))
      assert(got === Harness.truthKnn(pts, q.x, q.y, 5).dist2s)
    }
  }

  test("kNN returns exactly k points when n >= k") {
    val (_, idx) = buildOn(SpatialData.Uniform, 2000)
    assert(idx.knnQuery(0.5, 0.5, 25).size === 25)
    assert(idx.knnQueryExact(0.5, 0.5, 25).size === 25)
  }

  test("kNN with k > n returns all points") {
    val pts = SpatialData.local(SpatialData.Uniform, 120)
    val idx = RsmiBuilder.build(pts, cfg)
    assert(idx.knnQuery(0.5, 0.5, 500).size === 120)
  }

  test("insert then find: inserted points are queryable") {
    val (pts, idx) = buildOn(SpatialData.Uniform, 3000)
    val extra = SpatialData.local(SpatialData.Uniform, 300, seed = 99)
      .map(p => p.copy(id = p.id + 1000000))
    extra.foreach(idx.insert)
    extra.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p), s"missing inserted $p"))
    // originals still findable
    pts.take(500).foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p)))
  }

  test("inserted points appear in window queries") {
    val (_, idx) = buildOn(SpatialData.Uniform, 3000)
    val p = Point(5000000, 0.5001234, 0.5004321)
    idx.insert(p)
    val r = Rect(0.49, 0.49, 0.51, 0.51)
    assert(idx.windowQueryExact(r).exists(_.id == p.id))
  }

  test("delete removes a point") {
    val (pts, idx) = buildOn(SpatialData.Normal, 3000)
    val victim = pts(123)
    assert(idx.delete(victim.x, victim.y))
    assert(idx.pointQuery(victim.x, victim.y).isEmpty)
    assert(idx.cardinality === pts.length - 1)
  }

  test("delete of absent point returns false") {
    val (_, idx) = buildOn(SpatialData.Normal, 1000)
    assert(!idx.delete(3.0, 3.0))
  }

  test("rebuild (RSMIr) preserves the point set and queryability") {
    val (pts, idx) = buildOn(SpatialData.Uniform, 3000)
    val extra = SpatialData.local(SpatialData.Normal, 500, seed = 77)
      .map(p => p.copy(id = p.id + 2000000))
    extra.foreach(idx.insert)
    val r2 = idx.rebuilt()
    assert(r2.cardinality === pts.length + extra.length)
    (pts.take(300) ++ extra.take(300)).foreach(p =>
      assert(r2.pointQuery(p.x, p.y).contains(p)))
  }

  test("block accesses per point query are small on average") {
    val (pts, idx) = buildOn(SpatialData.Uniform)
    idx.resetCounters()
    val sample = pts.take(1000)
    sample.foreach(p => idx.pointQuery(p.x, p.y))
    val avg = idx.blockAccesses.toDouble / sample.length
    assert(avg < 20, s"avg accesses $avg")
  }

  test("avgDepth and numModels are consistent with height") {
    val (_, idx) = buildOn(SpatialData.Skewed, 6000)
    assert(idx.avgDepth >= 1.0)
    assert(idx.avgDepth <= idx.height.toDouble)
    assert(idx.numModels >= 1)
  }

  test("sizeBytes accounts for blocks and models") {
    val (pts, idx) = buildOn(SpatialData.Uniform, 2000)
    assert(idx.sizeBytes > 24L * pts.length)
  }

  test("maxErrBounds are non-negative and bounded by leaf size") {
    val (_, idx) = buildOn(SpatialData.Skewed)
    val (l, a) = idx.maxErrBounds
    assert(l >= 0 && a >= 0)
    assert(l <= cfg.N / cfg.B + 1)
    assert(a <= cfg.N / cfg.B + 1)
  }
}

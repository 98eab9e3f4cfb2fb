package repro.core

import repro.SparkSpec
import repro.data.SpatialData
import repro.harness.Harness

/** The distributed (DataFrame + executor-side leaf training) build
  * pipeline: behavioral equivalence with the driver-side builder.
  */
class RsmiSparkSpec extends SparkSpec {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40)

  private lazy val df = SpatialData.generate(spark, SpatialData.Skewed, 8000).cache()
  private lazy val pts = SpatialData.collectPoints(df)
  private lazy val idx = RsmiSpark.build(df, cfg)

  test("Spark build indexes every point exactly once") {
    val stored = idx.store.allPoints
    assert(stored.size === pts.length)
    assert(stored.map(_.id).toSet === pts.map(_.id).toSet)
  }

  test("Spark-built index answers point queries for all points") {
    pts.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p), s"missing $p"))
  }

  test("Spark-built index has height >= 2 for n > N") {
    assert(idx.height >= 2)
  }

  test("Spark-built exact window query matches brute force") {
    SpatialData.queryCenters(pts, 15).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(idx.windowQueryExact(r).map(_.id).toSet ===
             Harness.truthWindow(pts, r).map(_.id).toSet)
    }
  }

  test("Spark-built approximate window query: no false positives, good recall") {
    val recalls = SpatialData.queryCenters(pts, 20).map { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      val got = idx.windowQuery(r)
      got.foreach(p => assert(r.contains(p)))
      Harness.recall(got, Harness.truthWindow(pts, r))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.75, s"avg recall $avg")
  }

  test("Spark-built kNN recall is high") {
    val recalls = SpatialData.queryCenters(pts, 20).map { q =>
      Harness.recall(idx.knnQuery(q.x, q.y, 10), Harness.truthKnn(pts, q.x, q.y, 10))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.75, s"avg recall $avg")
  }

  test("small input (n <= N) degenerates to a single-leaf local build") {
    val small = SpatialData.generate(spark, SpatialData.Uniform, 500)
    val si = RsmiSpark.build(small, cfg)
    assert(si.height === 1)
    val sp = SpatialData.collectPoints(small)
    sp.foreach(p => assert(si.pointQuery(p.x, p.y).contains(p)))
  }

  test("RankSpace.withRanks matches the local rank computation") {
    val sdf = SpatialData.generate(spark, SpatialData.Uniform, 2000)
    val local = SpatialData.collectPoints(sdf)
    val (rx, _) = RankSpace.ranks(local)
    val expected = local.zip(rx).map { case (p, r) => p.id -> r.toLong }.toMap
    val got = RankSpace.withRanks(sdf).select("id", "rank_x").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(got === expected)
  }

  test("Spark and local builds have comparable error bounds") {
    val localIdx = RsmiBuilder.build(pts, cfg)
    val (sl, sa) = idx.maxErrBounds
    val (ll, la) = localIdx.maxErrBounds
    // Not identical (sampled root training), but the same order of
    // magnitude: both bounded by the leaf block count.
    val cap = cfg.N / cfg.B * 4
    assert(sl <= cap && sa <= cap && ll <= cap && la <= cap)
  }
}

package repro.core

import repro.{Oracle, SparkSpec}
import repro.baselines._
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.Rect

/** DuckDB oracle checks: every *exact* query path must return exactly
  * what SQL over the same points returns; approximate paths must be
  * subsets (no false positives) with high recall.
  */
class OracleEquivalenceSpec extends SparkSpec {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40)
  private lazy val pts = SpatialData.local(SpatialData.Normal, 3000)
  private lazy val ptsDf = {
    import spark.implicits._
    pts.toSeq.toDF("id", "x", "y")
  }
  private lazy val rsmi = RsmiBuilder.build(pts, cfg)

  private def windowSql(r: Rect): String =
    s"""SELECT CAST(id AS BIGINT) AS id FROM pts
       |WHERE CAST(x AS DOUBLE) >= ${r.xlo} AND CAST(x AS DOUBLE) <= ${r.xhi}
       |  AND CAST(y AS DOUBLE) >= ${r.ylo} AND CAST(y AS DOUBLE) <= ${r.yhi}""".stripMargin

  private def idsDf(ids: Seq[Long]) = {
    import spark.implicits._
    ids.toDF("id")
  }

  test("RSMIa exact window query matches DuckDB") {
    SpatialData.queryCenters(pts, 10).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      Oracle.assertEquivalent(idsDf(rsmi.windowQueryExact(r).map(_.id)),
        windowSql(r), "pts" -> ptsDf)
    }
  }

  test("RSMI approximate window is a subset of the DuckDB answer") {
    SpatialData.queryCenters(pts, 10).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      val approx = rsmi.windowQuery(r).map(_.id).toSet
      val exact = Harness.truthWindow(pts, r)
      assert(approx.subsetOf(exact))
      // and the exact set itself matches DuckDB
      Oracle.assertEquivalent(idsDf(exact.toSeq), windowSql(r), "pts" -> ptsDf)
    }
  }

  test("Grid File window query matches DuckDB") {
    val g = GridFile.build(pts, 50)
    SpatialData.queryCenters(pts, 8).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      Oracle.assertEquivalent(idsDf(g.windowQuery(r).map(_.id)), windowSql(r), "pts" -> ptsDf)
    }
  }

  test("KDB window query matches DuckDB") {
    val t = KdbTree.build(pts, 50)
    SpatialData.queryCenters(pts, 8).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      Oracle.assertEquivalent(idsDf(t.windowQuery(r).map(_.id)), windowSql(r), "pts" -> ptsDf)
    }
  }

  test("HRR window query matches DuckDB") {
    val t = HrrTree.build(pts, 50)
    SpatialData.queryCenters(pts, 8).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      Oracle.assertEquivalent(idsDf(t.windowQuery(r).map(_.id)), windowSql(r), "pts" -> ptsDf)
    }
  }

  test("RR* window query matches DuckDB") {
    val t = RStarTree.build(pts, 50)
    SpatialData.queryCenters(pts, 8).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.02)
      Oracle.assertEquivalent(idsDf(t.windowQuery(r).map(_.id)), windowSql(r), "pts" -> ptsDf)
    }
  }

  test("exact kNN (RSMIa) matches DuckDB's distance-ordered top-k") {
    SpatialData.queryCenters(pts, 8).foreach { q =>
      val k = 10
      val got = idsDf(rsmi.knnQueryExact(q.x, q.y, k).map(_.id))
      Oracle.assertEquivalent(got,
        s"""SELECT CAST(id AS BIGINT) AS id FROM pts
           |ORDER BY (CAST(x AS DOUBLE) - ${q.x}) * (CAST(x AS DOUBLE) - ${q.x})
           |       + (CAST(y AS DOUBLE) - ${q.y}) * (CAST(y AS DOUBLE) - ${q.y})
           |LIMIT $k""".stripMargin,
        "pts" -> ptsDf)
    }
  }

  test("point query agrees with DuckDB exact-match lookup") {
    pts.take(20).foreach { p =>
      val got = idsDf(rsmi.pointQuery(p.x, p.y).map(_.id).toSeq)
      Oracle.assertEquivalent(got,
        s"SELECT CAST(id AS BIGINT) AS id FROM pts WHERE x = '${p.x}' AND y = '${p.y}'",
        "pts" -> ptsDf)
    }
  }
}

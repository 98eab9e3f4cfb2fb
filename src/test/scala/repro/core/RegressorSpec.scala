package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.spatial.{Hilbert, Mlp, Rect}

/** The sub-model abstractions: MLP regressor normalization and the
  * deterministic GridRegressor fallback partitioner.
  */
class RegressorSpec extends AnyFunSuite {

  test("MlpRegressor normalizes inputs by the partition MBR") {
    val mlp = new Mlp(2, 8, 5)
    val norm = Norm(Rect(10.0, 20.0, 30.0, 40.0))
    val reg = new MlpRegressor(mlp, norm)
    // Prediction at the MBR corners equals raw MLP at unit corners.
    assert(reg.predict(10.0, 20.0) === mlp.predict2(0.0, 0.0))
    assert(reg.predict(30.0, 40.0) === mlp.predict2(1.0, 1.0))
    assert(reg.predict(20.0, 30.0) === mlp.predict2(0.5, 0.5))
  }

  test("Norm of a degenerate rect does not produce NaN") {
    val n = Norm(Rect(0.5, 0.5, 0.5, 0.5))
    assert(!n.nx(0.7).isNaN)
    assert(!n.ny(0.7).isNaN)
  }

  test("slot rounds to the nearest slot, clamps huge predictions and sends NaN to slot 0") {
    assert(Mlp.slot(1e12, 4) === 3)
    assert(Mlp.slot(-1e12, 4) === 0)
    assert(Mlp.slot(Double.NaN, 4) === 0)
  }

  test("GridRegressor maps points to their grid cell's curve value") {
    // A 2×2 grid with cuts at 0.5: cells get Hilbert order-1 values.
    val g = new GridRegressor(Array(0.5), Array(Array(0.5), Array(0.5)), 1, 4)
    def cell(x: Double, y: Double): Long =
      math.round(g.predict(x, y) * 3)
    assert(cell(0.2, 0.2) === Hilbert.xy2d(1, 0, 0))
    assert(cell(0.2, 0.8) === Hilbert.xy2d(1, 0, 1))
    assert(cell(0.8, 0.8) === Hilbert.xy2d(1, 1, 1))
    assert(cell(0.8, 0.2) === Hilbert.xy2d(1, 1, 0))
  }

  test("GridRegressor is deterministic and bounded in [0,1]") {
    val pts = SpatialData.local(SpatialData.Skewed, 2000)
    val ga = RsmiBuilder.gridAssign(pts, 4)
    val g = new GridRegressor(ga.xCuts, ga.yCuts, ga.order, 16)
    pts.foreach { p =>
      val v = g.predict(p.x, p.y)
      assert(v >= 0.0 && v <= 1.0)
      assert(v === g.predict(p.x, p.y))
    }
  }

  test("gridAssign produces balanced columns") {
    val pts = SpatialData.local(SpatialData.Skewed, 4000)
    val s = 4
    val ga = RsmiBuilder.gridAssign(pts, s)
    assert(ga.cellOf.forall(c => c >= 0 && c < s * s))
    // Column balance: decode the Hilbert cell back to (col, row) and
    // count per column.
    val colCounts = ga.cellOf.map(c => Hilbert.d2xy(ga.order, c.toLong)._1)
      .groupBy(identity).view.mapValues(_.length).toMap
    assert(colCounts.size === s)
    colCounts.values.foreach(c => assert(math.abs(c - 1000) <= 1, s"cols=$colCounts"))
  }

  test("gridDim follows 2^floor(log4(N/B)) with a floor of 2") {
    assert(RsmiBuilder.gridDim(RsmiConfig(B = 100, N = 10000)) === 8)  // log4(100)=3.3 → 8
    assert(RsmiBuilder.gridDim(RsmiConfig(B = 100, N = 40000)) === 16) // log4(400)=4.3 → 16
    assert(RsmiBuilder.gridDim(RsmiConfig(B = 100, N = 1000)) === 2)   // log4(10)=1.6 → 2
    assert(RsmiBuilder.gridDim(RsmiConfig(B = 100, N = 200)) === 2)    // floor
  }

  test("partition groups every point exactly once") {
    val pts = SpatialData.local(SpatialData.OsmLike, 5000)
    val (_, s, groups, mbr) = RsmiBuilder.partition(pts, RsmiConfig(B = 50, N = 1000,
      leafEpochs = 20, internalEpochs = 20), 17)
    assert(groups.length === s * s)
    val total = groups.filter(_ != null).map(_.length).sum
    assert(total === pts.length)
    groups.filter(_ != null).flatten.foreach(p => assert(mbr.contains(p)))
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ZmIndex
import repro.data.SpatialData
import repro.spatial.{Mlp, Point, Rect, ZCurve}

/** Bounded routing ([[Mlp.slot2]], [[Mlp.slot1]], [[Regressor.slotOf]])
  * must name exactly the slot that rounding the forward pass names, for
  * every model, every input and every slot count.
  */
class SlotKernelSpec extends AnyFunSuite {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)

  /** Every model of the tree with its own slot count and its node's MBR. */
  private def models(nd: RsmiNode): Seq[(Regressor, Int, Rect)] = nd match {
    case in: InternalNode =>
      (in.model, in.cells, in.mbr) +: in.children.toSeq.filter(_ != null).flatMap(models)
    case lf: LeafNode => Seq((lf.model, lf.numBlks, lf.mbr))
  }

  /** Slot counts checked for a model: its own, a few up to the most that
    * bounded routing serves (8), and one past it.
    */
  private def slotCounts(own: Int): Seq[Int] = Seq(own, 2, 5, 8, 9).distinct

  private var checks = 0L

  private def assertSlot(m: Regressor, x: Double, y: Double, slots: Int): Unit = {
    val want = Mlp.slot(m.predict(x, y), slots)
    val got = m.slotOf(x, y, slots)
    checks += 1
    if (got != want) fail(s"slotOf($x, $y, $slots) = $got, but the prediction ${m.predict(x, y)} rounds to $want")
  }

  /** For up to `maxEdges` of the slot edges the prediction crosses
    * between a and b, bisects the segment a → b on its parameter down to
    * adjacent doubles, and checks both ends and the ulps of x and y
    * around them.
    */
  private def assertEdges(m: Regressor, a: Point, b: Point, slots: Int, maxEdges: Int,
                          rnd: java.util.Random): Unit = {
    def at(t: Double) = (a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    def slot(t: Double) = { val (x, y) = at(t); Mlp.slot(m.predict(x, y), slots) }
    val (s0, s1) = (slot(0.0), slot(1.0))
    val (lowEnd, highEnd) = if (s0 <= s1) (0.0, 1.0) else (1.0, 0.0)
    val crossed = math.abs(s1 - s0)
    val edges =
      if (crossed <= maxEdges) (1 to crossed).map(_ + math.min(s0, s1))
      else Seq.fill(maxEdges)(math.min(s0, s1) + 1 + rnd.nextInt(crossed))
    edges.foreach { e =>
      var lo = lowEnd  // slot(lo) < e
      var hi = highEnd // slot(hi) >= e
      var mid = (lo + hi) / 2
      while (mid != lo && mid != hi) {
        if (slot(mid) >= e) hi = mid else lo = mid
        mid = (lo + hi) / 2
      }
      Seq(lo, hi).foreach { t =>
        val (x, y) = at(t)
        for (px <- Seq(Math.nextDown(x), x, Math.nextUp(x)); py <- Seq(Math.nextDown(y), y, Math.nextUp(y)))
          assertSlot(m, px, py, slots)
      }
    }
  }

  private def checkBuild(dist: SpatialData.Dist, n: Int): Unit = {
    val pts = SpatialData.local(dist, n)
    val idx = RsmiBuilder.build(pts, cfg)
    assert(idx.height >= 3, s"$dist build of height ${idx.height}")
    val rnd = new java.util.Random(11)
    def in(lo: Double, hi: Double) = lo + rnd.nextDouble() * (hi - lo)
    checks = 0
    models(idx.root).foreach { case (m, own, r) =>
      assert(m.isInstanceOf[MlpRegressor])
      val (w, h) = (r.xhi - r.xlo, r.yhi - r.ylo)
      slotCounts(own).foreach { s =>
        pts.foreach(p => assertSlot(m, p.x, p.y, s))
        (0 until 200).foreach { _ =>
          assertSlot(m, in(r.xlo, r.xhi), in(r.ylo, r.yhi), s)
          assertSlot(m, in(r.xlo - w, r.xhi + w), in(r.ylo - h, r.yhi + h), s)
        }
        (0 until 10).foreach { _ =>
          assertEdges(m, pts(rnd.nextInt(n)), pts(rnd.nextInt(n)), s, 20, rnd)
          assertEdges(m, Point(0, r.xlo - w, in(r.ylo, r.yhi)), Point(0, r.xhi + w, in(r.ylo, r.yhi)), s, 20, rnd)
          assertEdges(m, Point(0, in(r.xlo, r.xhi), r.ylo - h), Point(0, in(r.xlo, r.xhi), r.yhi + h), s, 20, rnd)
        }
      }
    }
    info(s"${idx.numModels} models, height ${idx.height}, $checks checks")
  }

  test("every model of a Skewed build routes every build point, random point and slot edge exactly") {
    checkBuild(SpatialData.Skewed, 20000)
  }

  test("every model of an OSM-like build routes every build point, random point and slot edge exactly") {
    checkBuild(SpatialData.OsmLike, 20000)
  }

  test("a zero-width Norm and inputs that drive z to an infinity or NaN take the exact slot") {
    val pts = SpatialData.local(SpatialData.Skewed, 3000)
    val leaf = RsmiBuilder.trainLeaf(pts, cfg, 5).model.asInstanceOf[MlpRegressor]
    val flat = new MlpRegressor(leaf.mlp, Norm(Rect(0.5, 0.5, 0.5, 0.5)))
    val inf = Double.PositiveInfinity
    val odd = Seq(0.0, 0.5, 1.0, -1e308, 1e308, Double.MaxValue, -Double.MaxValue, Double.MinPositiveValue,
                  inf, -inf, Double.NaN)
    for (m <- Seq(leaf, flat); x <- odd; y <- odd; s <- Seq(1, 2, 8, 60)) assertSlot(m, x, y, s)
    // Weights that put every z near ±32, the table's ends.
    val mlp = new Mlp(2, 6, 9)
    mlp.w1.indices.foreach(i => mlp.w1(i) = if (i % 2 == 0) 31.99 else -32.01)
    mlp.b1.indices.foreach(i => mlp.b1(i) = i - 2.5)
    val far = new MlpRegressor(mlp, Norm(Rect(0, 0, 1, 1)))
    for (x <- odd; y <- odd; s <- Seq(2, 8, 60)) assertSlot(far, x, y, s)
    val rnd = new java.util.Random(3)
    (0 until 20000).foreach(_ => assertSlot(far, 4 * rnd.nextDouble() - 2, 4 * rnd.nextDouble() - 2, 8))
  }

  test("a GridRegressor fallback node routes by its default slotOf") {
    val pts = SpatialData.local(SpatialData.OsmLike, 4000)
    val s = RsmiBuilder.gridDim(cfg)
    val ga = RsmiBuilder.gridAssign(pts, s)
    val grid = new GridRegressor(ga.xCuts, ga.yCuts, ga.order, s * s)
    val node = new InternalNode(grid, s, Array.fill[RsmiNode](s * s)(null), Rect.mbrOf(pts))
    pts.indices.foreach { i =>
      val p = pts(i)
      assert(node.predictCell(p.x, p.y) === Mlp.slot(grid.predict(p.x, p.y), s * s))
      assert(node.predictCell(p.x, p.y) === ga.cellOf(i))
    }
  }

  test("slot1 names the slot of predict1 for every level-2 model of a ZM build") {
    val pts = SpatialData.local(SpatialData.Skewed, 20000)
    val zm = ZmIndex.build(pts, B = 50, epochs = 60)
    val numBlks = zm.store.originalCount
    val zMax = math.pow(2.0, 2.0 * zm.bits) - 1
    val keys = pts.map(p => ZCurve.zOfUnit(zm.bits, p.x, p.y).toDouble / zMax)
    val rnd = new java.util.Random(5)
    zm.level2.foreach { m =>
      for (s <- Seq(numBlks, 2, 7, 8)) {
        def check(k: Double) =
          if (m.slot1(k, s) != Mlp.slot(m.predict1(k), s)) fail(s"slot1($k, $s) = ${m.slot1(k, s)}")
        keys.foreach(check)
        (0 until 500).foreach(_ => check(3 * rnd.nextDouble() - 1))
        Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, 1e300, -1e300).foreach(check)
        // Adjacent keys around slot edges, bisected between random keys.
        (0 until 20).foreach { _ =>
          var lo = keys(rnd.nextInt(keys.length))
          var hi = keys(rnd.nextInt(keys.length))
          val slotLo = Mlp.slot(m.predict1(lo), s)
          var mid = (lo + hi) / 2
          while (mid != lo && mid != hi) {
            if (Mlp.slot(m.predict1(mid), s) == slotLo) lo = mid else hi = mid
            mid = (lo + hi) / 2
          }
          Seq(Math.nextDown(lo), lo, hi, Math.nextUp(hi)).foreach(check)
        }
      }
    }
  }

  test("the sigmoid table is non-decreasing and equals the forward pass's sigmoid at every grid point") {
    val t = Mlp.SigmoidTable
    assert(t.length === 4097)
    t.indices.foreach { i =>
      assert(java.lang.Double.doubleToRawLongBits(t(i)) ===
             java.lang.Double.doubleToRawLongBits(Mlp.sigmoid(-32.0 + i / 64.0)), s"entry $i")
      if (i > 0) assert(t(i - 1) <= t(i), s"entries ${i - 1} and $i")
    }
  }
}

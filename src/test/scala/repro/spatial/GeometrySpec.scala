package repro.spatial

import org.scalatest.funsuite.AnyFunSuite

class GeometrySpec extends AnyFunSuite {

  test("Point.dist2 is squared Euclidean distance") {
    val p = Point(1, 0.0, 0.0)
    assert(p.dist2(3.0, 4.0) === 25.0)
    assert(p.dist2(0.0, 0.0) === 0.0)
  }

  test("Rect.contains includes boundary") {
    val r = Rect(0.0, 0.0, 1.0, 1.0)
    assert(r.contains(0.0, 0.0))
    assert(r.contains(1.0, 1.0))
    assert(r.contains(0.5, 0.5))
    assert(!r.contains(1.0001, 0.5))
    assert(!r.contains(0.5, -0.0001))
  }

  test("Rect.intersects detects overlap and disjointness") {
    val a = Rect(0, 0, 1, 1)
    assert(a.intersects(Rect(0.5, 0.5, 2, 2)))
    assert(a.intersects(Rect(1.0, 1.0, 2, 2))) // touching corners intersect
    assert(!a.intersects(Rect(1.1, 0, 2, 1)))
    assert(!a.intersects(Rect(0, 1.1, 1, 2)))
  }

  test("Rect.union covers both rectangles") {
    val u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
    assert(u === Rect(0, 0, 3, 3))
  }

  test("Rect.empty is identity for union and expand") {
    assert(Rect.empty.union(Rect(0, 0, 1, 1)) === Rect(0, 0, 1, 1))
    assert(Rect(0, 0, 1, 1).union(Rect.empty) === Rect(0, 0, 1, 1))
    assert(Rect.empty.expand(0.3, 0.4) === Rect(0.3, 0.4, 0.3, 0.4))
  }

  test("Rect.expand grows to include point") {
    val r = Rect(0, 0, 1, 1).expand(2.0, -1.0)
    assert(r === Rect(0, -1.0, 2.0, 1))
  }

  test("Rect.area and margin") {
    val r = Rect(0, 0, 2, 3)
    assert(r.area === 6.0)
    assert(r.margin === 10.0)
    assert(Rect.empty.area === 0.0)
  }

  test("Rect.overlapArea") {
    val a = Rect(0, 0, 2, 2)
    assert(a.overlapArea(Rect(1, 1, 3, 3)) === 1.0)
    assert(a.overlapArea(Rect(5, 5, 6, 6)) === 0.0)
    assert(a.overlapArea(a) === 4.0)
  }

  test("Rect.minDist2 is zero inside and squared distance outside") {
    val r = Rect(0, 0, 1, 1)
    assert(r.minDist2(0.5, 0.5) === 0.0)
    assert(r.minDist2(2.0, 0.5) === 1.0)
    assert(r.minDist2(2.0, 2.0) === 2.0)
    assert(r.minDist2(-3.0, -4.0) === 25.0)
  }

  test("Rect.containsRect") {
    val a = Rect(0, 0, 2, 2)
    assert(a.containsRect(Rect(0.5, 0.5, 1.5, 1.5)))
    assert(a.containsRect(a))
    assert(!a.containsRect(Rect(1, 1, 3, 3)))
  }

  test("Rect.mbrOf computes tight bounds") {
    val pts = Seq(Point(1, 0.2, 0.9), Point(2, 0.7, 0.1), Point(3, 0.5, 0.5))
    assert(Rect.mbrOf(pts) === Rect(0.2, 0.1, 0.7, 0.9))
  }

  test("Rect.mbrOf of empty collection is empty") {
    assert(Rect.mbrOf(Seq.empty).isEmpty)
    assert(Rect.mbrOf(Array.empty[Point]) === Rect.empty)
  }

  test("Rect.mbrOf equals the fold of expand, bit for bit") {
    def bits(r: Rect) = Seq(r.xlo, r.ylo, r.xhi, r.yhi).map(java.lang.Double.doubleToRawLongBits)
    val rnd = new java.util.Random(5)
    val inputs = Seq(
      Seq(Point(1, 0.3, 0.4)),
      Seq(Point(1, -0.0, 0.0), Point(2, 0.0, -0.0)),
      Seq(Point(1, 0.0, -0.0), Point(2, -0.0, 0.0)),
      Seq(Point(1, -1e300, 1e-300), Point(2, Double.MinPositiveValue, -5.0), Point(3, 2.0, 2.0)),
      Seq.tabulate(500)(i => Point(i, rnd.nextGaussian(), rnd.nextGaussian())))
    inputs.foreach { pts =>
      assert(bits(Rect.mbrOf(pts)) === bits(pts.foldLeft(Rect.empty)((r, p) => r.expand(p.x, p.y))), pts.take(3))
    }
  }

  test("center coordinates") {
    val r = Rect(0, 2, 4, 6)
    assert(r.centerX === 2.0)
    assert(r.centerY === 4.0)
  }
}

package repro.spatial

/** A 2-d data point with a stable identifier.
  *
  * The paper assumes no two points share both coordinates (§3.1); our
  * generators draw continuous uniforms so collisions are measure-zero,
  * and all tie-breaking is still made deterministic via `id`.
  */
final case class Point(id: Long, x: Double, y: Double) {
  /** Squared Euclidean distance to (qx, qy). */
  def dist2(qx: Double, qy: Double): Double = {
    val dx = x - qx; val dy = y - qy
    dx * dx + dy * dy
  }
}

/** An axis-aligned rectangle; doubles as an MBR.
  *
  * Degenerate (point) rectangles are allowed. An "empty" MBR is
  * represented by [[Rect.empty]] with inverted bounds so that
  * `expand` works as a fold seed.
  */
final case class Rect(xlo: Double, ylo: Double, xhi: Double, yhi: Double) {

  def isEmpty: Boolean = xlo > xhi || ylo > yhi

  def contains(px: Double, py: Double): Boolean =
    px >= xlo && px <= xhi && py >= ylo && py <= yhi

  def contains(p: Point): Boolean = contains(p.x, p.y)

  def containsRect(r: Rect): Boolean =
    r.xlo >= xlo && r.xhi <= xhi && r.ylo >= ylo && r.yhi <= yhi

  def intersects(r: Rect): Boolean =
    !(r.xlo > xhi || r.xhi < xlo || r.ylo > yhi || r.yhi < ylo)

  /** Smallest rectangle covering both `this` and `r`. */
  def union(r: Rect): Rect =
    if (isEmpty) r
    else if (r.isEmpty) this
    else Rect(math.min(xlo, r.xlo), math.min(ylo, r.ylo),
              math.max(xhi, r.xhi), math.max(yhi, r.yhi))

  /** Smallest rectangle covering `this` and point (px, py). */
  def expand(px: Double, py: Double): Rect =
    if (isEmpty) Rect(px, py, px, py)
    else Rect(math.min(xlo, px), math.min(ylo, py),
              math.max(xhi, px), math.max(yhi, py))

  def area: Double = if (isEmpty) 0.0 else (xhi - xlo) * (yhi - ylo)

  def margin: Double = if (isEmpty) 0.0 else 2 * ((xhi - xlo) + (yhi - ylo))

  /** Area of the intersection with `r` (0 when disjoint). */
  def overlapArea(r: Rect): Double = {
    val w = math.min(xhi, r.xhi) - math.max(xlo, r.xlo)
    val h = math.min(yhi, r.yhi) - math.max(ylo, r.ylo)
    if (w <= 0 || h <= 0) 0.0 else w * h
  }

  /** MINDIST metric [Roussopoulos et al. 1995]: squared distance from a
    * query point to the nearest point of this rectangle (0 if inside).
    */
  def minDist2(qx: Double, qy: Double): Double = {
    val dx = if (qx < xlo) xlo - qx else if (qx > xhi) qx - xhi else 0.0
    val dy = if (qy < ylo) ylo - qy else if (qy > yhi) qy - yhi else 0.0
    dx * dx + dy * dy
  }

  def centerX: Double = (xlo + xhi) / 2
  def centerY: Double = (ylo + yhi) / 2
}

object Rect {
  /** Fold seed for MBR computation: union/expand treat it as identity. */
  val empty: Rect = Rect(1.0, 1.0, -1.0, -1.0)

  val unit: Rect = Rect(0.0, 0.0, 1.0, 1.0)

  /** The tightest rectangle over `points`, [[empty]] for none; builds
    * one `Rect`, not one per point.
    */
  def mbrOf(points: Iterable[Point]): Rect = {
    val it = points.iterator
    if (!it.hasNext) return empty
    val p = it.next()
    var xlo = p.x; var ylo = p.y; var xhi = p.x; var yhi = p.y
    while (it.hasNext) {
      val q = it.next()
      xlo = math.min(xlo, q.x); ylo = math.min(ylo, q.y)
      xhi = math.max(xhi, q.x); yhi = math.max(yhi, q.y)
    }
    Rect(xlo, ylo, xhi, yhi)
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ZmIndex
import repro.data.SpatialData
import repro.spatial.Point

/** Algorithm 3 ([[ExpandingKnn]]) as RSMI and ZM run it: the k-best
  * heap over block slots returns the right distances, in order, for
  * small and large k, for k at or beyond n, and under tied distances.
  */
class ExpandingKnnSpec extends AnyFunSuite {

  private val B = 20
  private val cfg = RsmiConfig(B = B, N = 400, leafEpochs = 40, internalEpochs = 40)

  /** Alg 3 of both indexes over `pts`, by name. */
  private def indexes(pts: Array[Point]): Seq[(String, (Double, Double, Int) => Seq[Point])] = {
    val rsmi = RsmiBuilder.build(pts, cfg)
    val zm = ZmIndex.build(pts, B = B, epochs = 40)
    Seq("RSMI" -> rsmi.knnQuery, "ZM" -> zm.knnQuery)
  }

  private def truth(pts: Array[Point], qx: Double, qy: Double, k: Int): Seq[Double] =
    pts.iterator.map(_.dist2(qx, qy)).toSeq.sorted.take(k)

  private def dists(got: Seq[Point], qx: Double, qy: Double): Seq[Double] = got.map(_.dist2(qx, qy))

  /** Every returned point is an indexed point, returned once. */
  private def assertGenuine(pts: Array[Point], got: Seq[Point]): Unit = {
    val byId = pts.iterator.map(p => p.id -> p).toMap
    assert(got.map(_.id).distinct.size === got.size)
    got.foreach(p => assert(byId.get(p.id).contains(p), s"$p is not indexed"))
  }

  test("over every block, k = 1, k = 25 and k > B return the brute-force distances, nearest first") {
    // A scan range covering every original block takes the learned
    // range out of the picture: what is left is the scan and the heap.
    val pts = SpatialData.local(SpatialData.Uniform, 1500, seed = 7)
    val rsmi = RsmiBuilder.build(pts, cfg)
    val zm = ZmIndex.build(pts, B = B, epochs = 40)
    val qs = SpatialData.queryCenters(pts, 20) ++ Seq(Point(-1, 0.5, 0.5), Point(-2, 1.2, -0.1))
    for ((name, store) <- Seq("RSMI" -> rsmi.store, "ZM" -> zm.store); k <- Seq(1, 25, 3 * B); q <- qs) {
      val got = ExpandingKnn.knn(store, rsmi.pmfX, rsmi.pmfY, pts.length, cfg.delta, q.x, q.y, k) {
        _ => (0, store.originalCount - 1)
      }
      assertGenuine(pts, got)
      assert(dists(got, q.x, q.y) === truth(pts, q.x, q.y, k), s"$name k=$k at $q")
    }
  }

  test("with the learned range, k = 1, k = 25 and k > B return k genuine points, nearest first, with high recall") {
    // Alg 3 is approximate: the learned range can miss a true neighbour
    // (the paper's kNN recall is below 1), so the i-th distance may only
    // exceed the true i-th.
    val pts = SpatialData.local(SpatialData.Uniform, 1500, seed = 7)
    val qs = SpatialData.queryCenters(pts, 20)
    for ((name, knn) <- indexes(pts); k <- Seq(1, 25, 3 * B)) {
      var hits = 0
      qs.foreach { q =>
        val got = knn(q.x, q.y, k)
        assertGenuine(pts, got)
        assert(got.size === k)
        val d = dists(got, q.x, q.y)
        val t = truth(pts, q.x, q.y, k)
        assert(d === d.sorted, s"$name k=$k at $q")
        assert(d.zip(t).forall { case (g, e) => g >= e }, s"$name k=$k at $q")
        hits += d.count(_ <= t.last)
      }
      val recall = hits.toDouble / (k * qs.size)
      assert(recall >= 0.9, s"$name k=$k recall $recall")
    }
  }

  test("k >= n returns every point in ascending distance") {
    val pts = SpatialData.local(SpatialData.Skewed, 300, seed = 9)
    for ((name, knn) <- indexes(pts); k <- Seq(pts.length, pts.length + 50); (qx, qy) <- Seq((0.5, 0.5), (0.0, 1.0))) {
      val got = knn(qx, qy, k)
      assertGenuine(pts, got)
      assert(got.map(_.id).toSet === pts.map(_.id).toSet, s"$name k=$k")
      assert(dists(got, qx, qy) === truth(pts, qx, qy, k), s"$name k=$k")
    }
  }

  test("tied distances on a lattice: exactly k points, the k-th at the true distance") {
    // A 32 x 32 lattice of dyadic coordinates: distances from a lattice
    // node are exact, so rings of 4 or 8 points tie exactly.
    val side = 32
    val pts = Array.tabulate(side * side)(i => Point(i, (i % side) / 32.0, (i / side) / 32.0))
    val qs = Seq((16 / 32.0, 16 / 32.0), (3 / 32.0, 29 / 32.0), (0.0, 0.0))
    for ((name, knn) <- indexes(pts); k <- Seq(2, 3, 5, 6, 10, 25, 3 * B); (qx, qy) <- qs) {
      val got = knn(qx, qy, k)
      assertGenuine(pts, got)
      assert(got.size === k, s"$name k=$k")
      val d = dists(got, qx, qy)
      assert(d === d.sorted, s"$name k=$k")
      assert(d.last === truth(pts, qx, qy, k).last, s"$name k=$k at ($qx, $qy)")
    }
  }
}

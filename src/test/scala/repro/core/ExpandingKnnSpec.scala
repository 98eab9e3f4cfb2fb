package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ZmIndex
import repro.data.SpatialData
import repro.spatial.{BlockStore, Point, Rect}

/** Algorithm 3 ([[ExpandingKnn]]) as RSMI and ZM run it: the k best
  * over block slots are the right distances, in order, for small and
  * large k, for k at or beyond n, and under tied distances; and the walk
  * reads the same blocks, in the same rounds, as the reference heap walk
  * ([[ReferenceKnn.alg3]]).
  */
class ExpandingKnnSpec extends AnyFunSuite {
  import ExpandingKnnSpec.Alg3

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

  test("Alg 3 reads the blocks and runs the rounds of the reference heap walk, and finds its distances") {
    val skewed = SpatialData.local(SpatialData.Skewed, 20000, seed = 21)
    val rsmi = RsmiBuilder.build(skewed, RsmiConfig(B = 100, N = 1000, leafEpochs = 60, internalEpochs = 40))
    val zm = ZmIndex.build(skewed, B = 100, epochs = 40)
    // An OSM-like RSMI after 1 500 clustered inserts, so ranges cross overflow chains.
    val osm = SpatialData.local(SpatialData.OsmLike, 3000, seed = 5)
    val extra = SpatialData.local(SpatialData.OsmLike, 1500, seed = 6).map(p => p.copy(id = p.id + 1000000))
    val grown = RsmiBuilder.build(osm, RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40))
    extra.foreach(grown.insert)
    assert(grown.store.numBlocks > grown.store.originalCount)

    val off = Seq(Point(-1, 0.5, 0.5), Point(-2, 1.2, -0.1))
    val skewedQs = SpatialData.queryCenters(skewed, 40).toSeq ++ off
    val cases = Seq(
      Alg3("RSMI Skewed", rsmi.store, rsmi.pmfX, rsmi.pmfY, rsmi.cardinality, rsmi.cfg.delta,
        rsmi.windowRange, rsmi.knnQuery, skewedQs),
      Alg3("ZM Skewed", zm.store, zm.pmfX, zm.pmfY, skewed.length, 0.01, zm.windowRange, zm.knnQuery, skewedQs),
      Alg3("RSMI OSM-like after inserts", grown.store, grown.pmfX, grown.pmfY, grown.cardinality, grown.cfg.delta,
        grown.windowRange, grown.knnQuery, SpatialData.queryCenters(osm ++ extra, 40).toSeq ++ off))
    for (c <- cases; k <- Seq(1, 5, 25, 125, 3 * c.store.capacity); q <- c.qs) {
      var rounds = 0
      val before = c.store.accesses
      val got = ExpandingKnn.knn(c.store, c.pmfX, c.pmfY, c.cardinality, c.delta, q.x, q.y, k) { r =>
        rounds += 1
        c.windowRange(r)
      }
      val blocks = c.store.accesses - before
      val ref = ReferenceKnn.alg3(c.store, c.pmfX, c.pmfY, c.cardinality, c.delta, q.x, q.y, k)(c.windowRange)
      val clue = s"${c.name} k=$k at $q"
      assert(blocks === ref.blocks, clue)
      assert(rounds === ref.rounds, clue)
      assert(got.map(_.dist2(q.x, q.y)) === ref.dist2s, clue)
      assert(c.knnQuery(q.x, q.y, k) === got, clue)
    }
  }
}

object ExpandingKnnSpec {
  /** One index's Alg 3: what `ExpandingKnn.knn` is called with, the
    * index's own `knnQuery`, and the queries to run.
    */
  private final case class Alg3(name: String, store: BlockStore, pmfX: Pmf, pmfY: Pmf, cardinality: Long,
                                delta: Double, windowRange: Rect => (Int, Int),
                                knnQuery: (Double, Double, Int) => Seq[Point], qs: Seq[Point])
}

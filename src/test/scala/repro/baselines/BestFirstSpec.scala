package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ReferenceKnn, RsmiBuilder, RsmiConfig}
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

/** The exact best-first kNN ([[repro.spatial.BestFirst]]) as RSMIa and
  * the three tree baselines (KDB, HRR, RR*) run it: the answer is the
  * brute-force distances, nearest first, and the walk reads exactly the
  * blocks whose MINDIST² is below the true k-th distance², as many as
  * the single-queue reference walk ([[ReferenceKnn.bestFirst]]) reads.
  *
  * A node whose MINDIST² equals the true k-th distance² exactly (a
  * block whose nearest corner is the k-th neighbour, say) is read or
  * not depending on queue order, so on a query with such a tie the
  * count is only bounded by the blocks below and the blocks at most
  * that far. Most random queries have none, and the spec requires it.
  */
class BestFirstSpec extends AnyFunSuite {
  import BestFirstSpec._

  private val B = 50

  /** 1 500 inserts in 15 tight clusters around base points, so RSMIa
    * groups chain overflow blocks and tree nodes split.
    */
  private def clusteredInserts(base: Array[Point]): Array[Point] = {
    val rnd = new java.util.Random(17)
    Array.tabulate(1500) { i =>
      val a = base((i / 100) * (base.length / 15))
      Point(5000000L + i, math.min(0.999999, a.x + rnd.nextDouble() * 2e-3), math.min(0.999999, a.y + rnd.nextDouble() * 2e-3))
    }
  }

  /** RSMIa and the three trees over `base`, each after `extra` is
    * inserted; RSMIa also deletes 300 points drawn from both. Returns
    * each index with the points it holds.
    */
  private def indexes(base: Array[Point], extra: Array[Point], cfg: RsmiConfig): Seq[(Case[_], Array[Point])] = {
    val rsmi = RsmiBuilder.build(base, cfg)
    extra.foreach(rsmi.insert)
    val all = base ++ extra
    val rnd = new java.util.Random(29)
    val gone = if (extra.isEmpty) Nil else (0 until 300).map(_ => all(rnd.nextInt(all.length))).distinct
    gone.foreach(p => assert(rsmi.delete(p.x, p.y), s"could not delete $p"))
    val goneIds = gone.map(_.id).toSet
    val rsmiCase = Case[AnyRef]("RSMIa", ReferenceKnn.rsmiNodes(rsmi), rsmi.root, rsmi.knnQueryExact,
      () => rsmi.blockAccesses, () => rsmi.resetCounters())
    val trees = Seq(KdbTree.build(base, cfg.B), HrrTree.build(base, cfg.B), RStarTree.build(base, cfg.B)).map { t =>
      extra.foreach(t.insert)
      Case[BlockTree.Node](t.name, treeNodes, t.root, t.knnQuery, () => t.blockAccesses, () => t.resetCounters()) -> all
    }
    (rsmiCase -> all.filterNot(p => goneIds(p.id))) +: trees
  }

  /** Uniform points over the space and points a hair off data points,
    * none of them a data point.
    */
  private def queries(live: Array[Point]): Seq[Point] = {
    val rnd = new java.util.Random(31)
    val near = SpatialData.queryCenters(live, 20, seed = 37).toSeq
      .map(c => Point(-1, c.x + (rnd.nextDouble() - 0.5) * 1e-3, c.y + (rnd.nextDouble() - 0.5) * 1e-3))
    val qs = Seq.fill(20)(Point(-1, rnd.nextDouble(), rnd.nextDouble())) ++ near
    val coords = live.iterator.map(p => (p.x, p.y)).toSet
    qs.filterNot(q => coords((q.x, q.y)))
  }

  private def assertGenuine(live: Array[Point], got: Seq[Point], clue: String): Unit = {
    val byId = live.iterator.map(p => p.id -> p).toMap
    assert(got.map(_.id).distinct.size === got.size, clue)
    got.foreach(p => assert(byId.get(p.id).contains(p), s"$clue: $p is not indexed"))
  }

  /** Runs every k at every query of `c`, checking the answer against
    * brute force and the blocks read against the reference walk and the
    * MINDIST count. Returns (queries run, queries with a tie at the k-th).
    */
  private def checkWalk[N](c: Case[N], live: Array[Point], qs: Seq[Point]): (Int, Int) = {
    val nodes = allNodes(c.nodes, c.root)
    var runs = 0
    var ties = 0
    for (k <- Seq(1, 5, 25, 125, 3 * B, live.length + 5); q <- qs) {
      val clue = s"${c.name} k=$k at (${q.x}, ${q.y})"
      c.reset()
      val got = c.knn(q.x, q.y, k)
      val blocks = c.accesses()
      val truth = Harness.truthKnn(live, q.x, q.y, k)
      assertGenuine(live, got, clue)
      assert(got.map(_.dist2(q.x, q.y)) === truth.dist2s, clue)
      if (k > live.length) assert(got.map(_.id).toSet === live.map(_.id).toSet, clue)

      val kth2 = if (truth.dist2s.size < k) Double.PositiveInfinity else truth.kth2
      val dists = nodes.map(n => c.nodes.mbr(n).minDist2(q.x, q.y))
      val charged = nodes.map(c.nodes.charged)
      val below = dists.zip(charged).count { case (d, ch) => ch && d < kth2 }
      val atMost = dists.zip(charged).count { case (d, ch) => ch && d <= kth2 }
      val ref = ReferenceKnn.bestFirst(c.nodes, c.root, q.x, q.y, k)
      assert(ref.dist2s === truth.dist2s, clue)
      runs += 1
      if (dists.contains(kth2)) {
        ties += 1
        assert(blocks >= below && blocks <= atMost, s"$clue: $blocks blocks, $below below the k-th, $atMost at most")
      } else {
        assert(blocks === below, s"$clue: blocks read")
        assert(blocks === ref.blocks, s"$clue: blocks read")
      }
    }
    (runs, ties)
  }

  private def walkTest(what: String, base: => Array[Point], extra: Array[Point] => Array[Point]): Unit =
    test(s"$what: RSMIa, KDB, HRR and RR* read exactly the blocks closer than the k-th and return its distances") {
      val b = base
      for ((c, live) <- indexes(b, extra(b), RsmiConfig(B = B, N = 1000, leafEpochs = 30, internalEpochs = 30))) {
        val (runs, ties) = checkWalk(c, live, queries(live))
        assert(ties * 5 <= runs, s"${c.name}: $ties of $runs queries tie a node at the k-th")
      }
    }

  walkTest("Skewed", SpatialData.local(SpatialData.Skewed, 3000, seed = 23), _ => Array.empty[Point])
  walkTest("OSM-like after 1 500 clustered inserts and 300 deletes",
    SpatialData.local(SpatialData.OsmLike, 3000, seed = 23), clusteredInserts)

  // ---------------------------------------------------------------------
  // Ties: the k-th neighbour shares its distance with others, so the
  // answer must still hold exactly min(k, n) points at the true distances.

  private def assertTiesExact(pts: Array[Point], qs: Seq[(Double, Double)], ks: Seq[Int]): Unit =
    for ((c, live) <- indexes(pts, Array.empty, RsmiConfig(B = 16, N = 400, leafEpochs = 30, internalEpochs = 30));
         k <- ks; (qx, qy) <- qs) {
      val clue = s"${c.name} k=$k at ($qx, $qy)"
      val got = c.knn(qx, qy, k)
      assertGenuine(live, got, clue)
      assert(got.size === math.min(k, live.length), clue)
      assert(got.map(_.dist2(qx, qy)) === Harness.truthKnn(live, qx, qy, k).dist2s, clue)
    }

  test("ties on a dyadic lattice: exactly min(k, n) points, the k-th at the true distance") {
    // A 32 x 32 lattice of dyadic coordinates: distances from a lattice
    // node or a cell centre are exact, so rings of 4 or 8 points tie.
    val side = 32
    val pts = Array.tabulate(side * side)(i => Point(i, (i % side) / 32.0, (i / side) / 32.0))
    val qs = Seq((16 / 32.0, 16 / 32.0), (3 / 32.0, 29 / 32.0), (0.0, 0.0), (16.5 / 32, 16.5 / 32), (1.0, 1.0 / 64))
    assertTiesExact(pts, qs, Seq(1, 2, 3, 4, 5, 6, 9, 10, 13, 25, 48, pts.length, pts.length + 5))
  }

  test("ties in a ring: the k-th neighbour inside twelve equally distant points, some duplicated") {
    // Twelve points at exactly 5/64 from (0.5, 0.5), from the
    // Pythagorean (3, 4, 5), four of them twice; three points nearer;
    // and 600 points at least 0.2 away.
    val ring = Seq((3, 4), (4, 3), (5, 0), (0, 5)).flatMap { case (a, b) =>
      Seq((a, b), (-a, b), (a, -b), (-a, -b)).distinct
    }.map { case (a, b) => (0.5 + a / 64.0, 0.5 + b / 64.0) }
    assert(ring.size === 12)
    val twice = ring ++ ring.take(4)
    val near = Seq((0.5, 0.5), (0.5 + 1 / 64.0, 0.5), (0.5, 0.5 - 2 / 64.0))
    val rnd = new java.util.Random(41)
    val far = Iterator.continually((rnd.nextDouble(), rnd.nextDouble()))
      .filter { case (x, y) => math.hypot(x - 0.5, y - 0.5) >= 0.2 }.take(600).toSeq
    val pts = (near ++ twice ++ far).zipWithIndex.map { case ((x, y), i) => Point(i, x, y) }.toArray
    assertTiesExact(pts, Seq((0.5, 0.5)), 1 to 20)
  }
}

object BestFirstSpec {

  /** One index's best-first kNN: its nodes as the reference walk sees
    * them, its root, its kNN query and its access counter.
    */
  private final case class Case[N](name: String, nodes: ReferenceKnn.Nodes[N], root: N,
                                   knn: (Double, Double, Int) => Seq[Point],
                                   accesses: () => Long, reset: () => Unit)

  /** A tree's nodes: every node visit is charged. */
  private val treeNodes: ReferenceKnn.Nodes[BlockTree.Node] = new ReferenceKnn.Nodes[BlockTree.Node] {
    def mbr(n: BlockTree.Node): Rect = n.mbr
    def children(n: BlockTree.Node): Seq[BlockTree.Node] = n match {
      case in: BlockTree.Inner => in.children.toSeq
      case _: BlockTree.Leaf   => Nil
    }
    def points(n: BlockTree.Node): Seq[Point] = n match {
      case lf: BlockTree.Leaf  => lf.pts.toSeq
      case _: BlockTree.Inner => Nil
    }
    def charged(n: BlockTree.Node): Boolean = true
  }

  /** `root` and every node below it. */
  private def allNodes[N](t: ReferenceKnn.Nodes[N], root: N): Seq[N] =
    root +: t.children(root).flatMap(allNodes(t, _))
}

package repro.spatial

import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite

/** [[KNearest]] against brute force: after every block offered, `kth2`
  * is the k-th smallest squared distance of everything offered so far
  * and `size` is min(k, offered); `result` is the k nearest, ascending.
  * The block-visit decisions of Alg 3 and the Grid File's ring search
  * rest on that `kth2`.
  */
class KNearestSpec extends AnyFunSuite {

  private val B = 20

  /** Offers `blocks` in order, checking after each, then checks `result`. */
  private def check(k: Int, qx: Double, qy: Double, blocks: Seq[Seq[Point]]): Unit = {
    val store = new BlockStore(B)
    val best = new KNearest(k, qx, qy, store)
    val offered = ArrayBuffer.empty[Point]
    blocks.foreach { ps =>
      val blk = store.allocate(store.numBlocks, inserted = false)
      ps.foreach(blk.add)
      best.offer(blk)
      offered ++= ps
      val sorted = offered.map(_.dist2(qx, qy)).sorted
      val clue = s"k=$k after ${offered.size} points"
      assert(best.size === math.min(k, offered.size), clue)
      assert(best.kth2 === (if (offered.size < k) Double.PositiveInfinity else sorted(k - 1)), clue)
    }
    val got = best.result()
    val byId = offered.iterator.map(p => p.id -> p).toMap
    assert(got.map(_.id).distinct.size === got.size)
    got.foreach(p => assert(byId.get(p.id).contains(p), s"$p was not offered"))
    assert(got.map(_.dist2(qx, qy)) === offered.map(_.dist2(qx, qy)).sorted.take(k), s"k=$k")
  }

  /** Blocks of random sizes in [0, B] with coordinates from `coord`. */
  private def stream(rnd: java.util.Random, blocks: Int)(coord: => Double): Seq[Seq[Point]] = {
    var id = 0L
    Seq.fill(blocks) {
      Seq.fill(rnd.nextInt(B + 1)) { id += 1; Point(id, coord, coord) }
    }
  }

  test("random streams: kth2 and size match brute force after every block, for k = 1 up to k above the points offered") {
    for (seed <- 1 to 5; k <- Seq(1, 2, 5, B + 3, 3 * B, 10000)) {
      val rnd = new java.util.Random(seed)
      check(k, rnd.nextDouble(), rnd.nextDouble(), stream(rnd, 40)(rnd.nextDouble()))
    }
  }

  test("tied streams on a coarse lattice: duplicate points and distances at the k-th") {
    // Coordinates in {0, 0.25, ..., 1}: distances from a lattice node tie
    // exactly, and many points share coordinates.
    for (seed <- 1 to 5; k <- Seq(1, 3, 4, 8, B + 1, 2 * B)) {
      val rnd = new java.util.Random(seed)
      check(k, 0.5, 0.25, stream(rnd, 30)(rnd.nextInt(5) / 4.0))
    }
  }

  test("the k-th falls inside a ring of equally distant points") {
    // Three points nearer than a ring of eight at distance 0.25.
    val near = Seq(Point(1, 0.5, 0.5), Point(2, 0.5, 0.625), Point(3, 0.375, 0.5))
    val ring = Seq((0.25, 0.0), (-0.25, 0.0), (0.0, 0.25), (0.0, -0.25), (0.25, 0.0), (0.0, 0.25), (-0.25, 0.0), (0.0, -0.25))
      .zipWithIndex.map { case ((dx, dy), i) => Point(10 + i, 0.5 + dx, 0.5 + dy) }
    for (k <- Seq(4, 5, 8, 11, 12)) {
      check(k, 0.5, 0.5, Seq(ring.take(5), near, ring.drop(5)))
      check(k, 0.5, 0.5, Seq(near ++ ring))
    }
  }

  test("a block whose candidates all tie, offered first and after a nearer block") {
    val tie = Seq.tabulate(B)(i => Point(100 + i, 0.75, 0.25))
    val nearerTie = Seq.tabulate(B)(i => Point(200 + i, 0.5, 0.375))
    val far = Seq.tabulate(B / 2)(i => Point(300 + i, 0.0, 1.0 - i / 64.0))
    for (k <- Seq(1, 5, B, B + 1, 2 * B + 5)) {
      check(k, 0.5, 0.5, Seq(tie, far, nearerTie))
      check(k, 0.5, 0.5, Seq(far, nearerTie, tie, tie.map(p => p.copy(id = p.id + 1000))))
    }
  }

  test("a k above the first arrays grows them and still selects exactly") {
    val rnd = new java.util.Random(11)
    for (k <- Seq(3000, 4090, 5000)) check(k, 0.3, 0.6, Seq.fill(300) {
      Seq.fill(B)(Point(rnd.nextLong(), rnd.nextDouble(), rnd.nextDouble()))
    })
  }
}

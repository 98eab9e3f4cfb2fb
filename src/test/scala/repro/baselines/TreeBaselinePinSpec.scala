package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.harness.{Harness, SpatialIndexApi}
import repro.spatial.Point

/** Pins what the three block-tree baselines (KDB, HRR, RR*) charge and
  * return over a fixed seeded mix, so a change to the shared tree core
  * or to the best-first traversal must keep every node visit and every
  * kNN answer as it is. The `>=` bounds of the per-tree specs would not
  * notice a changed descent or visiting order; these totals do.
  */
class TreeBaselinePinSpec extends AnyFunSuite {

  private lazy val base = SpatialData.local(SpatialData.OsmLike, 3000, seed = 21)
  private lazy val extra =
    SpatialData.local(SpatialData.Skewed, 1000, seed = 22).map(p => p.copy(id = p.id + 2000000))

  /** Per-kind access totals over five rounds, each of 200 inserts, 60
    * point queries (10 of absent points), 10 windows and 10 kNN queries
    * (k cycling through 1, 10 and 60); then the ids of three k = 10
    * answers, nearest first.
    */
  private def mix(t: SpatialIndexApi): (Seq[(String, Long)], Seq[Seq[Long]]) = {
    val rnd = new java.util.Random(23)
    val totals = scala.collection.mutable.LinkedHashMap(
      "insert" -> 0L, "point" -> 0L, "window" -> 0L, "knn" -> 0L)
    def counted(kind: String)(body: => Unit): Unit = {
      t.resetCounters(); body; totals(kind) += t.blockAccesses
    }
    for (round <- 0 until 5) {
      val batch = extra.slice(200 * round, 200 * (round + 1))
      val all = base ++ extra.take(200 * (round + 1))
      counted("insert")(batch.foreach(t.insert))
      counted("point") {
        (0 until 50).foreach { _ => val p = all(rnd.nextInt(all.length)); t.pointQuery(p.x, p.y) }
        (0 until 10).foreach { _ => t.pointQuery(rnd.nextDouble(), rnd.nextDouble()) }
      }
      val centers = SpatialData.queryCenters(all, 10, seed = 30 + round)
      counted("window")(centers.foreach(c => t.windowQuery(Harness.window(c.x, c.y, 0.002))))
      counted("knn")(centers.zipWithIndex.foreach { case (c, i) => t.knnQuery(c.x, c.y, Seq(1, 10, 60)(i % 3)) })
    }
    val probes = Seq(Point(-1, 0.5, 0.5), Point(-2, 0.1, 0.9), base(7))
    (totals.toSeq, probes.map(q => t.knnQuery(q.x, q.y, 10).map(_.id)))
  }

  private def check(t: SpatialIndexApi, sizeBytes: Long,
                    totals: Seq[(String, Long)], ids: Seq[Seq[Long]]): Unit = {
    val (gotTotals, gotIds) = mix(t)
    assert(gotTotals === totals)
    assert(gotIds === ids)
    assert(t.sizeBytes === sizeBytes)
  }

  // Every exact tree returns the same neighbours for the probes.
  private val probeIds = Seq(
    Seq[Long](1229, 2000444, 2000035, 514, 300, 2021, 2000651, 905, 2874, 318),
    Seq[Long](724, 478, 1133, 1731, 67, 2000372, 1087, 2829, 584, 1866),
    Seq[Long](7, 61, 857, 1669, 1589, 2000186, 998, 2227, 769, 2410))

  test("KDB accesses and kNN answers are pinned per query kind") {
    val t = KdbTree.build(base, B = 50)
    assert(t.height === 2)
    check(t, 105904L, Seq("insert" -> 2000L, "point" -> 601L, "window" -> 221L, "knn" -> 183L), probeIds)
    assert(t.height === 2)
  }

  test("HRR accesses and kNN answers are pinned per query kind") {
    val t = HrrTree.build(base, B = 50)
    assert(t.height === 3)
    check(t, 106960L, Seq("insert" -> 3000L, "point" -> 1131L, "window" -> 327L, "knn" -> 305L), probeIds)
    assert(t.height === 3)
  }

  test("RR* accesses and kNN answers are pinned per query kind") {
    val t = RStarTree.build(base, B = 50)
    assert(t.height === 3)
    check(t, 106960L, Seq("insert" -> 3000L, "point" -> 893L, "window" -> 259L, "knn" -> 222L), probeIds)
    assert(t.height === 3)
  }
}

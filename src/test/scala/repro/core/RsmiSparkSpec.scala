package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{BlockStore, Point}

/** The Spark build (root fit on a sample, every predicted cell planned
  * on an executor): equivalence with the driver builder's own plan and
  * pack, and the invariants every RSMI keeps.
  */
class RsmiSparkSpec extends SparkSpec {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 40, internalEpochs = 40)
  /** s = 2, and every one of the four root cells holds over N points. */
  private val overN = RsmiConfig(B = 50, N = 200, leafEpochs = 40, internalEpochs = 40)

  private lazy val df = SpatialData.generate(spark, SpatialData.Skewed, 8000).cache()
  private lazy val pts = SpatialData.collectPoints(df)
  private lazy val idx = RsmiSpark.build(df, cfg)
  private lazy val deep = RsmiSpark.build(df, overN)

  /** What the driver builder makes of `built`'s root: the same points
    * grouped by its model, each group sorted by id and planned at depth
    * 2 with the builder's seed, then packed under the same root.
    */
  private def driverReplay(built: Rsmi, c: RsmiConfig): Rsmi = {
    val root = built.root.asInstanceOf[InternalNode]
    val children = new Array[RsmiBuilder.Planned](root.cells)
    pts.groupBy(p => root.predictCell(p.x, p.y)).foreach { case (cell, g) =>
      children(cell) = RsmiBuilder.plan(g.sortBy(_.id), c, c.seed * 31 + cell + 1, depth = 2)
    }
    val store = new BlockStore(c.B)
    val node = RsmiBuilder.pack(RsmiBuilder.PlannedInternal(root.model, root.gridDim, children, root.mbr), store, c)
    new Rsmi(node, store, built.pmfX, built.pmfY, c, pts.length.toLong)
  }

  /** Same node kinds, child slots and leaves (firstBlk, numBlks, errL,
    * errA), and bit-identical predictions from every model on `pts`.
    */
  private def assertSameTree(a: RsmiNode, b: RsmiNode): Unit = {
    pts.foreach { p =>
      assert(java.lang.Double.doubleToRawLongBits(a.model.predict(p.x, p.y)) ===
             java.lang.Double.doubleToRawLongBits(b.model.predict(p.x, p.y)), s"prediction differs at $p")
    }
    (a, b) match {
      case (ia: InternalNode, ib: InternalNode) =>
        assert(ia.gridDim === ib.gridDim)
        assert(ia.children.map(_ == null).toSeq === ib.children.map(_ == null).toSeq)
        ia.children.indices.foreach { c =>
          if (ia.children(c) != null) assertSameTree(ia.children(c), ib.children(c))
        }
      case (la: LeafNode, lb: LeafNode) =>
        assert((la.firstBlk, la.numBlks, la.errL, la.errA) === (lb.firstBlk, lb.numBlks, lb.errL, lb.errA))
      case _ => fail(s"node kinds differ: ${a.getClass} vs ${b.getClass}")
    }
  }

  private def assertSameIndex(a: Rsmi, b: Rsmi): Unit = {
    def blockIds(i: Rsmi) = (0 until i.store.numBlocks).map(k => i.store.peek(k).points.map(_.id))
    assert(blockIds(a) === blockIds(b))
    assertSameTree(a.root, b.root)
  }

  test("Spark build equals the driver's plan and pack of the same root grouping") {
    assertSameIndex(idx, driverReplay(idx, cfg))
  }

  test("Spark build with every root cell over N equals the driver's plan and pack") {
    assertSameIndex(deep, driverReplay(deep, overN))
  }

  test("Spark build with every root cell over N: deeper sub-trees from executors") {
    val root = deep.root.asInstanceOf[InternalNode]
    assert(root.children.forall(_.isInstanceOf[InternalNode]))
    assert(deep.height >= 3)
    val stored = deep.store.allPoints.map(_.id)
    assert(stored.size === pts.length)
    assert(stored.toSet === pts.map(_.id).toSet)
    SpatialData.queryCenters(pts, 15).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(deep.windowQueryExact(r).map(_.id).toSet === Harness.truthWindow(pts, r))
    }
  }

  test("Spark build runs the same few jobs whatever the number of cells") {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    def jobsOf(c: RsmiConfig): Int = {
      ListenerDrain(sc)
      jobs.set(0)
      RsmiSpark.build(df, c)
      ListenerDrain(sc)
      jobs.get
    }
    sc.addSparkListener(listener)
    try {
      pts // the cached input is materialized before counting
      // 16 cells, 4 cells each over N, and 64 cells.
      val counts = Seq(cfg, overN, cfg.copy(B = 10)).map(jobsOf)
      assert(counts.distinct.size === 1, s"jobs per build: $counts")
      // Two each (shuffle map stage, result) for the aggregate, the
      // groupByKey and the quantiles, and one for the sample.
      assert(counts.head <= 7, s"jobs per build: $counts")
    } finally sc.removeSparkListener(listener)
  }

  test("Spark build indexes every point exactly once") {
    val stored = idx.store.allPoints
    assert(stored.size === pts.length)
    assert(stored.map(_.id).toSet === pts.map(_.id).toSet)
  }

  test("Spark-built index answers point queries for all points") {
    pts.foreach(p => assert(idx.pointQuery(p.x, p.y).contains(p), s"missing $p"))
  }

  test("Spark-built index has height >= 2 for n > N") {
    assert(idx.height >= 2)
  }

  test("Spark-built exact window query matches brute force") {
    SpatialData.queryCenters(pts, 15).foreach { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      assert(idx.windowQueryExact(r).map(_.id).toSet ===
             Harness.truthWindow(pts, r))
    }
  }

  test("Spark-built approximate window query: no false positives, good recall") {
    val recalls = SpatialData.queryCenters(pts, 20).map { q =>
      val r = Harness.window(q.x, q.y, 0.01)
      val got = idx.windowQuery(r)
      got.foreach(p => assert(r.contains(p)))
      Harness.recall(got, Harness.truthWindow(pts, r))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.75, s"avg recall $avg")
  }

  test("Spark-built kNN recall is high") {
    val recalls = SpatialData.queryCenters(pts, 20).map { q =>
      Harness.truthKnn(pts, q.x, q.y, 10).recall(idx.knnQuery(q.x, q.y, 10), q.x, q.y)
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.75, s"avg recall $avg")
  }

  test("small input (n <= N) degenerates to a single-leaf local build") {
    val small = SpatialData.generate(spark, SpatialData.Uniform, 500)
    val si = RsmiSpark.build(small, cfg)
    assert(si.height === 1)
    val sp = SpatialData.collectPoints(small)
    sp.foreach(p => assert(si.pointQuery(p.x, p.y).contains(p)))
  }

  test("Spark and local builds have comparable error bounds") {
    val localIdx = RsmiBuilder.build(pts, cfg)
    val (sl, sa) = idx.maxErrBounds
    val (ll, la) = localIdx.maxErrBounds
    // Not identical (sampled root training), but the same order of
    // magnitude: both bounded by the leaf block count.
    val cap = cfg.N / cfg.B * 4
    assert(sl <= cap && sa <= cap && ll <= cap && la <= cap)
  }
}

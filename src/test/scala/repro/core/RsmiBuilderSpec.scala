package repro.core

import java.util.concurrent.ForkJoinWorkerThread
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite
import repro.data.SpatialData
import repro.spatial.{BlockStore, Point}

/** The builder trains sub-trees in parallel and packs them on the
  * calling thread. These tests pin the result to the plain sequential
  * recursion over the same layers, and check the build's thread pool.
  */
class RsmiBuilderSpec extends AnyFunSuite {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)

  /** The §3.2 recursion on one thread, over the builder's own
    * `partition`, `trainLeaf` and `materializeLeaf` (24: the builder's
    * depth limit).
    */
  private def sequential(points: Array[Point], cfg: RsmiConfig): Rsmi = {
    val store = new BlockStore(cfg.B)
    def node(pts: Array[Point], seed: Long, depth: Int): RsmiNode =
      if (pts.length <= cfg.N || depth >= 24)
        RsmiBuilder.materializeLeaf(RsmiBuilder.trainLeaf(pts, cfg, seed), store, cfg)
      else {
        val (model, dim, groups, mbr) = RsmiBuilder.partition(pts, cfg, seed)
        val children = Array.tabulate[RsmiNode](dim * dim) { c =>
          if (groups(c) != null && groups(c).nonEmpty) node(groups(c), seed * 31 + c + 1, depth + 1) else null
        }
        new InternalNode(model, dim, children, mbr)
      }
    val root = node(points, cfg.seed, 1)
    store.chainOriginals()
    val (pmfX, pmfY) = Pmf.buildXY(points, cfg.gamma)
    new Rsmi(root, store, pmfX, pmfY, cfg, points.length.toLong)
  }

  /** Leaves in tree order as (firstBlk, numBlks, errL, errA). */
  private def leaves(idx: Rsmi): Seq[(Int, Int, Int, Int)] = {
    def walk(nd: RsmiNode): Seq[(Int, Int, Int, Int)] = nd match {
      case in: InternalNode => in.children.toSeq.filter(_ != null).flatMap(walk)
      case lf: LeafNode     => Seq((lf.firstBlk, lf.numBlks, lf.errL, lf.errA))
    }
    walk(idx.root)
  }

  private def blockIds(idx: Rsmi): Seq[Seq[Long]] =
    (0 until idx.store.numBlocks).map(b => idx.store.peek(b).points.map(_.id))

  /** Walks both trees in step: same node kinds, grid sizes, child slots
    * and MBRs, and every model gives bit-identical predictions on `pts`.
    */
  private def assertSameModels(a: RsmiNode, b: RsmiNode, pts: Array[Point]): Unit = {
    assert(a.getClass === b.getClass)
    assert(a.mbr === b.mbr)
    pts.foreach { p =>
      val pa = java.lang.Double.doubleToRawLongBits(a.model.predict(p.x, p.y))
      val pb = java.lang.Double.doubleToRawLongBits(b.model.predict(p.x, p.y))
      assert(pa === pb, s"prediction differs at $p")
    }
    (a, b) match {
      case (ia: InternalNode, ib: InternalNode) =>
        assert(ia.gridDim === ib.gridDim)
        assert(ia.children.map(_ == null).toSeq === ib.children.map(_ == null).toSeq)
        ia.children.indices.foreach { c =>
          if (ia.children(c) != null) assertSameModels(ia.children(c), ib.children(c), pts)
        }
      case _ =>
    }
  }

  private def assertSameIndex(a: Rsmi, b: Rsmi, pts: Array[Point]): Unit = {
    assert(leaves(a) === leaves(b))
    assert(blockIds(a) === blockIds(b))
    assert(a.numModels === b.numModels)
    assert(a.height === b.height)
    assertSameModels(a.root, b.root, pts)
  }

  private val inputs = Seq(
    "Skewed" -> SpatialData.local(SpatialData.Skewed, 20000),
    "OSM-like" -> SpatialData.local(SpatialData.OsmLike, 20000),
    "n just above N" -> SpatialData.local(SpatialData.Uniform, cfg.N + 1))

  for ((name, pts) <- inputs) {
    test(s"parallel build equals the sequential recursion ($name)") {
      val built = RsmiBuilder.build(pts, cfg)
      if (pts.length > cfg.N + 1) assert(built.height >= 3, "input should recurse at least 3 levels")
      assertSameIndex(built, sequential(pts, cfg), pts)
    }
  }

  test("two consecutive builds are identical") {
    val pts = inputs.head._2
    assertSameIndex(RsmiBuilder.build(pts, cfg), RsmiBuilder.build(pts, cfg), pts)
  }

  test("the stats of a fixed Skewed build are pinned") {
    val idx = RsmiBuilder.build(inputs.head._2, cfg)
    assert(idx.height === 3)
    assert(idx.numModels === 127)
    assert(java.lang.Double.doubleToRawLongBits(idx.avgDepth) === 4613191909552789914L) // 2.66875
    assert(idx.sizeBytes === 516872L)
    assert(idx.maxErrBounds === ((9, 11)))
  }

  private def poolThreads(): Set[Thread] =
    Thread.getAllStackTraces.keySet.asScala.filter(_.isInstanceOf[ForkJoinWorkerThread]).toSet

  test("no build thread outlives build") {
    val before = poolThreads()
    RsmiBuilder.build(SpatialData.local(SpatialData.Skewed, 5000), cfg)
    assert((poolThreads() -- before).isEmpty)
  }

  test("a failure inside the plan pass reaches the caller unchanged") {
    val pts = SpatialData.local(SpatialData.Uniform, 3000)
    pts(1234) = null
    val before = poolThreads()
    val e = intercept[NullPointerException](RsmiBuilder.build(pts, cfg))
    // Thrown on a pool worker and rethrown as is, not as a copy that
    // carries the original as its cause.
    assert(e.getCause === null)
    assert(e.getStackTrace.exists(_.getClassName == classOf[ForkJoinWorkerThread].getName))
    assert((poolThreads() -- before).isEmpty)
  }
}

package repro.core

import repro.spatial.{BlockStore, Point}

/** `RsmiBuilder.build` with a span around each layer call, for the
  * benchmark's traced run. It repeats the builder's recursion and calls
  * the builder's own `partition`, `trainLeaf`, `materializeLeaf` and
  * `Pmf.buildXY`; the traced run checks that it makes the same index as
  * `RsmiBuilder.build`. It lives in the library's package to reach the
  * package-private `partition`.
  */
object TracedBuild {

  /** Nanoseconds per layer, summed over builds. `rankNs` times an extra
    * `RankSpace.ranks` call per leaf partition, after the build: the
    * same work also runs inside `trainLeaf`, so it is a share of
    * `leafNs`.
    */
  final class Spans { var rankNs = 0L; var internalNs = 0L; var leafNs = 0L; var packNs = 0L; var pmfNs = 0L }

  def build(points: Array[Point], cfg: RsmiConfig, s: Spans): Rsmi = {
    val store = new BlockStore(cfg.B)
    val leaves = scala.collection.mutable.ArrayBuffer.empty[Array[Point]]
    def node(pts: Array[Point], seed: Long, depth: Int): RsmiNode =
      if (pts.length <= cfg.N || depth >= 24) { // 24: the builder's depth limit
        val t1 = System.nanoTime()
        val lr = RsmiBuilder.trainLeaf(pts, cfg, seed)
        val t2 = System.nanoTime()
        val leaf = RsmiBuilder.materializeLeaf(lr, store, cfg)
        s.leafNs += t2 - t1; s.packNs += System.nanoTime() - t2
        leaves += pts
        leaf
      } else {
        val t0 = System.nanoTime()
        val (model, dim, groups, mbr) = RsmiBuilder.partition(pts, cfg, seed)
        s.internalNs += System.nanoTime() - t0
        val children = new Array[RsmiNode](dim * dim)
        var c = 0
        while (c < groups.length) {
          if (groups(c) != null && groups(c).nonEmpty) children(c) = node(groups(c), seed * 31 + c + 1, depth + 1)
          c += 1
        }
        new InternalNode(model, dim, children, mbr)
      }
    val root = node(points, cfg.seed, 1)
    store.chainOriginals()
    val t0 = System.nanoTime()
    val (pmfX, pmfY) = Pmf.buildXY(points, cfg.gamma)
    s.pmfNs += System.nanoTime() - t0
    val built = new Rsmi(root, store, pmfX, pmfY, cfg, points.length.toLong)
    val t1 = System.nanoTime()
    leaves.foreach(RankSpace.ranks)
    s.rankNs += System.nanoTime() - t1
    built
  }
}

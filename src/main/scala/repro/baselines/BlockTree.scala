package repro.baselines

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.harness.SpatialIndexApi
import repro.spatial._

/** The block-tree core of the three tree baselines (KDB, HRR, RR*,
  * §6.1). Every node is one disk block of at most `B` entries, points
  * in a leaf or children in an inner node, and every node visit counts
  * one block access, inner nodes included, as in the paper's
  * accounting.
  *
  * Each node carries an MBR. For the R-trees (HRR, RR*) it is the
  * bounding box of the subtree; for KDB it is the node's region of the
  * space partition. Queries only descend by it: point and window
  * queries into every child whose box holds the point or meets the
  * window, kNN best-first ([[BestFirst]]) by MINDIST.
  *
  * Insertion descends from the root: it charges each node on the path,
  * widens the node's box to cover the point, picks the child through
  * [[chooseChild]] and, on the way back up, hands a node holding more
  * than `B` entries to [[split]]. A root that splits gets a new root
  * above its two halves. A tree supplies only its `build`,
  * `chooseChild` and `split`.
  */
abstract class BlockTree(val B: Int) extends SpatialIndexApi {
  import BlockTree._

  private[baselines] var root: Node = _
  private var accessCount: Long = 0L
  private def touch(): Unit = accessCount += 1

  final def blockAccesses: Long = accessCount
  final def resetCounters(): Unit = accessCount = 0L

  /** The child of `in` that receives `p`. */
  private[baselines] def chooseChild(in: Inner, p: Point): Node

  /** The two nodes that replace `nd`, which holds more than `B`
    * entries, or null to keep it as it is.
    */
  private[baselines] def split(nd: Node): (Node, Node)

  final def height: Int = {
    def h(n: Node): Int = n match {
      case _: Leaf   => 1
      case in: Inner => 1 + in.children.iterator.map(h).max
    }
    h(root)
  }

  final def sizeBytes: Long = {
    def sz(n: Node): Long = n match {
      case lf: Leaf  => 24L * lf.pts.length + 48L
      case in: Inner => 48L + in.children.iterator.map(c => 40L + sz(c)).sum
    }
    sz(root)
  }

  /** Searches every child whose box holds the point: boxes may overlap
    * (R-trees), and a KDB median cut puts a data point on the shared
    * boundary of two sibling regions.
    */
  final def pointQuery(x: Double, y: Double): Option[Point] = {
    def search(nd: Node): Option[Point] = {
      touch()
      nd match {
        case lf: Leaf =>
          val i = lf.indexOf(x, y)
          if (i >= 0) Some(lf.pts(i)) else None
        case in: Inner =>
          var ci = 0
          while (ci < in.children.length) {
            val c = in.children(ci)
            if (c.mbr.contains(x, y)) {
              val r = search(c)
              if (r.isDefined) return r
            }
            ci += 1
          }
          None
      }
    }
    search(root)
  }

  final def windowQuery(r: Rect): Seq[Point] = {
    val out = mutable.ArrayBuffer.empty[Point]
    def walk(nd: Node): Unit = {
      touch()
      nd match {
        case lf: Leaf =>
          var i = 0
          while (i < lf.pts.length) {
            val p = lf.pts(i)
            if (r.contains(p)) out += p
            i += 1
          }
        case in: Inner =>
          var ci = 0
          while (ci < in.children.length) {
            if (in.children(ci).mbr.intersects(r)) walk(in.children(ci))
            ci += 1
          }
      }
    }
    walk(root)
    ArraySeq.unsafeWrapArray(out.toArray)
  }

  /** Exact best-first kNN: children are queued in array order by
    * MINDIST², a leaf's points in slot order by distance².
    */
  final def knnQuery(qx: Double, qy: Double, k: Int): Seq[Point] =
    new BestFirst[Node](k, B) {
      protected def expand(nd: Node): Unit = {
        touch()
        nd match {
          case lf: Leaf =>
            var i = 0
            while (i < lf.pts.length) { pushPoint(lf.pts(i).dist2(qx, qy), i); i += 1 }
          case in: Inner =>
            var ci = 0
            while (ci < in.children.length) {
              val c = in.children(ci)
              pushNode(c.mbr.minDist2(qx, qy), c)
              ci += 1
            }
        }
      }
      protected def point(nd: Node, slot: Int): Point = nd.asInstanceOf[Leaf].pts(slot)
    }.knn(root, root.mbr.minDist2(qx, qy))

  final def insert(p: Point): Unit = {
    val halves = insertBelow(root, p)
    if (halves != null) root = Inner.of(Seq(halves._1, halves._2))
  }

  /** Inserts `p` into the subtree of `nd`; returns the two nodes `nd`
    * split into, or null.
    */
  private def insertBelow(nd: Node, p: Point): (Node, Node) = {
    touch()
    if (!nd.mbr.contains(p.x, p.y)) nd.mbr = nd.mbr.expand(p.x, p.y)
    val entries = nd match {
      case lf: Leaf =>
        lf.pts += p
        lf.pts.length
      case in: Inner =>
        val child = chooseChild(in, p)
        val halves = insertBelow(child, p)
        if (halves != null) {
          val idx = in.children.indexOf(child)
          in.children(idx) = halves._1
          in.children.insert(idx + 1, halves._2)
        }
        in.children.length
    }
    if (entries > B) split(nd) else null
  }
}

object BlockTree {
  private[baselines] sealed trait Node { var mbr: Rect }

  private[baselines] final class Leaf(val pts: mutable.ArrayBuffer[Point], var mbr: Rect) extends Node {
    def indexOf(x: Double, y: Double): Int = {
      var i = 0
      while (i < pts.length) {
        if (pts(i).x == x && pts(i).y == y) return i
        i += 1
      }
      -1
    }
  }

  private[baselines] object Leaf {
    /** A leaf whose box is the MBR of its points. */
    def of(ps: collection.Seq[Point]): Leaf = new Leaf(mutable.ArrayBuffer.from(ps), Rect.mbrOf(ps))
  }

  private[baselines] final class Inner(val children: mutable.ArrayBuffer[Node], var mbr: Rect) extends Node

  private[baselines] object Inner {
    /** An inner node whose box is the union of its children's. */
    def of(cs: collection.Seq[Node]): Inner =
      new Inner(mutable.ArrayBuffer.from(cs), cs.foldLeft(Rect.empty)((r, c) => r.union(c.mbr)))
  }

  /** The R-tree ChooseSubtree rule: the child whose box grows least in
    * area to cover `p`, ties to the smaller box, then to the first.
    */
  private[baselines] def leastEnlargement(in: Inner, p: Point): Node = {
    var best: Node = null
    var bestEnl = Double.PositiveInfinity
    var bestArea = Double.PositiveInfinity
    var ci = 0
    while (ci < in.children.length) {
      val c = in.children(ci)
      val enl = c.mbr.expand(p.x, p.y).area - c.mbr.area
      if (enl < bestEnl || (enl == bestEnl && c.mbr.area < bestArea)) {
        best = c; bestEnl = enl; bestArea = c.mbr.area
      }
      ci += 1
    }
    best
  }
}

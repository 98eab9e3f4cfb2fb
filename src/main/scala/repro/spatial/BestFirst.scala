package repro.spatial

/** Generic best-first kNN traversal [Roussopoulos et al. 1995],
  * shared by the tree baselines (KDB, HRR, RR*). RSMIa's
  * `Rsmi.knnQueryExact` runs the same traversal with its own queue.
  *
  * The priority queue holds both index entries (`Left`, keyed by
  * MINDIST of their region) and points (`Right`, keyed by actual
  * distance). When a point reaches the head of the queue no unexpanded
  * entry can contain anything closer, so it is a confirmed neighbour.
  */
object BestFirst {

  /** @param expand given an entry, emit (mindist², child) index entries
    *               and the points it directly contains; the caller
    *               performs its own block-access accounting inside.
    */
  def knn[N](qx: Double, qy: Double, k: Int, root: N, rootDist2: Double)(
      expand: N => (Seq[(Double, N)], Seq[Point])): Seq[Point] = {
    require(k >= 1)
    final case class E(d2: Double, entry: Either[N, Point])
    val pq = new java.util.PriorityQueue[E](64,
      (a: E, b: E) => java.lang.Double.compare(a.d2, b.d2))
    pq.add(E(rootDist2, Left(root)))
    val out = scala.collection.mutable.ArrayBuffer.empty[Point]
    while (out.size < k && !pq.isEmpty) {
      pq.poll().entry match {
        case Right(p) => out += p
        case Left(n) =>
          val (children, points) = expand(n)
          children.foreach { case (d2, c) => pq.add(E(d2, Left(c))) }
          points.foreach(p => pq.add(E(p.dist2(qx, qy), Right(p))))
      }
    }
    out.toSeq
  }
}

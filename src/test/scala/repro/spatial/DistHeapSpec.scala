package repro.spatial

import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite

/** [[DistHeap]] against `java.util.PriorityQueue` with a key-only
  * comparator: for the same pushes and pops, the popped (key, ref)
  * sequence is identical, ties included. So best-first kNN
  * ([[BestFirst]]) pops its nodes in the order a `PriorityQueue` of the
  * same nodes would, ties included.
  */
class DistHeapSpec extends AnyFunSuite {

  private final class Entry(val key: Double, val ref: Long)

  /** Runs `ops` random operations, pushes of keys drawn from `distinct`
    * values or pops (when non-empty), and compares every pop.
    */
  private def check(seed: Long, distinct: Int, ops: Int, popShare: Double, capacity: Int = 1): Unit = {
    val rnd = new java.util.Random(seed)
    val heap = new DistHeap(capacity)
    val pq = new java.util.PriorityQueue[Entry](
      (a: Entry, b: Entry) => java.lang.Double.compare(a.key, b.key))
    val popped = ArrayBuffer.empty[(Double, Long)]
    val expected = ArrayBuffer.empty[(Double, Long)]
    var next = 0L
    def pop(): Unit = {
      popped += ((heap.topKey, heap.topRef))
      heap.pop()
      val e = pq.poll()
      expected += ((e.key, e.ref))
    }
    (0 until ops).foreach { _ =>
      if (!pq.isEmpty && rnd.nextDouble() < popShare) pop()
      else {
        val key = rnd.nextInt(distinct).toDouble / 4
        heap.push(key, next)
        pq.add(new Entry(key, next))
        next += 1
      }
      assert(heap.size === pq.size)
    }
    while (!pq.isEmpty) pop()
    assert(heap.isEmpty)
    assert(popped === expected, s"seed=$seed distinct=$distinct popShare=$popShare capacity=$capacity")
  }

  test("pops in PriorityQueue order under heavy ties, pushes and pops interleaved") {
    for (seed <- 1L to 20L; distinct <- Seq(1, 2, 3, 7); popShare <- Seq(0.2, 0.45))
      check(seed, distinct, ops = 600, popShare)
  }

  test("pops in PriorityQueue order with mostly distinct keys") {
    for (seed <- 21L to 30L) check(seed, distinct = 100000, ops = 2000, popShare = 0.3)
  }

  test("pops in PriorityQueue order when everything is pushed first") {
    for (seed <- 31L to 40L; distinct <- Seq(1, 4, 50)) check(seed, distinct, ops = 500, popShare = 0.0)
  }

  test("pops in PriorityQueue order whatever room it starts with") {
    for (seed <- 41L to 45L; capacity <- Seq(1, 64, 300, 4096))
      check(seed, distinct = 5, ops = 1500, popShare = 0.25, capacity)
  }
}

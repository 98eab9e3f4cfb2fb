package repro.harness

import repro.core.Rsmi
import repro.spatial.{Point, Rect}

/** RSMIa (§4.2 end, §6.2.3): the same structure as [[Rsmi]], which is
  * its own `SpatialIndexApi` with the approximate query paths of §4,
  * answering windows and kNN exactly via the per-sub-model MBR
  * traversal.
  */
final class RsmiaAdapter(val rsmi: Rsmi) extends SpatialIndexApi {
  val name = "RSMIa"
  def pointQuery(x: Double, y: Double): Option[Point] = rsmi.pointQuery(x, y)
  def windowQuery(r: Rect): Seq[Point] = rsmi.windowQueryExact(r)
  def knnQuery(x: Double, y: Double, k: Int): Seq[Point] = rsmi.knnQueryExact(x, y, k)
  def insert(p: Point): Unit = rsmi.insert(p)
  def blockAccesses: Long = rsmi.blockAccesses
  def resetCounters(): Unit = rsmi.resetCounters()
  def sizeBytes: Long = rsmi.sizeBytes
}

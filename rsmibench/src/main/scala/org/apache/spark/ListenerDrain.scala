package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so a
  * listener's counts are complete when read. The bus is private to
  * Spark; this object lives in Spark's package to reach it.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

package org.apache.spark

/** Blocks until every event posted so far has reached the registered
  * listeners. The listener bus is only reachable from this package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

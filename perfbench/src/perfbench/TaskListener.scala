package perfbench

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Per-task and per-stage records of the Spark jobs run since the last
  * `take`, for the traced run's spark.* metrics.
  */
final class TaskListener extends SparkListener {
  final case class Task(stage: Int, durationMs: Long, runMs: Long, shuffleWrite: Long, shuffleRead: Long)

  private val tasks = mutable.ArrayBuffer.empty[Task]
  private var stages = 0

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    tasks += Task(e.stageId, e.taskInfo.duration,
      if (m == null) 0L else m.executorRunTime,
      if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten,
      if (m == null) 0L else m.shuffleReadMetrics.totalBytesRead)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  /** Stages completed and tasks ended since the previous call. */
  def take(sc: org.apache.spark.SparkContext): (Int, Seq[Task]) = {
    org.apache.spark.ListenerDrain(sc)
    synchronized {
      val out = (stages, tasks.toList)
      stages = 0; tasks.clear()
      out
    }
  }
}

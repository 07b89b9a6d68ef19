package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** One Spark job as the listener saw it: the layer it was tagged with
  * (`null` when the submitting thread carried no tag), its submission and
  * completion wall-clock times, and the work of the tasks it ran.
  */
final case class JobRec(id: Int, layer: String, startMs: Long, endMs: Long,
                        tasks: Int, taskMs: Long, shuffleBytes: Long)

/** Records every Spark job with the layer tag the benchmark set as a
  * thread-local property before calling into that layer. Listener events
  * arrive asynchronously, in order; [[LayerListener.sync]] waits for them.
  */
final class LayerListener extends SparkListener {
  private final class Acc(val id: Int, val layer: String, val start: Long) {
    var end = -1L; var tasks = 0; var taskMs = 0L; var shuffle = 0L
  }
  private val jobs = mutable.LinkedHashMap[Int, Acc]()
  // A stage reused by a later job is skipped there; its tasks belong to
  // the job that ran it first.
  private val stageJob = mutable.Map[Int, Int]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).map(_.getProperty(LayerListener.Prop)).orNull
    jobs(e.jobId) = new Acc(e.jobId, layer, e.time)
    e.stageIds.foreach(s => stageJob.getOrElseUpdate(s, e.jobId))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageJob.get(e.stageId); a <- jobs.get(j); m <- Option(e.taskMetrics)) {
      a.tasks += 1
      a.taskMs += m.executorRunTime
      a.shuffle += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  def snapshot(): Vector[JobRec] = synchronized {
    jobs.values.map(a => JobRec(a.id, a.layer, a.start, a.end, a.tasks, a.taskMs, a.shuffle)).toVector
  }
}

object LayerListener {
  /** The local property that carries a job's layer tag. */
  val Prop = "perfbench.layer"
}

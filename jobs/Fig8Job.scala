package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint for the Fig. 8 tables: running time vs database
  * size (OSM-like, fixed r) and vs budget (the bench database) for RL4QDTS
  * and the skyline methods.
  * Usage: Fig8Job [sizes, comma-separated trajectory counts]
  */
object Fig8Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-fig8").getOrCreate()
    val sizes = if (args.nonEmpty) args(0).split(",").map(_.toInt).toSeq else Experiments.fig8Sizes
    val agents = Experiments.trainAgents()
    Experiments.fig8a(agents, sizes)._1.print()
    Experiments.fig8b(Experiments.benchDb(), agents)._1.print()
    spark.stop()
  }
}

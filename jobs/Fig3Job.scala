package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint for the Fig. 3 table: all 25 EDTS baseline
  * adaptations + RL4QDTS on the five query tasks (data distribution).
  * Usage: Fig3Job [nTrajs]
  */
object Fig3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-fig3").getOrCreate()
    val db = Experiments.benchDb(if (args.nonEmpty) args(0).toInt else 100)
    Experiments.fig3(new Experiments.Evaluator(db, "data"), Experiments.trainAgents(),
      Experiments.trainRltsBaselines(), rlRuns = 3)._1.print()
    spark.stop()
  }
}

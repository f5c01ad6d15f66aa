package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint for the Fig. 4 tables: RL4QDTS vs the skyline
  * baselines across storage budgets, five query tasks under the data
  * distribution and range queries under the Gaussian distribution.
  * Usage: Fig4Job [nTrajs]
  */
object Fig4Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-fig4").getOrCreate()
    val db = Experiments.benchDb(if (args.nonEmpty) args(0).toInt else 100)
    val agents = Experiments.trainAgents()
    Experiments.fig4Data(new Experiments.Evaluator(db, "data"), agents, runs = 3)._1.print()
    Experiments.fig4Gauss(new Experiments.Evaluator(db, "gaussian"), agents,
      Experiments.trainRltsBaselines(), runs = 3)._1.print()
    spark.stop()
  }
}

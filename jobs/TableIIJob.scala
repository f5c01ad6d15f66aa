package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint for Table II: the RL4QDTS ablation study
  * (range-query F1 and wall time for the four agent configurations).
  * Usage: TableIIJob [nTrajs] [runs]
  */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-table2").getOrCreate()
    val db = Experiments.benchDb(if (args.nonEmpty) args(0).toInt else 100)
    val runs = if (args.length > 1) args(1).toInt else 5
    Experiments.tableII(new Experiments.Evaluator(db, "gaussian"), Experiments.trainAgents(), runs)._1.print()
    spark.stop()
  }
}

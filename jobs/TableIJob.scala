package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoint for Table I: dataset statistics of the four
  * synthetic stand-in profiles (paper numbers alongside).
  * Usage: TableIJob [nTrajsPerProfile]
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-table1").getOrCreate()
    val sizes =
      if (args.nonEmpty) Experiments.tableISizes.transform((_, _) => args(0).toInt)
      else Experiments.tableISizes
    Experiments.tableI(spark, sizes)._1.print()
    spark.stop()
  }
}

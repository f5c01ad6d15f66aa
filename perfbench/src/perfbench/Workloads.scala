package perfbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Box, Model, QdtsParams, RL4QDTS, Traj, Training}
import repro.data.TrajGen
import repro.queries.{RangeQuery, Workload}

/** The two workloads. Every input is stated here literally — profiles,
  * sizes, seeds, hyper-parameters and each workload's budget rule — rather
  * than read from library defaults, so a refactor of those defaults cannot
  * shift a workload. The values equal the library's bench settings at the
  * time the benchmark was written (Experiments.benchProfile, benchParams,
  * paramsFor, the Fig. 8 sweep).
  */
object Workloads {

  /** Experiments.benchProfile: Geolife-like, 1,412 points per trajectory, 6 h span. */
  val geolifeProfile: TrajGen.Profile =
    TrajGen.Profile("geolife", 500, 1412, 0.5, 3.0, 0.4, 10.0, 40000.0, 5, 2500.0, 6 * 3600.0, 0.1)

  /** TrajGen.osm: long community traces over a wide area. */
  val osmProfile: TrajGen.Profile =
    TrajGen.Profile("osm", 900, 450, 0.6, 53.5, 0.5, 180.0, 100000.0, 12, 8000.0, 7 * 86400.0, 0.45)

  /** Experiments.benchParams: S=3, E=8, K=2, Δ=50. */
  val benchParams: QdtsParams = QdtsParams(startLevel = 3, maxLevel = 8, k = 2, delta = 50, leafCap = 32)

  /** The training run every set-up makes and every run times: 3 DBs × 50
    * trajectories × 2 episodes, budget 1%, 100 queries, 16 steps per window.
    */
  val trainConfig: Training.TrainConfig = Training.TrainConfig(
    profile = geolifeProfile, nDbs = 3, trajsPerDb = 50, episodesPerDb = 2,
    budgetFrac = 0.01, nQueries = 100, querySizeXY = 2000.0, queryTFrac = 1.0,
    workloadKind = "data", params = benchParams, rewardScale = 100.0,
    trainStepsPerWindow = 16, seed = 99)

  val nQueries = 100
  val querySizeXY = 2000.0
  /** Spark path: simplifySpark with 4 groups on local[4]. */
  val nGroups = 4

  /** One workload: its database, budget rule W(db), the budget fraction
    * handed to the Spark path, octree/agent hyper-parameters, and the seed of
    * its 100-query data-distribution inference workload.
    */
  final case class Spec(name: String, gen: () => Array[Traj], budget: Array[Traj] => Int,
                        frac: Double, params: QdtsParams, inferSeed: Long)

  private def n(db: Array[Traj]): Long = Model.totalPoints(db)

  val specs: Seq[Spec] = Seq(
    // Experiments.benchDb: 100 trajectories, N = 135,128; W = 2%N = 2,702;
    // the Fig. 8(b) inference workload
    Spec("geolife-2pct", () => TrajGen.genLocal(geolifeProfile, 100, 123456L),
      db => math.floor(0.02 * n(db)).toInt, 0.02, benchParams, inferSeed = 881L),
    // Fig. 8(a)'s largest size: 800 trajectories, N = 350,481;
    // W = max(2|D|+10, 0.5%N) = 1,752; S = 4 as paramsFor(N) gives
    Spec("osm-build", () => TrajGen.genLocal(osmProfile, 800, 777L),
      db => math.max(2 * db.length + 10, math.floor(0.005 * n(db)).toInt), 0.005,
      QdtsParams(startLevel = 4, maxLevel = 8, k = 2, delta = 50, leafCap = 32), inferSeed = 778L))

  def byName(name: String): Spec =
    specs.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"unknown workload $name"))

  /** Seed of the held-out evaluation workload (Experiments.Evaluator's). */
  val evalSeed = 2024L

  /** Seeds the calls cycle over: the only inputs `--seed` varies. The
    * inference workload stays fixed per workload because it sets the
    * start-cube weights, and with them most of the work of a call (points
    * scanned per call vary by ±15% between 100-query draws on geolife-2pct,
    * by ±2% between call seeds).
    */
  def callSeeds(seed: Long): IndexedSeq[Long] = (0 until 4).map { i =>
    // SplitMix64 finaliser
    var z = seed * 0x9e3779b97f4a7c15L + (100L + i) * 0xbf58476d1ce4e5b9L + 0x94d049bb133111ebL
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    (z ^ (z >>> 31)) & 0xffffffffL
  }

  def span(db: Array[Traj]): Double = {
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    math.max(tmax - tmin, 1.0)
  }
}

/** A local[4] SparkSession with the workload database cached as the points
  * relation (traj_id, idx, x, y, t).
  */
final class SparkRig(val session: SparkSession, val points: DataFrame) {
  /** Registered on first use, so only the traced run pays for it. */
  lazy val listener: TaskListener = {
    val l = new TaskListener
    session.sparkContext.addSparkListener(l)
    l
  }

  def simplify(frac: Double, agents: Training.TrainedAgents, params: QdtsParams, seed: Long): DataFrame =
    RL4QDTS.simplifySpark(points, frac, agents.cubeNet.snapshot, agents.pointNet.snapshot, params,
      Workloads.nGroups, Workloads.nQueries, Workloads.querySizeXY, seed)

  /** Drops the cached points and keeps the session for the next set-up. */
  def release(): Unit = points.unpersist(blocking = true)

  def close(): Unit = session.stop()
}

object SparkRig {
  /** Starts the session, or reuses the one a released rig left running. */
  def start(db: Array[Traj], workDir: Path): SparkRig = {
    val session = SparkSession.builder
      .master(s"local[${Workloads.nGroups}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    val points = Model.toDF(session, db.toSeq).cache()
    points.count()
    new SparkRig(session, points)
  }
}

/** Everything one set-up of a workload produces: the database and its
  * budget, agents trained with `trainConfig`, the inference query workload
  * the environment is built with, a held-out evaluation workload with its
  * ground truth, and a Spark session with the database cached. A set-up
  * after a released one reuses its Spark session.
  */
final class Setup(val db: Array[Traj], val w: Int,
                  val agents: Training.TrainedAgents, val trainS: Double,
                  val infer: Array[Box], val evalQs: Array[Box], val evalGt: Array[Set[Long]],
                  val spark: SparkRig) {
  val nPoints: Long = Model.totalPoints(db)
  // agents.cubeNet/pointNet rebuild the network on every access
  val cubeNet: repro.rl.MLP = agents.cubeNet
  val pointNet: repro.rl.MLP = agents.pointNet

  def release(): Unit = spark.release()

  def close(): Unit = spark.close()
}

object Setup {
  def build(spec: Workloads.Spec, t: Tracer, workDir: Path): Setup = {
    val db = t.span(t.id("trajgen.gen"))(spec.gen())
    val t0 = System.nanoTime()
    val agents = t.span(t.id("train.train"))(Training.train(Workloads.trainConfig))
    val trainS = (System.nanoTime() - t0) / 1e9
    val sp = Workloads.span(db)
    val infer = Workload.dataDist(db, Workloads.nQueries, Workloads.querySizeXY, sp, spec.inferSeed)
    val evalQs = Workload.dataDist(db, Workloads.nQueries, Workloads.querySizeXY, sp, Workloads.evalSeed)
    val evalGt = t.span(t.id("eval.range_gt"))(evalQs.map(RangeQuery.inMemory(db, _)))
    val spark = t.span(t.id("spark.start"))(SparkRig.start(db, workDir))
    new Setup(db, spec.budget(db), agents, trainS, infer, evalQs, evalGt, spark)
  }
}

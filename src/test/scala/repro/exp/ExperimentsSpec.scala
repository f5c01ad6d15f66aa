package repro.exp

import repro.SparkSpec
import repro.baselines.Baselines
import repro.core.{Model, Training}
import repro.data.TrajGen

/** Tests of the shared experiment harness (evaluator, adaptive parameters,
  * budget rule, table rendering) and, at toy scale, of each experiment
  * function that the bench suites and jobs call.
  */
class ExperimentsSpec extends SparkSpec {

  // small but non-trivial database in the bench profile family
  private lazy val db = TrajGen.genLocal(Experiments.benchProfile.copy(avgLen = 150), 20, 9)

  test("paramsFor scales the start level with database size") {
    assert(Experiments.paramsFor(50_000).startLevel === 3)
    assert(Experiments.paramsFor(135_000).startLevel === 3)
    assert(Experiments.paramsFor(350_000).startLevel === 4)
    assert(Experiments.paramsFor(3_000_000).startLevel === 5)
    // never beyond maxLevel - 1
    assert(Experiments.paramsFor(Long.MaxValue / 4).startLevel
      <= Experiments.benchParams.maxLevel - 1)
  }

  test("evaluator range queries have non-empty ground truths") {
    val ev = new Experiments.Evaluator(db, "data", nRange = 20, nKnn = 2, nSim = 2, clusterTrajs = 10)
    assert(ev.rangeQs.length === 20)
    assert(ev.gtSummary.contains("rangeGT(nonempty)=20/20"))
  }

  test("the identity simplification scores (near) perfect on every task") {
    val ev = new Experiments.Evaluator(db, "data", nRange = 15, nKnn = 2, nSim = 2, clusterTrajs = 8)
    val identity = repro.core.SimpleDB(db.map(t => t.id -> Array.tabulate(t.length)(i => i)).toMap)
    val f1 = ev.evaluate(identity)
    assert(f1.range === 1.0)
    assert(f1.knnEdr === 1.0 && f1.knnEmbed === 1.0)
    assert(f1.similarity === 1.0)
    assert(f1.clustering === 1.0)
  }

  test("endpoint-only simplification scores within [0,1] and below identity on range") {
    val ev = new Experiments.Evaluator(db, "data", nRange = 15, nKnn = 2, nSim = 2, clusterTrajs = 8)
    val f1 = ev.evaluate(Model.firstLast(db))
    for (v <- Seq(f1.range, f1.knnEdr, f1.knnEmbed, f1.similarity, f1.clustering))
      assert(v >= 0.0 && v <= 1.0)
    assert(f1.range < 1.0) // straight-line 2-point trajectories must lose some queries
  }

  test("rangeF1 agrees with the range component of evaluate") {
    val ev = new Experiments.Evaluator(db, "data", nRange = 10, nKnn = 2, nSim = 2, clusterTrajs = 6)
    val s = Model.firstLast(db)
    assert(math.abs(ev.rangeF1(s) - ev.evaluate(s).range) < 1e-12)
  }

  test("meanSedOfReturned is 0 for identity and positive for endpoints-only") {
    val ev = new Experiments.Evaluator(db, "data", nRange = 10, nKnn = 2, nSim = 2, clusterTrajs = 6)
    val identity = repro.core.SimpleDB(db.map(t => t.id -> Array.tabulate(t.length)(i => i)).toMap)
    assert(ev.meanSedOfReturned(identity) === 0.0)
    assert(ev.meanSedOfReturned(Model.firstLast(db)) > 0.0)
  }

  test("printTable renders all rows and columns") {
    val s = Experiments.printTable("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("| a  | bb |"))
    assert(s.contains("| 33 | 4  |"))
  }

  test("time measures wall time") {
    val (v, t) = Experiments.time { Thread.sleep(30); 42 }
    assert(v === 42 && t >= 0.025)
  }

  test("budget is r*N, floored at 2|D|+10") {
    val n = Model.totalPoints(db)
    assert(Experiments.budget(db, 0.0025) === 2 * db.length + 10) // 0.25% of ~3k points binds the floor
    assert(Experiments.budget(db, 0.5) === (0.5 * n).toInt)
    assert(Experiments.budget(db, 0.5) > 2 * db.length + 10)
  }

  // ---- each experiment at toy scale: untrained agents, one run ----
  private lazy val toyDb = TrajGen.genLocal(Experiments.benchProfile.copy(avgLen = 60), 10, 5)
  private lazy val evData = new Experiments.Evaluator(toyDb, "data", nRange = 10, nKnn = 2, nSim = 2, clusterTrajs = 6)
  private lazy val evGauss = new Experiments.Evaluator(toyDb, "gaussian", nRange = 10, nKnn = 2, nSim = 2, clusterTrajs = 6)
  private lazy val agents = Training.makeAgents(Experiments.benchParams)
  private lazy val rlts = Baselines.trainRlts(toyDb.take(3), budgetFrac = 0.05, episodes = 1)
  private val fig8Names = Seq("Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(E,SED)", "Bottom-Up(W,PED)", "RL4QDTS")

  private def assertShape(t: Experiments.Table, names: Seq[String], nameCol: Int, nCols: Int): Unit = {
    assert(t.rows.map(_(nameCol)) === names)
    assert(t.header.length === nCols)
    assert(t.rows.forall(_.length === nCols))
  }

  test("tableI reports every profile with its statistics") {
    val (t, stats) = Experiments.tableI(spark, Map("geolife" -> 3, "tdrive" -> 3, "chengdu" -> 5, "osm" -> 2))
    assertShape(t, Seq("Geolife", "T-Drive", "Chengdu", "OSM"), 0, 6)
    assert(stats("chengdu").nTrajs === 5 && stats("osm").nTrajs === 2)
  }

  test("tableII reports the four ablation variants under the Gaussian workload only") {
    val (t, f1, time) = Experiments.tableII(evGauss, agents, runs = 1)
    val variants = Seq("RL4QDTS", "w/o Agent-Cube", "w/o Agent-Point", "w/o Agent-Cube and Agent-Point")
    assertShape(t, variants, 0, 5)
    assert(f1.keySet === variants.toSet && time.keySet === variants.toSet)
    intercept[IllegalArgumentException](Experiments.tableII(evData, agents, runs = 1))
  }

  test("fig3 reports the 25 baselines and RL4QDTS on five tasks") {
    val (t, base, rl) = Experiments.fig3(evData, agents, rlts, rlRuns = 1)
    val names = Baselines.all(rlts).map(_.name)
    assert(names.length === 25)
    assertShape(t, names :+ "RL4QDTS", 0, 6)
    assert(base.map(_._1) === names)
    assert(rl.range >= 0.0 && rl.range <= 1.0)
  }

  test("fig4Data sweeps the data skyline and RL4QDTS over every budget") {
    val (t, rl, best) = Experiments.fig4Data(evData, agents, runs = 1)
    val names = Seq("Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(W,PED)", "Bottom-Up(E,DAD)",
      "Bottom-Up(E,SED)", "RL4QDTS")
    assertShape(t, Experiments.budgets.flatMap(_ => names), 1, 7)
    assert(rl.keySet === Experiments.budgets.toSet && best.keySet === Experiments.budgets.toSet)
  }

  test("fig4Gauss sweeps the Gaussian skyline and RL4QDTS over every budget") {
    val (t, rl, best) = Experiments.fig4Gauss(evGauss, agents, rlts, runs = 1)
    val names = Seq("Bottom-Up(E,SED)", "RLTS+(E,SED)", "Bottom-Up(E,PED)", "Top-Down(E,PED)", "RL4QDTS")
    assertShape(t, Experiments.budgets.flatMap(_ => names), 1, 3)
    assert(rl.keySet === Experiments.budgets.toSet && best.keySet === Experiments.budgets.toSet)
  }

  test("fig8a times every method at every database size") {
    val sizes = Seq(1, 2)
    val (t, times) = Experiments.fig8a(agents, sizes)
    assertShape(t, sizes.flatMap(_ => fig8Names), 1, 3)
    assert(times.keySet === fig8Names.toSet && times.values.forall(_.length == sizes.length))
  }

  test("fig8b times every method at every budget") {
    val (t, times) = Experiments.fig8b(toyDb, agents)
    assertShape(t, Experiments.budgets.flatMap(_ => fig8Names), 1, 3)
    assert(times.size === Experiments.budgets.length * fig8Names.length)
  }
}

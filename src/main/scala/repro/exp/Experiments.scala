package repro.exp

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TrajGen
import repro.baselines.{Baselines, RltsPlus}
import repro.queries._
import repro.traj.ErrorMeasures.Measure

/** Shared experiment harness used by the `bench` suites (one per paper table)
  * and the `jobs/` spark-submit entrypoints.
  *
  * Scale: the paper benchmarks on ~1.5M-point databases; the repro default is
  * a ~110k-point Geolife-like database (override with env BENCH_TRAJS). The
  * temporal span is compressed to 6h so trajectories co-occur in time (the
  * paper's taxi datasets are temporally dense), which keeps kNN/similarity/
  * clustering queries non-trivial.
  */
object Experiments {

  def envInt(name: String, dflt: Int): Int = sys.env.get(name).map(_.toInt).getOrElse(dflt)

  /** Geolife-like bench profile: full-length trajectories (1412 points as in
    * Table I) with near-persistent headings (real trips are road-directed, not
    * diffusive), giving multi-km spatial extents — long relative to the 2 km
    * query boxes, the regime in which simplification actually costs query
    * recall — and a compressed span (see scaladoc).
    */
  val benchProfile: TrajGen.Profile =
    TrajGen.geolife.copy(avgLen = 1412, spanSec = 6 * 3600.0, turnSigma = 0.1)

  /** S=3 at repro scale: stop-only quality falls with cube depth (the cube
    * partition exists for efficiency), and from level 3 an adaptive descent
    * toward query-concentrated children genuinely improves F1 — the regime in
    * which Agent-Cube has something to learn, mirroring the paper's S=9/E=12
    * at 1.5M points.
    */
  val benchParams: QdtsParams = QdtsParams(startLevel = 3, maxLevel = 8, k = 2, delta = 50, leafCap = 32)

  /** Density-adaptive start level: the paper sets S so that start cubes do not
    * hold excessive numbers of points (S=9 at 1.5M points); this picks S so a
    * start cube holds ~2k points (S=3 at the 135k-point bench database) and is
    * used by the scalability sweep where N varies.
    */
  def paramsFor(nPoints: Long): QdtsParams = {
    val extra = math.ceil(math.log(nPoints / 150000.0) / math.log(8.0)).toInt
    val s = 3 + math.max(0, extra)
    benchParams.copy(startLevel = math.min(s, benchParams.maxLevel - 1))
  }

  /** Test-split database (seed disjoint from every training seed). */
  def benchDb(nTrajs: Int = envInt("BENCH_TRAJS", 100), seed: Long = 123456L,
              profile: TrajGen.Profile = benchProfile): Array[Traj] =
    TrajGen.genLocal(profile, nTrajs, seed)

  /** Train RL4QDTS agents with the bench configuration (few small databases,
    * scaled-down analogue of the paper's 12 x 500-trajectory training setup).
    */
  def trainAgents(profile: TrajGen.Profile = benchProfile,
                  workloadKind: String = "data",
                  budgetFrac: Double = 0.01,
                  seed: Long = 99): Training.TrainedAgents =
    Training.train(Training.TrainConfig(
      profile = profile,
      nDbs = envInt("BENCH_TRAIN_DBS", 12),
      trajsPerDb = envInt("BENCH_TRAIN_TRAJS", 50),
      episodesPerDb = envInt("BENCH_TRAIN_EPISODES", 10),
      budgetFrac = budgetFrac,
      nQueries = 100,
      querySizeXY = 2000.0,
      workloadKind = workloadKind,
      params = benchParams,
      trainStepsPerWindow = 16,
      seed = seed))

  /** Train the RLTS+ baselines (one policy per measure) on a training split. */
  def trainRltsBaselines(profile: TrajGen.Profile = benchProfile, seed: Long = 555): Map[Measure, RltsPlus] = {
    val trainDb = TrajGen.genLocal(profile, envInt("BENCH_RLTS_TRAJS", 12), seed)
    Baselines.trainRlts(trainDb, budgetFrac = 0.05, episodes = 1)
  }

  /** Per-task F1 of one simplified database against the original. */
  final case class TaskF1(range: Double, knnEdr: Double, knnEmbed: Double,
                          similarity: Double, clustering: Double) {
    def fmt: String = f"range=$range%.3f knnEDR=$knnEdr%.3f knnEmb=$knnEmbed%.3f " +
      f"sim=$similarity%.3f clus=$clustering%.3f"
  }

  /** Fixed query workloads + their ground truths on the original database;
    * `evaluate` scores any simplified database against them (Section III-B
    * quality measures). Built once per (db, distribution) and reused across
    * methods so every method faces identical queries.
    */
  final class Evaluator(val db: Array[Traj], val workloadKind: String, seed: Long = 2024,
                        nRange: Int = 100, nKnn: Int = 8, nSim: Int = 10,
                        knnK: Int = 3, clusterTrajs: Int = 150) {

    // --- range queries (paper: 2km x 2km x 7 days ~= the whole span) ---
    // rejection-sample to non-empty ground truths: data-distribution queries
    // are non-empty by construction, and empty-result queries score F1=1 for
    // every method, only diluting the measure
    val rangeQs: Array[Box] = {
      val raw = Workload.generate(workloadKind, db, nRange * 4, 2000.0, span(db), seed)
      val nonEmpty = raw.filter(q => RangeQuery.inMemory(db, q).nonEmpty)
      (if (nonEmpty.length >= nRange) nonEmpty else raw).take(nRange)
    }
    private val rangeGt: Array[Set[Long]] = rangeQs.map(RangeQuery.inMemory(db, _))

    // --- kNN queries: sampled query trajectories over their own windows ---
    private val rng = new java.util.Random(seed + 1)
    private val knnIdx: Array[Int] = Array.fill(nKnn)(rng.nextInt(db.length))
    private val knnWin: Array[(Double, Double)] =
      knnIdx.map(i => (db(i).points.head.t, db(i).points.last.t))
    private val edrEps = 2000.0
    private val knnGtEdr: Array[Seq[Long]] = knnIdx.zip(knnWin).map { case (i, (ts, te)) =>
      KnnQuery.knn(db, db(i), ts, te, knnK, KnnQuery.EDR, edrEps)
    }
    private val knnGtEmb: Array[Seq[Long]] = knnIdx.zip(knnWin).map { case (i, (ts, te)) =>
      KnnQuery.knn(db, db(i), ts, te, knnK, KnnQuery.Embed)
    }

    // --- similarity queries (paper: 5km threshold) ---
    private val simIdx: Array[Int] = Array.fill(nSim)(rng.nextInt(db.length))
    private val simDelta = 5000.0
    private val simGt: Array[Set[Long]] = simIdx.map { i =>
      val q = db(i)
      SimilarityQuery.similar(db, q, q.points.head.t, q.points.last.t, simDelta)
    }

    // --- clustering (TRACLUS) on a fixed subset ---
    private val cluIds: Set[Long] = db.take(clusterTrajs).map(_.id).toSet
    private val cluTol = 100.0; private val cluEps = 1500.0; private val cluMin = 3
    private val cluGt: Set[(Long, Long)] =
      Traclus.clusterPairs(db.filter(t => cluIds(t.id)), cluTol, cluEps, cluMin)

    /** Number of non-trivial ground-truth results (bench sanity reporting). */
    def gtSummary: String =
      s"rangeGT(nonempty)=${rangeGt.count(_.nonEmpty)}/$nRange " +
        s"simGT(nonempty)=${simGt.count(_.nonEmpty)}/$nSim clusterPairsGT=${cluGt.size}"

    def evaluate(s: SimpleDB): TaskF1 = {
      val simp = s.materialise(db)
      val range = Quality.mean(rangeQs.indices.map(i =>
        Quality.f1(rangeGt(i), RangeQuery.inMemory(simp, rangeQs(i)))))
      val kEdr = Quality.mean(knnIdx.indices.map { j =>
        val (ts, te) = knnWin(j)
        Quality.knnF1(knnGtEdr(j),
          KnnQuery.knn(simp, db(knnIdx(j)), ts, te, knnK, KnnQuery.EDR, edrEps))
      })
      val kEmb = Quality.mean(knnIdx.indices.map { j =>
        val (ts, te) = knnWin(j)
        Quality.knnF1(knnGtEmb(j),
          KnnQuery.knn(simp, db(knnIdx(j)), ts, te, knnK, KnnQuery.Embed))
      })
      val sim = Quality.mean(simIdx.indices.map { j =>
        val q = db(simIdx(j))
        Quality.f1(simGt(j),
          SimilarityQuery.similar(simp, q, q.points.head.t, q.points.last.t, simDelta))
      })
      val clu = Quality.f1(cluGt,
        Traclus.clusterPairs(simp.filter(t => cluIds(t.id)), cluTol, cluEps, cluMin))
      TaskF1(range, kEdr, kEmb, sim, clu)
    }

    /** Range-query-only evaluation (fast path for sweeps/ablations). */
    def rangeF1(s: SimpleDB): Double = {
      val simp = s.materialise(db)
      Quality.mean(rangeQs.indices.map(i =>
        Quality.f1(rangeGt(i), RangeQuery.inMemory(simp, rangeQs(i)))))
    }

    /** Mean SED deformation over trajectories returned by the range workload
      * (the Fig. 7 metric).
      */
    def meanSedOfReturned(s: SimpleDB): Double = {
      val hit = rangeGt.flatten.toSet
      val ts = db.filter(t => hit(t.id))
      if (ts.isEmpty) 0.0
      else Quality.mean(ts.toSeq.map(t =>
        repro.traj.ErrorMeasures.meanSed(t, s.kept(t.id))))
    }
  }

  /** The storage budget of every experiment: `r·N` points, but at least
    * both endpoints of every trajectory plus a small margin.
    */
  def budget(db: Array[Traj], r: Double): Int =
    math.max(2 * db.length + 10, (r * Model.totalPoints(db)).toInt)

  /** Temporal extent of a database (at least one second). */
  private def span(db: Array[Traj]): Double = {
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    math.max(tmax - tmin, 1.0)
  }

  /** Run RL4QDTS `runs` times with trained nets under an inference-time
    * synthetic workload of the given kind (not the evaluation queries!).
    */
  def runRl4qdts(db: Array[Traj], w: Int, agents: Training.TrainedAgents,
                 workloadKind: String, runs: Int, seed: Long = 9999,
                 variant: RL4QDTS.Variant = RL4QDTS.Variant()): Seq[SimpleDB] = {
    val wl = Workload.generate(workloadKind, db, 100, 2000.0, span(db), seed + 1)
    RL4QDTS.simplifyRuns(db, w, wl, agents.cubeNet, agents.pointNet, benchParams,
      runs, seed, variant)
  }

  // ---- the paper's experiments, one function each, shared by the bench
  // suites (which add the shape assertions) and the spark-submit jobs ----

  /** One experiment's result table. */
  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def print(): String = printTable(title, header, rows)
  }

  /** The budgets of the Fig. 4 sweep and Fig. 8(b), as fractions of N. */
  val budgets: Seq[Double] = Seq(0.0025, 0.005, 0.01, 0.02)

  /** Trajectories per profile in Table I (relative structure of the paper's datasets). */
  val tableISizes: Map[String, Int] = Map("geolife" -> 300, "tdrive" -> 200, "chengdu" -> 800, "osm" -> 200)

  /** Trajectory counts of the Fig. 8(a) OSM-like databases. */
  val fig8Sizes: Seq[Int] = Seq(100, 200, 400, 800)

  private def requireKind(ev: Evaluator, kind: String): Unit =
    require(ev.workloadKind == kind, s"this experiment evaluates under the $kind workload, not ${ev.workloadKind}")

  /** The named catalog methods, in the given order. */
  private def methods(rlts: Map[Measure, RltsPlus], names: String*): Seq[Baselines.NamedMethod] = {
    val byName = Baselines.all(rlts).map(m => m.name -> m).toMap
    names.map(byName)
  }

  /** Table I: statistics of the four generated profiles next to the paper's
    * (generated with Spark, aggregated with Spark SQL window functions).
    * Returns the table and the statistics per profile.
    */
  def tableI(spark: SparkSession, sizes: Map[String, Int]): (Table, Map[String, TrajGen.Stats]) = {
    // (profile, paper name, #trajs, total points, pts/traj, sampling, avg seg len)
    val paper = Seq(
      ("geolife", "Geolife", 17621L, 24876978L, 1412.0, "1s~5s", 9.96),
      ("tdrive", "T-Drive", 10359L, 17740902L, 1713.0, "177s", 623.0),
      ("chengdu", "Chengdu", 179756L, 32151865L, 178.0, "2s~4s", 25.0),
      ("osm", "OSM", 513380L, 2913478785L, 5675.0, "53.5s", 180.0))
    val stats = paper.map { case (name, _, _, _, _, _, _) =>
      val df = TrajGen.genDF(spark, TrajGen.profiles(name), sizes(name), seed = 42).cache()
      val s = TrajGen.stats(df)
      df.unpersist()
      name -> s
    }.toMap
    val rows = paper.map { case (name, pName, pTr, pPts, pAvg, pSamp, pSeg) =>
      val s = stats(name)
      Seq(pName,
        s"$pTr / ${s.nTrajs}",
        s"$pPts / ${s.totalPoints}",
        f"$pAvg%.0f / ${s.avgPtsPerTraj}%.0f",
        f"$pSamp / ${s.avgSamplingSec}%.1fs",
        f"$pSeg%.1f / ${s.avgSegmentMeters}%.1f")
    }
    (Table("Table I — dataset statistics (paper / repro)",
      Seq("dataset", "#trajs", "total pts", "pts/traj", "sampling", "seg len (m)"), rows), stats)
  }

  /** Table II: the ablation of Agent-Cube and Agent-Point at W = 0.25%N,
    * range-query F1 under the Gaussian workload, next to the paper's numbers
    * (1.5M-point Geolife). The ablation contrasts query-aware cube sampling
    * with data-distribution sampling; under the data workload the synthetic
    * queries coincide with the data density and the contrast collapses at
    * repro scale (see EXPERIMENTS.md). Returns the table and each variant's
    * mean F1 and time per run (s).
    */
  def tableII(ev: Evaluator, agents: Training.TrainedAgents,
              runs: Int): (Table, Map[String, Double], Map[String, Double]) = {
    requireKind(ev, "gaussian")
    val w = budget(ev.db, 0.0025)
    val measured = Seq(
      ("RL4QDTS", 0.733, 0.018, 61.11, RL4QDTS.Variant(useCube = true, usePoint = true)),
      ("w/o Agent-Cube", 0.673, 0.023, 50.32, RL4QDTS.Variant(useCube = false, usePoint = true)),
      ("w/o Agent-Point", 0.716, 0.021, 59.31, RL4QDTS.Variant(useCube = true, usePoint = false)),
      ("w/o Agent-Cube and Agent-Point", 0.641, 0.023, 48.18, RL4QDTS.Variant(useCube = false, usePoint = false))
    ).map { case (name, pf, ps, pt, variant) =>
      val (sims, t) = time(runRl4qdts(ev.db, w, agents, "gaussian", runs, seed = 4242, variant = variant))
      val f1s = sims.map(ev.rangeF1)
      val (mf, mt) = (Quality.mean(f1s), t / runs)
      (name, mf, mt, Seq(name, f"$pf%.3f ± $ps%.3f", f"$mf%.3f ± ${Quality.stddev(f1s)}%.3f", f"$pt%.2f", f"$mt%.2f"))
    }
    (Table("Table II — ablation (range-query F1, Gaussian workload)",
      Seq("variant", "paper F1", "repro F1", "paper time (s)", "repro time (s)"), measured.map(_._4)),
      measured.map(m => m._1 -> m._2).toMap, measured.map(m => m._1 -> m._3).toMap)
  }

  /** Fig. 3: all 25 baseline adaptations plus RL4QDTS on the five query tasks
    * at W = 0.25%N under the data distribution. Returns the table, each
    * baseline's F1 and RL4QDTS's mean F1 over `rlRuns` runs.
    */
  def fig3(ev: Evaluator, agents: Training.TrainedAgents, rlts: Map[Measure, RltsPlus],
           rlRuns: Int): (Table, Seq[(String, TaskF1)], TaskF1) = {
    requireKind(ev, "data")
    val db = ev.db
    val w = budget(db, 0.0025)
    val base = Baselines.all(rlts).map { m =>
      val (s, tSimp) = time(m.simplify(db, w))
      val (f1, tEval) = time(ev.evaluate(s))
      Console.err.println(f"[fig3] ${m.name}%-22s ${f1.fmt} (simplify $tSimp%.1fs eval $tEval%.1fs)")
      (m.name, f1)
    }
    val (sims, tRl) = time(runRl4qdts(db, w, agents, "data", rlRuns, seed = 31337))
    val f1s = sims.map(ev.evaluate)
    val rl = TaskF1(
      Quality.mean(f1s.map(_.range)), Quality.mean(f1s.map(_.knnEdr)),
      Quality.mean(f1s.map(_.knnEmbed)), Quality.mean(f1s.map(_.similarity)),
      Quality.mean(f1s.map(_.clustering)))
    Console.err.println(f"[fig3] RL4QDTS ${rl.fmt} (${tRl / rlRuns}%.1fs/run)")
    val rows = (base :+ ("RL4QDTS" -> rl)).map { case (n, f) =>
      n +: Seq(f.range, f.knnEdr, f.knnEmbed, f.similarity, f.clustering).map(v => f"$v%.3f")
    }
    (Table(s"Fig 3 (as table) — F1 at W=0.25%N, data distribution (${db.length} trajs)",
      Seq("method", "range", "kNN-EDR", "kNN-emb", "similarity", "clustering"), rows), base, rl)
  }

  /** One budget sweep: each skyline method, then RL4QDTS (mean over `runs`),
    * scored by `score` (range F1 first). Returns the rows and, per budget,
    * RL4QDTS's and the best skyline method's range F1.
    */
  private def sweep(ev: Evaluator, agents: Training.TrainedAgents, runs: Int, seed: Long,
                    skyline: Seq[Baselines.NamedMethod], score: SimpleDB => Seq[Double])
      : (Seq[Seq[String]], Map[Double, Double], Map[Double, Double]) = {
    val db = ev.db
    val rows = ArrayBuffer.empty[Seq[String]]
    val rl, best = mutable.Map.empty[Double, Double]
    for (b <- budgets) {
      val w = budget(db, b)
      def row(name: String, f1s: Seq[Double]): Unit =
        rows += f"${b * 100}%.2f%%" +: name +: f1s.map(v => f"$v%.3f")
      best(b) = skyline.map { m =>
        val f1s = score(m.simplify(db, w))
        row(m.name, f1s)
        f1s.head
      }.max
      val sims = runRl4qdts(db, w, agents, ev.workloadKind, runs, seed + (b * 1000).toInt)
      val f1s = sims.map(score).transpose.map(Quality.mean)
      row("RL4QDTS", f1s)
      rl(b) = f1s.head
    }
    (rows.toSeq, rl.toMap, best.toMap)
  }

  /** Fig. 4 (a–e analogue): RL4QDTS against the paper's data-distribution
    * skyline over the budgets 0.25%–2%N, five query tasks. Returns the table
    * and, per budget, RL4QDTS's and the best skyline method's range F1.
    */
  def fig4Data(ev: Evaluator, agents: Training.TrainedAgents,
               runs: Int): (Table, Map[Double, Double], Map[Double, Double]) = {
    requireKind(ev, "data")
    val skyline = methods(Map.empty, "Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(W,PED)",
      "Bottom-Up(E,DAD)", "Bottom-Up(E,SED)")
    val (rows, rl, best) = sweep(ev, agents, runs, 5150, skyline, s => {
      val f = ev.evaluate(s)
      Seq(f.range, f.knnEdr, f.knnEmbed, f.similarity, f.clustering)
    })
    (Table("Fig 4 (as table) — budget sweep on Geolife-like, data distribution",
      Seq("budget", "method", "range", "kNN-EDR", "kNN-emb", "similarity", "clustering"), rows), rl, best)
  }

  /** Fig. 4 (f–j analogue): range-query F1 of RL4QDTS against the paper's
    * Gaussian skyline over the same budgets (RLTS+ comes from `rlts`).
    * Returns the table and, per budget, RL4QDTS's and the best skyline
    * method's range F1.
    */
  def fig4Gauss(ev: Evaluator, agents: Training.TrainedAgents, rlts: Map[Measure, RltsPlus],
                runs: Int): (Table, Map[Double, Double], Map[Double, Double]) = {
    requireKind(ev, "gaussian")
    val skyline = methods(rlts, "Bottom-Up(E,SED)", "RLTS+(E,SED)", "Bottom-Up(E,PED)", "Top-Down(E,PED)")
    val (rows, rl, best) = sweep(ev, agents, runs, 616, skyline, s => Seq(ev.rangeF1(s)))
    (Table("Fig 4 (as table) — range-query budget sweep, Gaussian distribution",
      Seq("budget", "method", "range F1"), rows), rl, best)
  }

  /** The Fig. 8 methods: the Top-Down and Bottom-Up skyline adaptations and
    * RL4QDTS with the density-adaptive start level (the paper scales S with
    * the database size).
    */
  private def fig8Methods(agents: Training.TrainedAgents, workload: Array[Box]): Seq[Baselines.NamedMethod] =
    methods(Map.empty, "Top-Down(E,PED)", "Top-Down(W,PED)", "Bottom-Up(E,SED)", "Bottom-Up(W,PED)") :+
      Baselines.NamedMethod("RL4QDTS", (d, w) => RL4QDTS.simplify(
        d, w, workload, agents.cubeNet, agents.pointNet, paramsFor(Model.totalPoints(d)), seed = 1))

  /** Time one method on one budget, checking that it kept the budget. */
  private def timed(m: Baselines.NamedMethod, db: Array[Traj], w: Int): Double = {
    val (s, t) = time(m.simplify(db, w))
    require(s.totalPoints <= w + db.length, s"${m.name} kept ${s.totalPoints} points over budget $w")
    t
  }

  /** Fig. 8(a): running time vs database size on OSM-like databases of
    * `sizes` trajectories at r = 2%. Returns the table and each method's
    * times (s) in size order.
    */
  def fig8a(agents: Training.TrainedAgents, sizes: Seq[Int]): (Table, Map[String, List[Double]]) = {
    val rows = ArrayBuffer.empty[Seq[String]]
    val times = mutable.Map.empty[String, List[Double]].withDefaultValue(Nil)
    for (nTrajs <- sizes) {
      val db = TrajGen.genLocal(TrajGen.osm, nTrajs, seed = 777)
      val n = Model.totalPoints(db)
      val w = budget(db, 0.02)
      val wl = Workload.dataDist(db, 100, 2000, span(db), 778)
      for (m <- fig8Methods(agents, wl)) {
        val t = timed(m, db, w)
        times(m.name) = times(m.name) :+ t
        rows += Seq(s"$n", m.name, f"$t%.2f")
      }
    }
    (Table("Fig 8(a) (as table) — time (s) vs N on OSM-like, r=2%",
      Seq("N (points)", "method", "time (s)"), rows.toSeq), times.toMap)
  }

  /** Fig. 8(b): running time vs budget on `db`. Returns the table and the
    * time (s) per (method, budget).
    */
  def fig8b(db: Array[Traj], agents: Training.TrainedAgents): (Table, Map[(String, Double), Double]) = {
    val wl = Workload.dataDist(db, 100, 2000, span(db), 881)
    val rows = ArrayBuffer.empty[Seq[String]]
    val times = mutable.Map.empty[(String, Double), Double]
    for (b <- budgets) {
      val w = budget(db, b)
      for (m <- fig8Methods(agents, wl)) {
        val t = timed(m, db, w)
        times((m.name, b)) = t
        rows += Seq(f"${b * 100}%.2f%%", m.name, f"$t%.2f")
      }
    }
    (Table("Fig 8(b) (as table) — time (s) vs W on Geolife-like",
      Seq("budget", "method", "time (s)"), rows.toSeq), times.toMap)
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Markdown-ish fixed-width table printer. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmtRow(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    sb.append(fmtRow(header)).append('\n').append(sep).append('\n')
    rows.foreach(r => sb.append(fmtRow(r)).append('\n'))
    val s = sb.toString
    println(s)
    s
  }
}

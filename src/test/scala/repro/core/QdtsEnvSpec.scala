package repro.core

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.data.TrajGen
import repro.index.OctNode
import repro.queries.{Quality, RangeQuery, Workload}

/** Environment tests: incremental F1 bookkeeping, candidate values, states,
  * masks, start-level sampling.
  */
class QdtsEnvSpec extends SparkSpec with PropSupport {

  private val params = QdtsParams(startLevel = 3, maxLevel = 6, k = 2, delta = 10, leafCap = 8)

  private def mkEnv(nTrajs: Int = 10, nQ: Int = 20, seed: Long = 3): QdtsEnv = {
    val db = TrajGen.genLocal(TrajGen.chengdu, nTrajs, seed)
    val (_, _, _, _, tmin, tmax) = Model.bounds(db)
    val wl = Workload.dataDist(db, nQ, 2000, tmax - tmin, seed + 1)
    new QdtsEnv(db, wl, params)
  }

  /** The candidate scan before v_s was cached: a full pass over the cube with
    * v_s and v_t recomputed from each point's anchors, best per trajectory in
    * a map, then sorted. Kept as the reference `candidates` must equal.
    */
  private def referenceCandidates(env: QdtsEnv, node: OctNode): Array[env.Candidate] = {
    val best = scala.collection.mutable.HashMap.empty[Int, env.Candidate]
    val it = env.octree.pointsIn(node)
    while (it.hasNext) {
      val (ti, pi) = it.next()
      if (!env.isInserted(ti, pi)) {
        val (vs, vt) = referencePointValues(env, ti, pi)
        best.get(ti) match {
          case Some(c) if c.vs >= vs => ()
          case _                     => best(ti) = env.Candidate(ti, pi, vs, vt)
        }
      }
    }
    best.values.toArray.sortBy(c => (-c.vs, c.trajIdx)).take(env.params.k)
  }

  private def referencePointValues(env: QdtsEnv, ti: Int, pi: Int): (Double, Double) = {
    val kept = env.keptIndices(ti)
    val tr = env.db(ti)
    val pa = tr.points(kept.filter(_ < pi).max); val pb = tr.points(kept.filter(_ > pi).min)
    val p = tr.points(pi)
    val vs = repro.traj.ErrorMeasures.sed(pa, pb, p)
    val dx = pb.x - pa.x; val dy = pb.y - pa.y
    val len2 = dx * dx + dy * dy
    val u = if (len2 == 0) 0.0
            else math.max(0.0, math.min(1.0, ((p.x - pa.x) * dx + (p.y - pa.y) * dy) / len2))
    (vs, math.abs(p.t - (pa.t + u * (pb.t - pa.t))))
  }

  private def allNodes(n: OctNode): Seq[OctNode] =
    n +: (if (n.isLeaf) Seq.empty else n.children.toSeq.flatMap(allNodes))

  /** Small databases on a coarse grid, so v_s ties are common: 1- and
    * 2-point trajectories, and runs of identical consecutive points.
    */
  private val genDb: Gen[Array[Traj]] = {
    val genTraj = for {
      len <- Gen.frequency(1 -> Gen.const(1), 1 -> Gen.const(2), 4 -> Gen.choose(3, 30))
      x0 <- Gen.choose(0, 20); y0 <- Gen.choose(0, 20)
      steps <- Gen.listOfN(len - 1, Gen.zip(Gen.choose(-3, 3), Gen.choose(-3, 3), Gen.choose(0, 2),
        Gen.frequency(1 -> true, 3 -> false)))
    } yield steps.scanLeft(Point(x0, y0, 0)) { case (p, (dx, dy, dt, repeat)) =>
      if (repeat) p else Point(p.x + dx, p.y + dy, p.t + dt)
    }.toArray
    Gen.choose(1, 8).flatMap(n => Gen.listOfN(n, genTraj))
      .map(_.zipWithIndex.map { case (pts, i) => Traj(i, pts) }.toArray)
  }

  private def genBoxes(db: Array[Traj]): Gen[Array[Box]] = {
    val (xmin, xmax, ymin, ymax, tmin, tmax) = Model.bounds(db)
    val genBox = for {
      cx <- Gen.choose(xmin - 2, xmax + 2); cy <- Gen.choose(ymin - 2, ymax + 2)
      ct <- Gen.choose(tmin - 2, tmax + 2)
      hx <- Gen.choose(0.0, 8.0); hy <- Gen.choose(0.0, 8.0); ht <- Gen.choose(0.0, 20.0)
    } yield Box(cx - hx, cx + hx, cy - hy, cy + hy, ct - ht, ct + ht)
    Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, genBox)).map(_.toArray)
  }

  private val genParams: Gen[QdtsParams] = for {
    k <- Gen.choose(1, 3); leafCap <- Gen.choose(1, 6); maxLevel <- Gen.choose(1, 5)
    startLevel <- Gen.choose(1, maxLevel)
  } yield QdtsParams(startLevel = startLevel, maxLevel = maxLevel, k = k, delta = 10, leafCap = leafCap)

  test("a new QdtsEnv rejects an empty database") {
    val e = intercept[IllegalArgumentException](new QdtsEnv(Array.empty[Traj], Array.empty[Box], params))
    assert(e.getMessage.contains("non-empty database"))
  }

  test("ground truth through the octree equals a scan of every point") {
    val gen = for { db <- genDb; wl <- genBoxes(db); p <- genParams } yield (db, wl, p)
    forAllN(gen, n = 150) { case (db, wl, p) =>
      val env = new QdtsEnv(db, wl, p)
      for (qi <- wl.indices; ti <- db.indices)
        assert(env.gt(qi)(ti) === db(ti).points.exists(wl(qi).contains), s"query $qi traj $ti")
    }
    // and on a generated database with its own workload
    val env = mkEnv(nTrajs = 12, nQ = 30)
    for (qi <- env.workload.indices; ti <- env.db.indices)
      assert(env.gt(qi)(ti) === env.db(ti).points.exists(env.workload(qi).contains))
  }

  test("candidates equal the full-scan reference at every node after random insertions") {
    val gen = for {
      db <- genDb; wl <- genBoxes(db); p <- genParams; seed <- Gen.choose(0L, 1L << 40)
    } yield (db, wl, p, seed)
    forAllN(gen, n = 150) { case (db, wl, p, seed) =>
      val env = new QdtsEnv(db, wl, p)
      val rng = new java.util.Random(seed)
      val n = db.map(_.length).sum
      val nodes = allNodes(env.octree.root)
      def check(): Unit = for (node <- nodes)
        assert(env.candidates(node).toSeq === referenceCandidates(env, node).toSeq,
          s"node at level ${node.level} with ${node.remaining} remaining")
      check()
      for (_ <- 0 until 2) {
        for (_ <- 0 until rng.nextInt(n + 1)) {
          val ti = rng.nextInt(db.length)
          env.insertPoint(ti, rng.nextInt(db(ti).length))
        }
        check()
      }
    }
  }

  test("initial D' contains exactly the endpoints") {
    val env = mkEnv()
    assert(env.insertedCount === 2 * env.db.length)
    for (ti <- env.db.indices)
      assert(env.keptIndices(ti).toSeq === Seq(0, env.db(ti).length - 1))
  }

  test("insertPoint is idempotent") {
    val env = mkEnv()
    val c0 = env.insertedCount
    assert(env.insertPoint(0, 5))
    assert(!env.insertPoint(0, 5))
    assert(env.insertedCount === c0 + 1)
  }

  test("incremental avgF1 matches a from-scratch recomputation") {
    val env = mkEnv(nTrajs = 8, nQ = 15)
    val rng = new java.util.Random(7)
    // insert a bunch of random points
    for (_ <- 0 until 60) {
      val ti = rng.nextInt(env.db.length)
      val pi = rng.nextInt(env.db(ti).length)
      env.insertPoint(ti, pi)
    }
    val simp = env.result.materialise(env.db)
    val recomputed = Quality.mean(env.workload.toSeq.map { q =>
      Quality.f1(RangeQuery.inMemory(env.db, q), RangeQuery.inMemory(simp, q))
    })
    assert(math.abs(env.avgF1 - recomputed) < 1e-12, s"${env.avgF1} vs $recomputed")
  }

  test("diff = 1 - avgF1 and decreases (weakly) as points are inserted") {
    val env = mkEnv()
    val d0 = env.diff
    assert(math.abs(env.diff - (1 - env.avgF1)) < 1e-15)
    // inserting every point drives diff to 0
    for (ti <- env.db.indices; pi <- 0 until env.db(ti).length) env.insertPoint(ti, pi)
    assert(env.diff <= d0 + 1e-12)
    assert(env.diff < 1e-12)
  }

  test("octree remaining tracks insertions") {
    val env = mkEnv()
    assert(env.octree.root.remaining ===
      Model.totalPoints(env.db).toInt - env.insertedCount)
  }

  test("sampleStartNode returns nodes with un-inserted points") {
    val env = mkEnv()
    val rng = new java.util.Random(1)
    for (_ <- 0 until 20) {
      val n = env.sampleStartNode(rng)
      assert(n.remaining > 0)
      assert(n.level <= params.startLevel)
    }
  }

  test("sampleStartNode by data distribution favours dense cubes") {
    val env = mkEnv(nTrajs = 12, nQ = 5)
    val rng = new java.util.Random(2)
    val draws = (0 until 300).map(_ => env.sampleStartNode(rng, byQuery = false))
    assert(draws.forall(_.remaining > 0))
    // the empirical draw frequency of the densest cube should exceed that of
    // the sparsest sampled cube
    val byNode = draws.groupBy(identity).view.mapValues(_.size).toMap
    val dense = byNode.maxBy { case (n, _) => n.nPoints }
    val sparse = byNode.minBy { case (n, _) => n.nPoints }
    assert(dense._1.nPoints >= sparse._1.nPoints)
    assert(dense._2 >= sparse._2)
  }

  test("cubeState has 16 ratio entries in [0,1] summing to <= 2") {
    val env = mkEnv()
    val s = env.cubeState(env.octree.root)
    assert(s.length === 16)
    assert(s.forall(v => v >= 0 && v <= 1))
    val mSum = (0 until 8).map(i => s(2 * i)).sum
    assert(mSum <= 8.0 + 1e-9) // each child's M <= parent's M
  }

  test("cubeState of a leaf is the zero vector") {
    val env = mkEnv(nTrajs = 2)
    def findLeaf(n: repro.index.OctNode): repro.index.OctNode =
      if (n.isLeaf) n else findLeaf(n.children.find(_.nPoints > 0).get)
    assert(env.cubeState(findLeaf(env.octree.root)).forall(_ === 0.0))
  }

  test("cubeMask allows stop always, children only with remaining points") {
    val env = mkEnv()
    val mask = env.cubeMask(env.octree.root)
    assert(mask.length === 9 && mask(8))
    if (!env.octree.root.isLeaf)
      for (c <- 0 until 8)
        assert(mask(c) === (env.octree.root.children(c).remaining > 0))
  }

  test("candidates are per-trajectory max-v_s, sorted descending, at most K") {
    val env = mkEnv()
    val cands = env.candidates(env.octree.root)
    assert(cands.length <= params.k)
    assert(cands.iterator.sliding(2).withPartial(false).forall(w => w.head.vs >= w(1).vs))
    assert(cands.map(_.trajIdx).distinct.length === cands.length)
    // each candidate is not yet inserted
    assert(cands.forall(c => !env.isInserted(c.trajIdx, c.ptIdx)))
  }

  test("pointValues: a point on its anchor segment has vs 0") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(5, 0, 5), Point(10, 0, 10))))
    val wl = Array.empty[Box]
    val env = new QdtsEnv(db, wl, params)
    val (vs, vt) = env.pointValues(0, 1)
    assert(vs === 0.0 && vt === 0.0)
  }

  test("pointValues: synchronised displacement and temporal offset") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(5, 3, 5), Point(10, 0, 10))))
    val env = new QdtsEnv(db, Array.empty[Box], params)
    val (vs, vt) = env.pointValues(0, 1)
    assert(vs === 3.0)
    assert(vt === 0.0) // closest point on segment is at x=5 => t=5 = its own time
  }

  test("pointValues uses the *current* anchor (tightens as points are inserted)") {
    val db = Array(Traj(0, Array(
      Point(0, 0, 0), Point(1, 4, 1), Point(2, 8, 2), Point(3, 0, 3))))
    val env = new QdtsEnv(db, Array.empty[Box], params)
    val (vsBefore, _) = env.pointValues(0, 1)
    env.insertPoint(0, 2) // anchor of point 1 becomes (0,2)
    val (vsAfter, _) = env.pointValues(0, 1)
    assert(vsAfter < vsBefore)
  }

  test("pointState is zero-padded and masked to the candidate count") {
    val env = mkEnv(nTrajs = 1) // at most 1 candidate per cube
    val node = env.octree.root
    val cands = env.candidates(node)
    val (s, mask) = env.pointState(node, cands)
    assert(s.length === 2 * params.k && mask.length === params.k)
    assert(mask.count(identity) === cands.length)
    if (cands.length < params.k) {
      assert(s(2 * (params.k - 1)) === 0.0)
      assert(!mask(params.k - 1))
    }
  }

  test("result is a valid SimpleDB with endpoints for all trajectories") {
    val env = mkEnv()
    env.insertPoint(0, 3)
    val s = env.result
    assert(s.kept.size === env.db.length)
    for (tr <- env.db) {
      val kept = s.kept(tr.id)
      assert(kept.head === 0 && kept.last === tr.length - 1)
      assert(kept.toSeq === kept.sorted.toSeq)
    }
    assert(s.totalPoints === env.insertedCount)
  }
}

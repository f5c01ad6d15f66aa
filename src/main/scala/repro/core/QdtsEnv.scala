package repro.core

import repro.index.{OctNode, Octree}
import repro.traj.ErrorMeasures

/** Hyper-parameters of RL4QDTS (Section IV-D / V-A). Paper values S=9, E=12,
  * K=2, Δ=50 are tied to millions-of-points databases; defaults here are the
  * same mechanism at repro scale (see DESIGN.md substitutions).
  */
final case class QdtsParams(
    startLevel: Int = 4, // S: Agent-Cube starts from a query-distribution-sampled cube at this level
    maxLevel: Int = 8,   // E: maximum octree level
    k: Int = 2,          // K: Agent-Point state/action size
    delta: Int = 50,     // Δ: insertions between reward evaluations
    leafCap: Int = 32)   // adaptive octree split threshold
    extends Serializable

/** The shared environment of Agent-Cube and Agent-Point: the octree with
  * query counts, the growing simplified database D', and *incremental*
  * range-query F1 bookkeeping so the reward signal
  * `diff(Q(D),Q(D')) − diff(Q(D),Q(D''))` costs O(#queries) per insertion
  * instead of re-running the workload.
  *
  * Every point's v_s (Eq. 6) is cached in one flat array and kept current:
  * an insertion changes the anchors only of the points between its own
  * anchors, so only that span is recomputed. Gathering a cube's candidates
  * is then one primitive scan over the cube's range of the octree's codes.
  */
final class QdtsEnv(val db: Array[Traj], val workload: Array[Box], val params: QdtsParams) {
  require(db.nonEmpty, "QdtsEnv needs a non-empty database")
  require(db.forall(_.length > 0), "QdtsEnv needs at least one point in every trajectory")

  val octree = new Octree(db, params.maxLevel, params.leafCap)
  workload.foreach(octree.addQuery)

  // point pi of trajectory ti is entry off(ti) + pi of `vs`
  private val off: Array[Int] = db.scanLeft(0)(_ + _.length)
  // v_s of every point not in D' (the SED to its current anchor segment);
  // a point of D' holds the negative sentinel Kept
  private val vs = new Array[Double](off(db.length))
  private val Kept = -1.0
  var insertedCount: Int = 0

  // ---- incremental F1 over the range-query workload ----
  // ground truth on the original database: the trajectories with a point in
  // each query, found in the leaves whose cube intersects the query
  private[core] val gt: Array[Array[Boolean]] = workload.map { q =>
    val hit = new Array[Boolean](db.length)
    def visit(n: OctNode): Unit =
      if (n.nPoints > 0 && n.box.intersects(q)) {
        if (n.isLeaf) {
          var i = n.lo
          while (i < n.hi) {
            val c = octree.codes(i)
            val ti = (c >>> 32).toInt
            if (!hit(ti) && q.contains(db(ti).points(c.toInt))) hit(ti) = true
            i += 1
          }
        } else n.children.foreach(visit)
      }
    visit(octree.root)
    hit
  }
  private val gtSize: Array[Int] = gt.map(_.count(identity))
  // current state on the simplified database
  private val inBox: Array[Array[Boolean]] = workload.map(_ => new Array[Boolean](db.length))
  private val rsSize: Array[Int] = new Array[Int](workload.length)
  private val matched: Array[Int] = new Array[Int](workload.length)

  // D' starts as the most simplified database: endpoints of every trajectory.
  for (ti <- db.indices) {
    val last = db(ti).length - 1
    keep(ti, 0)
    if (last > 0) { keep(ti, last); refresh(ti, 0, last) }
  }

  /** Insert point `pi` of trajectory `ti` into D'. Returns false if it was
    * already inserted. Updates the octree's remaining counters, the
    * incremental F1 state of every workload query, and v_s of the points
    * whose anchor segment it splits.
    */
  def insertPoint(ti: Int, pi: Int): Boolean = {
    require(pi >= 0 && pi < db(ti).length, s"point $pi out of range for trajectory $ti")
    if (isInserted(ti, pi)) return false
    val a = anchorBefore(ti, pi); val b = anchorAfter(ti, pi)
    keep(ti, pi)
    refresh(ti, a, pi)
    refresh(ti, pi, b)
    true
  }

  // The kept points immediately before and after point pi, which is not in
  // D'. Endpoints are always kept, so both exist.
  private def anchorBefore(ti: Int, pi: Int): Int = { var a = pi - 1; while (!isInserted(ti, a)) a -= 1; a }
  private def anchorAfter(ti: Int, pi: Int): Int = { var b = pi + 1; while (!isInserted(ti, b)) b += 1; b }

  private def keep(ti: Int, pi: Int): Unit = {
    vs(off(ti) + pi) = Kept
    insertedCount += 1
    val p = db(ti).points(pi)
    octree.markInserted(p)
    var qi = 0
    while (qi < workload.length) {
      if (workload(qi).contains(p) && !inBox(qi)(ti)) {
        inBox(qi)(ti) = true
        rsSize(qi) += 1
        if (gt(qi)(ti)) matched(qi) += 1
      }
      qi += 1
    }
  }

  /** Recompute v_s of the points strictly between kept points `a` < `b`. */
  private def refresh(ti: Int, a: Int, b: Int): Unit = {
    val pts = db(ti).points
    val pa = pts(a); val pb = pts(b)
    val o = off(ti)
    var i = a + 1
    while (i < b) { vs(o + i) = ErrorMeasures.sed(pa, pb, pts(i)); i += 1 }
  }

  /** Mean F1 of the workload on the current D' vs the original D (Eq. 3). */
  def avgF1: Double = {
    if (workload.isEmpty) return 1.0
    var s = 0.0
    var qi = 0
    while (qi < workload.length) {
      s += {
        if (gtSize(qi) == 0 && rsSize(qi) == 0) 1.0
        else if (gtSize(qi) == 0 || rsSize(qi) == 0 || matched(qi) == 0) 0.0
        else {
          val p = matched(qi).toDouble / rsSize(qi)
          val r = matched(qi).toDouble / gtSize(qi)
          2 * p * r / (p + r)
        }
      }
      qi += 1
    }
    s / workload.length
  }

  /** The QDTS objective term diff(Q(D), Q(D')) = 1 − mean F1. */
  def diff: Double = 1.0 - avgF1

  def result: SimpleDB = SimpleDB(db.indices.map(ti => db(ti).id -> keptIndices(ti)).toMap)

  // ---------------- Agent-Cube support ----------------

  // The tree is static after the build, so the level-S frontier and its
  // sampling weights are computed once; sampling skips exhausted cubes.
  private val frontier: Array[OctNode] = octree.frontierAtLevel(params.startLevel).toArray
  // smoothed estimate of the query density: empirical per-cube query count
  // plus the expected count under a data prior (the raw counts of a
  // 100-query workload are too noisy to sample from directly)
  private val queryWeights: Array[Double] = {
    val totalPts = math.max(octree.root.nPoints, 1).toDouble
    frontier.map(n => n.q + (n.nPoints / totalPts) * workload.length)
  }
  private val dataWeights: Array[Double] = frontier.map(_.nPoints.toDouble)

  /** Sample a start cube at level S, restricted to cubes that still have
    * un-inserted points. The full model samples by the query distribution
    * (the paper's start-level technique; the data prior in the weight keeps
    * query-free cubes reachable); the w/o-Agent-Cube ablation samples by the
    * data distribution, exactly as in the paper's Table II setup.
    */
  def sampleStartNode(rng: java.util.Random, byQuery: Boolean = true): OctNode = {
    val weights = if (byQuery) queryWeights else dataWeights
    var total = 0.0
    var last = -1
    var i = 0
    while (i < frontier.length) {
      if (frontier(i).remaining > 0) { total += weights(i); last = i }
      i += 1
    }
    require(last >= 0, "no un-inserted points left")
    var u = rng.nextDouble() * total
    i = 0
    while (frontier(i).remaining == 0) i += 1
    while (i < last && u > weights(i)) {
      u -= weights(i)
      i += 1
      while (frontier(i).remaining == 0) i += 1
    }
    frontier(i)
  }

  /** Agent-Cube state (Eq. 4): the 8 children's trajectory-count and
    * query-count ratios. A leaf yields the zero state.
    */
  def cubeState(node: OctNode): Array[Double] = {
    val s = new Array[Double](16)
    if (node.isLeaf) return s
    val m = math.max(node.m, 1).toDouble
    val q = math.max(node.q, 1).toDouble
    var c = 0
    while (c < 8) {
      s(2 * c) = node.children(c).m / m
      s(2 * c + 1) = node.children(c).q / q
      c += 1
    }
    s
  }

  /** Valid actions at a cube: descend into children that still have
    * un-inserted points (actions 0–7), or stop (action 8 — the paper's a=9).
    */
  def cubeMask(node: OctNode): Array[Boolean] = {
    val mask = new Array[Boolean](9)
    mask(8) = true
    if (!node.isLeaf) {
      var c = 0
      while (c < 8) { mask(c) = node.children(c).remaining > 0; c += 1 }
    }
    mask
  }

  // ---------------- Agent-Point support ----------------

  /** A candidate insertion: the point of trajectory `trajIdx` (index into db)
    * with the maximum v_s among the trajectory's un-inserted points in the
    * cube (Eq. 7). `vs`/`vt` are the raw spatial/temporal values of Eq. 6.
    */
  final case class Candidate(trajIdx: Int, ptIdx: Int, vs: Double, vt: Double)

  // scratch of `candidates`: each trajectory's best point so far (-1: none),
  // and the trajectories that have one
  private val bestPt: Array[Int] = Array.fill(db.length)(-1)
  private val touched: Array[Int] = new Array[Int](db.length)

  /** Per-trajectory best candidates in cube `node`, sorted by descending v_s
    * (ties by trajectory index), truncated to K (Eq. 8). Per trajectory the
    * first maximum in the cube's point order wins. Empty only if the cube
    * has no un-inserted points. Costs one pass over the cube's points plus
    * O(M_B·K); v_t is computed only for the returned candidates.
    */
  def candidates(node: OctNode): Array[Candidate] = {
    val codes = octree.codes
    var nTouched = 0
    var i = node.lo
    while (i < node.hi) {
      val c = codes(i)
      val ti = (c >>> 32).toInt
      val v = vs(off(ti) + c.toInt)
      if (!(v < 0)) {
        val b = bestPt(ti)
        if (b < 0) { bestPt(ti) = c.toInt; touched(nTouched) = ti; nTouched += 1 }
        else if (!(vs(off(ti) + b) >= v)) bestPt(ti) = c.toInt
      }
      i += 1
    }
    val top = java.util.Arrays.copyOf(touched, nTouched).sortWith(ranksBefore).take(params.k)
    val out = top.map { ti =>
      val pi = bestPt(ti)
      Candidate(ti, pi, vs(off(ti) + pi), vt(ti, pi))
    }
    var j = 0
    while (j < nTouched) { bestPt(touched(j)) = -1; j += 1 }
    out
  }

  /** Whether trajectory `t1`'s best candidate sorts before `t2`'s under
    * the (−v_s, trajIdx) tuple ordering.
    */
  private def ranksBefore(t1: Int, t2: Int): Boolean = {
    val cmp = java.lang.Double.compare(-vs(off(t1) + bestPt(t1)), -vs(off(t2) + bestPt(t2)))
    cmp < 0 || (cmp == 0 && t1 < t2)
  }

  /** (v_s, v_t) of Eq. 6 for a point not in D': v_s is the SED of the point
    * w.r.t. its current anchor segment in D' (the kept points immediately
    * before and after it); v_t is the time difference to the spatially
    * closest point on that anchor.
    */
  private[core] def pointValues(ti: Int, pi: Int): (Double, Double) = {
    require(!isInserted(ti, pi), s"point $pi of trajectory $ti is in D'")
    (vs(off(ti) + pi), vt(ti, pi))
  }

  private def vt(ti: Int, pi: Int): Double = {
    val pts = db(ti).points
    val pa = pts(anchorBefore(ti, pi)); val pb = pts(anchorAfter(ti, pi)); val p = pts(pi)
    val dx = pb.x - pa.x; val dy = pb.y - pa.y
    val len2 = dx * dx + dy * dy
    val u = if (len2 == 0) 0.0
            else math.max(0.0, math.min(1.0, ((p.x - pa.x) * dx + (p.y - pa.y) * dy) / len2))
    val tClosest = pa.t + u * (pb.t - pa.t)
    math.abs(p.t - tClosest)
  }

  /** Agent-Point state (Eq. 8): the K candidates' (v_s, v_t), normalised by
    * the cube's spatial diagonal and temporal extent (the paper uses batch
    * normalisation for the same purpose); zero-padded and masked when the
    * cube holds fewer than K trajectories.
    */
  def pointState(node: OctNode, cands: Array[Candidate]): (Array[Double], Array[Boolean]) = {
    val s = new Array[Double](2 * params.k)
    val mask = new Array[Boolean](params.k)
    val diag = math.max(node.box.spatialDiag, 1e-9)
    val text = math.max(node.box.tExtent, 1e-9)
    var i = 0
    while (i < cands.length && i < params.k) {
      s(2 * i) = cands(i).vs / diag
      s(2 * i + 1) = cands(i).vt / text
      mask(i) = true
      i += 1
    }
    (s, mask)
  }

  /** The sorted indices of trajectory `ti`'s points in D'. */
  private[core] def keptIndices(ti: Int): Array[Int] =
    (0 until db(ti).length).filter(isInserted(ti, _)).toArray

  private[core] def isInserted(ti: Int, pi: Int): Boolean = vs(off(ti) + pi) < 0
}

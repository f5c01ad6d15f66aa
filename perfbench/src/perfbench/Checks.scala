package perfbench

import org.apache.spark.sql.Row
import repro.core.Traj
import repro.queries.{Quality, RangeQuery}

/** Output checks and the kept-index hash. A check returns None when the
  * output is valid, else a description of the first problem found.
  */
object Checks {

  /** 64-bit FNV-1a over (id, count, kept indices) of every trajectory, in
    * database order. Equal hashes mean identical simplified databases.
    */
  def keptHash(db: Array[Traj], kept: Map[Long, Array[Int]]): String = {
    var h = 0xcbf29ce484222325L
    def feed(v: Long): Unit = {
      var b = 0
      while (b < 8) { h = (h ^ ((v >>> (8 * b)) & 0xff)) * 0x100000001b3L; b += 1 }
    }
    for (tr <- db) {
      val ks = kept.getOrElse(tr.id, Array.emptyIntArray)
      feed(tr.id); feed(ks.length.toLong)
      ks.foreach(i => feed(i.toLong))
    }
    f"$h%016x"
  }

  /** Every trajectory keeps its first and last index, and its kept indices
    * are strictly increasing and in range; no unknown trajectory appears.
    */
  def structure(db: Array[Traj], kept: Map[Long, Array[Int]]): Option[String] = {
    if (kept.size != db.length) return Some(s"${kept.size} trajectories in the output, ${db.length} in the input")
    for (tr <- db) {
      val ks = kept.getOrElse(tr.id, null)
      if (ks == null) return Some(s"trajectory ${tr.id} missing")
      if (ks.isEmpty || ks.head != 0 || ks.last != tr.length - 1)
        return Some(s"trajectory ${tr.id} does not keep both endpoints")
      var i = 1
      while (i < ks.length) {
        if (ks(i) <= ks(i - 1)) return Some(s"trajectory ${tr.id}: indices not strictly increasing")
        i += 1
      }
    }
    None
  }

  /** Spark output rows (traj_id, idx, x, y, t) as kept indices per trajectory. */
  def keptOf(rows: Array[Row]): Map[Long, Array[Int]] =
    rows.groupBy(_.getLong(0)).map { case (id, rs) => id -> rs.map(_.getInt(1)).sorted }

  def total(kept: Map[Long, Array[Int]]): Long = kept.valuesIterator.map(_.length.toLong).sum

  /** RL4QDTS.simplify keeps exactly min(W, N) points. */
  def exactBudget(db: Array[Traj], kept: Map[Long, Array[Int]], w: Int, n: Long): Option[String] =
    structure(db, kept).orElse {
      val want = math.min(w.toLong, n)
      if (total(kept) != want) Some(s"kept ${total(kept)} points, budget min(W, N) = $want") else None
    }

  /** Bottom-Up keeps at most W points. */
  def atMost(db: Array[Traj], kept: Map[Long, Array[Int]], w: Int): Option[String] =
    structure(db, kept).orElse {
      if (total(kept) > w) Some(s"kept ${total(kept)} points, budget W = $w") else None
    }

  /** Spark output: valid structure, each row's coordinates equal the input
    * point, and the total within nGroups of W (per-group rounding; the exact
    * difference is reported as spark.kept_minus_budget).
    */
  def sparkRows(db: Array[Traj], rows: Array[Row], w: Int, nGroups: Int): Option[String] = {
    val byId = db.iterator.map(tr => tr.id -> tr).toMap
    val bad = rows.find { r =>
      byId.get(r.getLong(0)) match {
        case None => true
        case Some(tr) =>
          val i = r.getInt(1)
          i < 0 || i >= tr.length || {
            val p = tr.points(i)
            p.x != r.getDouble(2) || p.y != r.getDouble(3) || p.t != r.getDouble(4)
          }
      }
    }
    if (bad.isDefined) return Some(s"output row ${bad.get} is not an input point")
    val kept = keptOf(rows)
    structure(db, kept).orElse {
      if (math.abs(total(kept) - w) > nGroups) Some(s"kept ${total(kept)} points, W = $w") else None
    }
  }

  /** Mean range-query F1 of the simplified database on the held-out workload. */
  def rangeF1(db: Array[Traj], kept: Map[Long, Array[Int]], qs: Array[repro.core.Box],
              gt: Array[Set[Long]]): Double = {
    val simp = db.map(tr => Traj(tr.id, kept(tr.id).map(tr.points)))
    Quality.mean(qs.indices.map(i => Quality.f1(gt(i), RangeQuery.inMemory(simp, qs(i)))))
  }
}

/** Order statistics of per-call timings. */
object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs.sorted.toIndexedSeq, 50.0)

  /** Linear interpolation between closest ranks, on sorted input. */
  def percentile(sorted: IndexedSeq[Double], p: Double): Double = {
    require(sorted.nonEmpty, "no samples")
    val pos = p / 100.0 * (sorted.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, sorted.length - 1)
    sorted(lo) + (pos - lo) * (sorted(hi) - sorted(lo))
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (percentile, value); never below the median, so with fewer than 21
    * samples it is the median.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted.toIndexedSeq
    val idx = s.length - 11
    if (idx <= (s.length - 1) / 2.0) (50.0, percentile(s, 50.0))
    else (100.0 * idx / (s.length - 1), s(idx))
  }
}

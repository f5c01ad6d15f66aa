package repro.index

import scala.collection.mutable.ArrayBuffer
import repro.core.{Box, Point, Traj}

/** A node of the adaptive octree. `level` is 1-based as in the paper (the
  * root cube is B_1^1). A node is a leaf until its point count exceeds
  * `leafCap` and it is below `maxDepth`. No node holds points: the points of
  * its subtree are the range `[lo, hi)` of the tree's flat `codes` array, and
  * the children's ranges tile the parent's in child order.
  *
  * Per-node statistics:
  *  - `m` — number of distinct trajectories with >=1 point in the cube (the
  *    paper's M_B). Maintained with the last-seen-trajectory trick, valid
  *    because points are inserted in (trajectory, index) order.
  *  - `q` — number of workload queries whose centre falls in the cube (Q_B).
  *  - `remaining` — points in the cube not yet inserted into the simplified
  *    database; used to mask exhausted subtrees during Agent-Cube traversal.
  */
final class OctNode(val level: Int, val box: Box) {
  var m: Int = 0
  var q: Int = 0
  var remaining: Int = 0
  var nPoints: Int = 0
  var lo: Int = 0 // this subtree's range [lo, hi) of Octree.codes
  var hi: Int = 0
  private[index] var lastTraj: Long = -1L
  var children: Array[OctNode] = _ // null while leaf
  // a leaf's codes while the tree is built (the first nPoints entries); null after
  private[index] var buf: Array[Long] = _

  def isLeaf: Boolean = children == null
}

/** Octree over a trajectory database (Section IV, "spatio-temporal cubes").
  * Splits the database bounding cube 8-ways recursively: 2 spatial dimensions
  * and 1 temporal dimension, one bit each.
  *
  * @param db       the database; `trajIdx` in all APIs is the index into `db`
  * @param maxDepth the paper's parameter E (maximum tree level)
  * @param leafCap  adaptive split threshold (points per leaf before splitting)
  */
final class Octree(val db: Array[Traj], val maxDepth: Int, val leafCap: Int = 32) {

  val bounds: Box = {
    var xmin = Double.MaxValue; var xmax = Double.MinValue
    var ymin = Double.MaxValue; var ymax = Double.MinValue
    var tmin = Double.MaxValue; var tmax = Double.MinValue
    for (tr <- db; p <- tr.points) {
      if (p.x < xmin) xmin = p.x; if (p.x > xmax) xmax = p.x
      if (p.y < ymin) ymin = p.y; if (p.y > ymax) ymax = p.y
      if (p.t < tmin) tmin = p.t; if (p.t > tmax) tmax = p.t
    }
    // widen slightly so max-coordinate points land strictly inside
    val ex = math.max(1e-9, (xmax - xmin) * 1e-9)
    val ey = math.max(1e-9, (ymax - ymin) * 1e-9)
    val et = math.max(1e-9, (tmax - tmin) * 1e-9)
    Box(xmin, xmax + ex, ymin, ymax + ey, tmin, tmax + et)
  }

  val root: OctNode = new OctNode(1, bounds)

  // Build: insert every point in (trajectory, index) order.
  {
    var ti = 0
    while (ti < db.length) {
      val tr = db(ti)
      var pi = 0
      while (pi < tr.points.length) { insert(ti, pi, tr.points(pi)); pi += 1 }
      ti += 1
    }
  }

  private def childBox(b: Box, ci: Int): Box = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    val xb = (ci & 1) != 0; val yb = (ci & 2) != 0; val tb = (ci & 4) != 0
    Box(
      if (xb) mx else b.xmin, if (xb) b.xmax else mx,
      if (yb) my else b.ymin, if (yb) b.ymax else my,
      if (tb) mt else b.tmin, if (tb) b.tmax else mt)
  }

  private def childIndex(b: Box, p: Point): Int = {
    val mx = (b.xmin + b.xmax) / 2; val my = (b.ymin + b.ymax) / 2; val mt = (b.tmin + b.tmax) / 2
    (if (p.x >= mx) 1 else 0) | (if (p.y >= my) 2 else 0) | (if (p.t >= mt) 4 else 0)
  }

  private def bump(n: OctNode, trajIdx: Int): Unit = {
    if (n.lastTraj != trajIdx.toLong) { n.m += 1; n.lastTraj = trajIdx.toLong }
    n.nPoints += 1
    n.remaining += 1
  }

  private def insert(trajIdx: Int, ptIdx: Int, p: Point): Unit = {
    var n = root
    bump(n, trajIdx)
    while (!n.isLeaf) {
      n = n.children(childIndex(n.box, p))
      bump(n, trajIdx)
    }
    append(n, (trajIdx.toLong << 32) | (ptIdx.toLong & 0xffffffffL))
    if (n.nPoints > leafCap && n.level < maxDepth) split(n)
  }

  /** Store `code` as the last of leaf `n`'s nPoints codes (already counted). */
  private def append(n: OctNode, code: Long): Unit = {
    if (n.buf == null) n.buf = new Array[Long](math.min(leafCap + 1, 16))
    else if (n.buf.length < n.nPoints) n.buf = java.util.Arrays.copyOf(n.buf, 2 * n.buf.length)
    n.buf(n.nPoints - 1) = code
  }

  private def split(n: OctNode): Unit = {
    n.children = Array.tabulate(8)(ci => new OctNode(n.level + 1, childBox(n.box, ci)))
    // push points down in insertion order so the last-seen-trajectory M trick
    // stays valid for the children
    val old = n.buf; n.buf = null
    var i = 0
    while (i < n.nPoints) {
      val code = old(i)
      val ti = (code >>> 32).toInt; val pi = (code & 0xffffffffL).toInt
      val p = db(ti).points(pi)
      val c = n.children(childIndex(n.box, p))
      bump(c, ti)
      append(c, code)
      i += 1
    }
  }

  /** Every point as `(trajIdx << 32) | ptIdx`, in depth-first leaf order
    * (within a leaf, in (trajectory, index) order). Node `n`'s points are
    * `codes(n.lo until n.hi)`.
    */
  private[repro] val codes: Array[Long] = {
    val out = new Array[Long](root.nPoints)
    def layout(n: OctNode, start: Int): Int = {
      n.lo = start
      if (n.isLeaf) {
        if (n.nPoints > 0) System.arraycopy(n.buf, 0, out, start, n.nPoints)
        n.buf = null
        n.hi = start + n.nPoints
      } else {
        var end = start
        var c = 0
        while (c < 8) { end = layout(n.children(c), end); c += 1 }
        n.hi = end
      }
      n.hi
    }
    layout(root, 0)
    out
  }

  /** Register a workload query: increments Q on every node containing its centre. */
  def addQuery(queryBox: Box): Unit = {
    val c = queryBox.center
    if (!bounds.contains(c)) { root.q += 1; return }
    var n = root
    n.q += 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, c)); n.q += 1 }
  }

  /** Nodes at tree level `s` (1 = root), plus shallower leaves so that every
    * point remains reachable from the returned frontier.
    */
  def frontierAtLevel(s: Int): IndexedSeq[OctNode] = {
    val out = ArrayBuffer.empty[OctNode]
    def rec(n: OctNode): Unit =
      if (n.level == s || n.isLeaf) out += n
      else n.children.foreach(rec)
    rec(root)
    out.toIndexedSeq
  }

  /** All (trajIdx, ptIdx) pairs in the subtree of `n`, in `codes` order. */
  def pointsIn(n: OctNode): Iterator[(Int, Int)] =
    Iterator.range(n.lo, n.hi).map { i => val c = codes(i); ((c >>> 32).toInt, c.toInt) }

  /** Mark a point as inserted into the simplified database: decrements
    * `remaining` along its root-to-leaf path.
    */
  def markInserted(p: Point): Unit = {
    var n = root
    n.remaining -= 1
    while (!n.isLeaf) { n = n.children(childIndex(n.box, p)); n.remaining -= 1 }
  }

  /** Number of nodes (for tests / diagnostics). */
  def size: Int = {
    def rec(n: OctNode): Int = 1 + (if (n.isLeaf) 0 else n.children.map(rec).sum)
    rec(root)
  }
}

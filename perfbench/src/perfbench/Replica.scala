package perfbench

import repro.core.{Box, Model, QdtsEnv, QdtsParams, SimpleDB, Traj}
import repro.index.{OctNode, Octree}
import repro.rl.MLP

/** Counts taken at the layer boundaries of traced simplify calls. */
final class Counts {
  var octreeNodes = 0L
  var candCalls = 0L
  var candScanned = 0L
  var candReturned = 0L
  var inserts = 0L
  var queryTests = 0L
  var queryHits = 0L
  var cubeForwards = 0L
  var pointForwards = 0L
  var traversals = 0L
  var stops = 0L
  var levelSum = 0L
}

/** Traced replica of RL4QDTS.simplify: the same policy loop, driven from
  * outside through QdtsEnv's public methods and MLP.forward, with a span
  * around every call into a layer. Its output must equal RL4QDTS.simplify's
  * for the same inputs; the caller checks that through the kept-index hash.
  */
object Replica {

  def simplify(t: Tracer, c: Counts, db: Array[Traj], w: Int, workload: Array[Box],
               cubeNet: MLP, pointNet: MLP, params: QdtsParams, seed: Long): SimpleDB = {
    val sOctree = t.id("octree.build"); val sCall = t.id("rl4qdts.simplify")
    val sEnv = t.id("env.build"); val sStart = t.id("env.sample_start")
    val sCubeObs = t.id("env.cube_obs"); val sCubeFwd = t.id("mlp.forward_cube")
    val sCand = t.id("env.candidates"); val sPointState = t.id("env.point_state")
    val sPointFwd = t.id("mlp.forward_point"); val sInsert = t.id("env.insert")
    val sResult = t.id("env.result")

    // the octree alone, built as QdtsEnv builds it, so env.build can be split
    val tree = t.span(sOctree)(new Octree(db, params.maxLevel, params.leafCap))
    c.octreeNodes += tree.size

    val out = t.span(sCall) {
      val env = t.span(sEnv)(new QdtsEnv(db, workload, params))
      val rng = new java.util.Random(seed)
      val target = math.min(w.toLong, Model.totalPoints(db)).toInt
      while (env.insertedCount < target) {
        // Agent-Cube
        var node: OctNode = t.span(sStart)(env.sampleStartNode(rng, byQuery = true))
        var stop = false
        while (!stop && !node.isLeaf) {
          val s = t.begin(sCubeObs)
          val state = env.cubeState(node)
          val mask = env.cubeMask(node)
          t.end(s)
          val q = t.span(sCubeFwd)(cubeNet.forward(state))
          c.cubeForwards += 1
          val a = mask.indices.filter(mask).maxBy(q)
          if (a == 8) stop = true else node = node.children(a)
        }
        c.traversals += 1
        if (stop) c.stops += 1
        c.levelSum += node.level
        // Agent-Point
        val cands = t.span(sCand)(env.candidates(node))
        c.candCalls += 1; c.candScanned += node.nPoints; c.candReturned += cands.length
        require(cands.nonEmpty, "chosen cube has no un-inserted points")
        val chosen =
          if (cands.length == 1) cands(0)
          else {
            val (state, mask) = t.span(sPointState)(env.pointState(node, cands))
            val q = t.span(sPointFwd)(pointNet.forward(state))
            c.pointForwards += 1
            val a = mask.indices.filter(mask).maxBy(q)
            cands(math.min(a, cands.length - 1))
          }
        t.span(sInsert)(env.insertPoint(chosen.trajIdx, chosen.ptIdx))
        c.inserts += 1
      }
      t.span(sResult)(env.result)
    }
    // query tests of the loop's insertions (the interior kept points; the
    // endpoints are inserted while the environment is built), counted after
    // the call so the counting is not inside any span
    for (tr <- db; i <- out.kept(tr.id) if i != 0 && i != tr.length - 1) {
      val p = tr.points(i)
      c.queryTests += workload.length
      c.queryHits += workload.count(_.contains(p))
    }
    out
  }
}

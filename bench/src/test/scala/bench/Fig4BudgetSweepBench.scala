package bench

import repro.SparkSpec
import repro.exp.Experiments

/** Fig. 4 (rendered as a table) — RL4QDTS vs the data-distribution skyline
  * baselines across storage budgets on Geolife, for all five query tasks
  * (data distribution) plus a range-query sweep under the Gaussian
  * distribution (Fig. 4 f–j analogue).
  *
  * The sweep uses the paper's budgets 0.25%–2%N (feasible because the repro
  * database keeps full-length 1412-point trajectories, so the 2-points-per-
  * trajectory floor is only 0.14%N). Claim under test: RL4QDTS dominates and
  * the gap is largest at tight budgets.
  */
class Fig4BudgetSweepBench extends SparkSpec {

  private val budgets = Experiments.budgets

  test("Fig 4 (a-e analogue): budget sweep, data distribution, five tasks") {
    val (table, rl, best) = Experiments.fig4Data(BenchShared.evalData, BenchShared.agents,
      Experiments.envInt("BENCH_RL_RUNS", 3))
    BenchShared.record(table.print())

    // shape: RL4QDTS within/above the skyline on range F1 at every budget, and
    // F1 increases with the budget
    for (b <- budgets)
      assert(rl(b) >= best(b) - 0.05, f"budget $b: RL ${rl(b)}%.3f vs best baseline ${best(b)}%.3f")
    assert(rl(budgets.last) >= rl(budgets.head) - 0.02)
  }

  test("Fig 4 (f-j analogue): range-query sweep, Gaussian distribution") {
    val (table, rl, best) = Experiments.fig4Gauss(BenchShared.evalGauss, BenchShared.agents,
      BenchShared.rlts, Experiments.envInt("BENCH_RL_RUNS", 3))
    BenchShared.record(table.print())
    // the paper's gap is largest at tight budgets and methods converge as
    // the budget loosens; allow run noise at the converged end
    val ok = budgets.forall(b => rl(b) >= best(b) - (if (b <= 0.005) 0.05 else 0.07))
    assert(ok, "RL4QDTS fell below the Gaussian skyline at some budget")
  }
}

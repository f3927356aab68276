package repro.sim

import repro.crowd.{CrowdModel, DoorFlow, ModelState}
import repro.estimator.{GlobalEstimator, PopulationEstimator}
import scala.util.Random

/** Ground-truth crowd micro-simulator — the gold standard of Section 6.
  *
  * Evolves the *actual* populations of every partition on the update grid
  * by running Algorithm 1 with another flow source: at each grid step, every
  * reporting door emits a flow — `Poisson(λ)` draws in stochastic mode
  * (taken in link order, reporting doors only), exactly λ in deterministic
  * mode — rectified against the emitting partition's actual population
  * exactly as the estimators rectify expected flows. In deterministic mode
  * the simulator is therefore the exact global estimator, which is what
  * makes the "exact search ≡ gold" test possible (DESIGN.md §5.3).
  *
  * One instance represents one realized world; all algorithms evaluated for
  * a query instance are scored against the same realization.
  */
final class CrowdSim(val model: CrowdModel, seed: Long, val deterministic: Boolean) {
  private val rng        = new Random(seed)
  private[sim] val state = new ModelState(model)
  // stochastic: one Poisson draw per edge and step, in link order (Poisson(0) draws nothing)
  private val truth =
    if (deterministic) new GlobalEstimator(state)
    else
      new GlobalEstimator(state, (g, row) => {
        var ei = 0
        while (ei < row.length) { row(ei) = DoorFlow.samplePoisson(model.expectedFlow(ei, g), rng).toDouble; ei += 1 }
      })

  /** Actual population of partition v over grid interval g. */
  def populationAt(v: Int, g: Int): Double = truth.populationAt(v, g)

  /** Snapshot of all actual populations at grid step g. */
  def snapshot(g: Int): IndexedSeq[Double] = (0 until model.space.numPartitions).map(truth.populationAt(_, g))
}

/** Estimator facade over the simulator truth — used to compute the gold
  * path (exact search over actual populations) and by the adaptive baseline
  * to observe the world.
  */
final class SimOracleEstimator(val state: ModelState, sim: CrowdSim) extends PopulationEstimator {
  val name                                 = "oracle"
  def populationAt(v: Int, g: Int): Double = sim.populationAt(v, g)
}

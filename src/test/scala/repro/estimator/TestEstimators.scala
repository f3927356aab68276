package repro.estimator

import repro.crowd.ModelState

/** Crowd-free estimator: every partition is empty, so ρ is a constant and
  * the search degenerates to a plain shortest-(distance) path. Used by
  * reduction tests.
  */
final class ZeroEstimator(val state: ModelState) extends PopulationEstimator {
  val name                                 = "zero"
  def populationAt(v: Int, g: Int): Double = 0.0
}

/** Freezes another estimator at a fixed grid step, making all edge weights
  * time-independent (snapshot mode) — used to cross-validate the Pregel
  * search against driver Dijkstra, where both are provably optimal.
  */
final class FrozenEstimator(inner: PopulationEstimator, gFixed: Int) extends PopulationEstimator {
  val name                                 = s"frozen@$gFixed"
  val state: ModelState                    = inner.state
  def populationAt(v: Int, g: Int): Double = inner.populationAt(v, gFixed)
}

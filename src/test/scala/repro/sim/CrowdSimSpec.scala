package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.ModelState
import repro.estimator.GlobalEstimator
import repro.testutil.TestModels

class CrowdSimSpec extends AnyFunSuite {

  test("deterministic simulation equals the exact global estimator at every step") {
    val model = TestModels.miniModel(objScale = 40)
    val sim   = new CrowdSim(model, seed = 1, deterministic = true)
    val est   = new GlobalEstimator(new ModelState(model))
    for (g <- 0 to 20; v <- 0 until model.space.numPartitions) {
      assert(math.abs(sim.populationAt(v, g) - est.populationAt(v, g)) < 1e-9, s"v=$v g=$g")
    }
  }

  test("the gold worlds are pinned: snapshot(30) of miniModel(3), seed 7, both modes") {
    val model = TestModels.miniModel(objScale = 3)
    val stochastic = Vector(2.2488015182475154, 0.13579521590498117, 0.6013470454298422, 0.0,
      1.1708155401467077, 1.9999999999999996, 1.8749785767304508, 2.1648048666891855, 1.1966398644427505,
      0.8338247704044582, 4.262222274134157, 1.561087386862277, 2.3532580081716343, 1.7805436934311385)
    val deterministic = Vector(2.905405123327416, 1.4782822650076817, 2.875125211178501, 2.128909893087923,
      0.9449566738174322, 3.4776057829393263, 0.514579423915472, 0.828513175287594, 1.185613047337497,
      0.4800477277907667, 1.0743567985678049, 1.1244508811870164, 0.8389759175994824, 2.3272968395511846)
    assert(new CrowdSim(model, seed = 7, deterministic = false).snapshot(30) == stochastic)
    assert(new CrowdSim(model, seed = 7, deterministic = true).snapshot(30) == deterministic)
  }

  test("stochastic simulation conserves total population") {
    val model  = TestModels.miniModel(objScale = 40)
    val sim    = new CrowdSim(model, seed = 2, deterministic = false)
    val total0 = model.initialPop.sum
    for (g <- 1 to 30) {
      val total = (0 until model.space.numPartitions).map(v => sim.populationAt(v, g)).sum
      assert(math.abs(total - total0) < 1e-6, s"step $g")
    }
  }

  test("stochastic populations never go negative") {
    val model = TestModels.miniModel(objScale = 3)
    val sim   = new CrowdSim(model, seed = 3, deterministic = false)
    for (g <- 0 to 30; v <- 0 until model.space.numPartitions) {
      assert(sim.populationAt(v, g) >= 0.0)
    }
  }

  test("simulation is deterministic in its seed") {
    val model = TestModels.miniModel(objScale = 40)
    val a     = new CrowdSim(model, seed = 7, deterministic = false)
    val b     = new CrowdSim(model, seed = 7, deterministic = false)
    for (g <- 0 to 15; v <- 0 until model.space.numPartitions) {
      assert(a.populationAt(v, g) == b.populationAt(v, g))
    }
  }

  test("different seeds realize different worlds") {
    val model = TestModels.miniModel(objScale = 40)
    val a     = new CrowdSim(model, seed = 1, deterministic = false)
    val b     = new CrowdSim(model, seed = 2, deterministic = false)
    val diff = (0 until model.space.numPartitions).exists(v => a.populationAt(v, 10) != b.populationAt(v, 10))
    assert(diff)
  }

  test("stochastic flows track the Poisson rates in expectation") {
    val model = TestModels.miniModel(objScale = 100000) // no rectification
    val nRuns = 60
    val v     = 5
    val g     = 1
    val means = (0 until nRuns).map { s =>
      new CrowdSim(model, seed = s, deterministic = false).populationAt(v, g)
    }
    val detVal = new CrowdSim(model, seed = 0, deterministic = true).populationAt(v, g)
    val avg    = means.sum / nRuns
    // the deterministic step is the expectation of the stochastic one
    assert(math.abs(avg - detVal) / math.max(1.0, detVal) < 0.05, s"avg=$avg det=$detVal")
  }

  test("snapshot returns the full per-partition vector") {
    val model = TestModels.miniModel()
    val sim   = new CrowdSim(model, seed = 4, deterministic = true)
    val snap  = sim.snapshot(5)
    assert(snap.size == model.space.numPartitions)
    (0 until model.space.numPartitions).foreach(v => assert(snap(v) == sim.populationAt(v, 5)))
  }

  test("snapshot(0) is the model's initial population") {
    val model = TestModels.miniModel()
    val sim   = new CrowdSim(model, seed = 5, deterministic = false)
    assert(sim.snapshot(0) == model.initialPop)
  }

  test("oracle estimator exposes the simulated truth") {
    val model = TestModels.miniModel()
    val sim   = new CrowdSim(model, seed = 6, deterministic = false)
    val est   = new SimOracleEstimator(new ModelState(model), sim)
    for (v <- Seq(0, 7); g <- Seq(0, 4, 9)) {
      assert(est.populationAt(v, g) == sim.populationAt(v, g))
    }
  }

  test("lazy extension derives steps on demand only") {
    val model = TestModels.miniModel()
    val sim   = new CrowdSim(model, seed = 8, deterministic = true)
    def tops  = (0 until model.space.numPartitions).map(sim.state.popTop).toSet
    assert(tops == Set(0))
    sim.populationAt(0, 3)
    assert(tops == Set(3))
    sim.populationAt(0, 1)
    assert(tops == Set(3))
  }
}

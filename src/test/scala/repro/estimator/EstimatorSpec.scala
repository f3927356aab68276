package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, EdgeKey, ModelState}
import repro.indoor.SynthFloorplan
import repro.testutil.TestModels

class EstimatorSpec extends AnyFunSuite {

  private def globalOn(model: CrowdModel)          = new GlobalEstimator(new ModelState(model))
  private def localOn(model: CrowdModel)           = new LocalEstimator(new ModelState(model), exactUpstream = true)
  private def ppOn(model: CrowdModel)              = new LocalEstimator(new ModelState(model), exactUpstream = false)

  test("figure 4: rectification scales v1's outflows (4,2) to (2,1)") {
    val (_, model) = TestModels.figure4()
    val est        = globalOn(model)
    est.populationAt(0, 1) // trigger step 1
    def flow(e: EdgeKey): Double = est.state.flow(model.edges.indexOf(e), 1)
    assert(math.abs(flow(EdgeKey(0, 1, 0)) - 2.0) < 1e-12)
    assert(math.abs(flow(EdgeKey(0, 2, 1)) - 1.0) < 1e-12)
    // v2 and v3 are not rectified
    assert(math.abs(flow(EdgeKey(1, 0, 0)) - 2.0) < 1e-12)
    assert(math.abs(flow(EdgeKey(2, 1, 2)) - 1.0) < 1e-12)
  }

  test("figure 4: new populations are (2, 8, 4) as in the paper") {
    val (_, model) = TestModels.figure4()
    val est        = globalOn(model)
    assert(math.abs(est.populationAt(0, 1) - 2.0) < 1e-12)
    assert(math.abs(est.populationAt(1, 1) - 8.0) < 1e-12)
    assert(math.abs(est.populationAt(2, 1) - 4.0) < 1e-12)
  }

  test("figure 4: local estimator reproduces the same populations") {
    val (_, model) = TestModels.figure4()
    val est        = localOn(model)
    assert(math.abs(est.populationAt(0, 1) - 2.0) < 1e-12)
    assert(math.abs(est.populationAt(1, 1) - 8.0) < 1e-12)
    assert(math.abs(est.populationAt(2, 1) - 4.0) < 1e-12)
  }

  test("global estimator conserves total population (closed space)") {
    val model = TestModels.miniModel(objScale = 40)
    val est   = globalOn(model)
    val total0 = (0 until model.space.numPartitions).map(model.initialPop).sum
    for (g <- 1 to 25) {
      val total = (0 until model.space.numPartitions).map(v => est.populationAt(v, g)).sum
      assert(math.abs(total - total0) < 1e-6, s"step $g: $total vs $total0")
    }
  }

  test("populations are never negative") {
    val model = TestModels.miniModel(objScale = 3) // starved: heavy rectification
    val g     = globalOn(model)
    val l     = localOn(model)
    val p     = ppOn(model)
    for (v <- 0 until model.space.numPartitions; step <- 0 to 20) {
      assert(g.populationAt(v, step) >= 0)
      assert(l.populationAt(v, step) >= 0)
      assert(p.populationAt(v, step) >= 0)
    }
  }

  test("local (Alg. 2) equals global (Alg. 1) everywhere") {
    for (scale <- Seq(3, 40, 500)) {
      val model = TestModels.miniModel(objScale = scale)
      val g     = globalOn(model)
      val l     = localOn(model)
      for (v <- 0 until model.space.numPartitions; step <- Seq(1, 3, 7, 15)) {
        assert(math.abs(g.populationAt(v, step) - l.populationAt(v, step)) < 1e-9,
          s"scale=$scale v=$v g=$step")
      }
    }
  }

  test("local equals global on a full office floor") {
    val model = CrowdModel.synthetic(SynthFloorplan.office(1), objScale = 900, seed = 2)
    val g     = globalOn(model)
    val l     = localOn(model)
    for (v <- Seq(0, 17, 50, 140); step <- Seq(1, 5, 12)) {
      assert(math.abs(g.populationAt(v, step) - l.populationAt(v, step)) < 1e-9, s"v=$v g=$step")
    }
  }

  test("PP equals exact when rectification never triggers (rich populations)") {
    // capacity-scale populations: every partition can satisfy its outflows
    val model = TestModels.miniModel(objScale = 100000)
    val l     = localOn(model)
    val p     = ppOn(model)
    for (v <- 0 until model.space.numPartitions; step <- Seq(1, 5, 10)) {
      assert(math.abs(l.populationAt(v, step) - p.populationAt(v, step)) < 1e-9)
    }
  }

  test("PP deviates from exact when upstream partitions are starved") {
    val model = TestModels.miniModel(objScale = 2)
    val l     = localOn(model)
    val p     = ppOn(model)
    val diffs = for (v <- 0 until model.space.numPartitions; step <- Seq(5, 10, 15))
      yield math.abs(l.populationAt(v, step) - p.populationAt(v, step))
    assert(diffs.max > 1e-6, "expected PP to differ somewhere under starvation")
  }

  test("PP over-estimates the first step of a starved upstream's neighbour") {
    val model = TestModels.miniModel(objScale = 2)
    for (v <- 0 until model.space.numPartitions) {
      val l = localOn(model).populationAt(v, 1)
      val p = ppOn(model).populationAt(v, 1)
      assert(p >= l - 1e-9, s"v=$v: PP=$p exact=$l") // raw inflows ≥ rectified inflows
    }
  }

  test("PP derives strictly fewer flow entries than exact on a big space") {
    val model = CrowdModel.synthetic(SynthFloorplan.office(1), objScale = 900, seed = 4)
    val l     = localOn(model); val p = ppOn(model)
    l.populationAt(70, 10); p.populationAt(70, 10)
    assert(p.state.flowDerivations < l.state.flowDerivations)
  }

  test("derivation counts are pinned: every partition at g = 0..40 of miniModel(3)") {
    val model = TestModels.miniModel(objScale = 3)
    for ((est, flows, pops) <- Seq((globalOn(model), 2088, 560), (localOn(model), 2088, 560), (ppOn(model), 1601, 560))) {
      for (g <- 0 to 40; v <- 0 until model.space.numPartitions) est.populationAt(v, g)
      assert((est.state.flowDerivations, est.state.popDerivations) == ((flows, pops)), est.name)
    }
  }

  test("estimates are memoized: repeated lookups do not re-derive") {
    val model = TestModels.miniModel()
    val l     = localOn(model)
    val first = l.populationAt(5, 8)
    val count = l.state.popDerivations
    assert(l.populationAt(5, 8) == first)
    assert(l.state.popDerivations == count)
  }

  test("step 0 returns the latest known population for every estimator") {
    val model = TestModels.miniModel()
    for (v <- 0 until model.space.numPartitions) {
      assert(globalOn(model).populationAt(v, 0) == model.initialPop(v))
      assert(localOn(model).populationAt(v, 0) == model.initialPop(v))
      assert(ppOn(model).populationAt(v, 0) == model.initialPop(v))
    }
  }

  test("NT extrapolates via Eq. 7 when history is stable") {
    val base = TestModels.miniModel()
    // constant history: σ = 0 < η, μ = 1.5
    val stableHist = IndexedSeq.fill(base.space.numPartitions)(Vector.fill(10)(1.5))
    val model = new CrowdModel(base.space, base.lambda, base.reportEvery, base.ti, base.t0,
      base.initialPop, stableHist)
    val nt = new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false))
    for (v <- Seq(0, 3, 9); g <- Seq(2, 6, 12)) {
      val expected = model.initialPop(v) + 1.5 * model.updateStepsBetween(v, 0, g)
      assert(math.abs(nt.populationAt(v, g) - expected) < 1e-9)
    }
  }

  test("NT falls back to PP when history is volatile") {
    val base = TestModels.miniModel()
    val wild = IndexedSeq.fill(base.space.numPartitions)(
      Vector.tabulate(10)(i => if (i % 2 == 0) 20.0 else -20.0)) // σ = 20 ≥ η
    val model = new CrowdModel(base.space, base.lambda, base.reportEvery, base.ti, base.t0,
      base.initialPop, wild)
    val nt = new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false))
    val pp = ppOn(model)
    for (v <- Seq(1, 4); g <- Seq(3, 8)) {
      assert(math.abs(nt.populationAt(v, g) - pp.populationAt(v, g)) < 1e-9)
    }
  }

  test("NT never goes negative even with a strongly draining history") {
    val base       = TestModels.miniModel(objScale = 5)
    val draining   = IndexedSeq.fill(base.space.numPartitions)(Vector.fill(10)(-4.0))
    val model = new CrowdModel(base.space, base.lambda, base.reportEvery, base.ti, base.t0,
      base.initialPop, draining)
    val nt = new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false))
    for (v <- 0 until model.space.numPartitions) assert(nt.populationAt(v, 20) >= 0.0)
  }

  test("NT derives far fewer entries than PP on stable history") {
    val base       = CrowdModel.synthetic(SynthFloorplan.office(1), objScale = 900, seed = 6)
    val stableHist = IndexedSeq.fill(base.space.numPartitions)(Vector.fill(10)(0.5))
    val model = new CrowdModel(base.space, base.lambda, base.reportEvery, base.ti, base.t0,
      base.initialPop, stableHist)
    val nt = new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false))
    val pp = ppOn(base)
    nt.populationAt(70, 12); pp.populationAt(70, 12)
    assert(nt.state.flowDerivations < pp.state.flowDerivations)
  }

  test("ZeroEstimator always reports an empty building") {
    val z = new ZeroEstimator(new ModelState(TestModels.miniModel()))
    for (v <- 0 until 14; g <- Seq(0, 5, 100)) assert(z.populationAt(v, g) == 0.0)
  }

  test("FrozenEstimator pins the grid step") {
    val model  = TestModels.miniModel()
    val inner  = localOn(model)
    val frozen = new FrozenEstimator(inner, gFixed = 4)
    for (v <- Seq(0, 7); g <- Seq(0, 2, 50)) {
      assert(frozen.populationAt(v, g) == inner.populationAt(v, 4))
    }
  }

  test("rectified outflow never exceeds the source population") {
    val model = TestModels.miniModel(objScale = 3)
    val est   = globalOn(model)
    est.populationAt(0, 15)
    for (v <- 0 until model.space.numPartitions; g <- 1 to 15) {
      val pPrev = est.populationAt(v, g - 1)
      val out = model.space.outLinkIds(v).map(est.state.flow(_, g)).sum
      assert(out <= pPrev + 1e-9, s"v=$v g=$g out=$out pop=$pPrev")
    }
  }
}

package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, EdgeKey, ModelState}
import repro.testutil.TestModels

/** Randomized-seed property sweeps over the estimator stack — the
  * invariants behind the search's correctness, exercised across many
  * realized models rather than one fixture.
  */
class EstimatorPropertySpec extends AnyFunSuite {

  private val seeds = 1L to 8L

  test("property: total population is conserved for every model seed") {
    for (seed <- seeds; scale <- Seq(5, 80)) {
      val model = CrowdModel.synthetic(TestModels.mini(seed), objScale = scale, seed = seed)
      val est   = new GlobalEstimator(new ModelState(model))
      val t0    = model.initialPop.sum
      for (g <- Seq(5, 12)) {
        val t = (0 until model.space.numPartitions).map(v => est.populationAt(v, g)).sum
        assert(math.abs(t - t0) < 1e-6, s"seed=$seed scale=$scale g=$g")
      }
    }
  }

  test("property: local ≡ global across seeds and scales") {
    for (seed <- seeds) {
      val model = CrowdModel.synthetic(TestModels.mini(seed), objScale = 20, seed = seed)
      val g     = new GlobalEstimator(new ModelState(model))
      val l     = new LocalEstimator(new ModelState(model), exactUpstream = true)
      for (v <- 0 until model.space.numPartitions; step <- Seq(4, 9)) {
        assert(math.abs(g.populationAt(v, step) - l.populationAt(v, step)) < 1e-9,
          s"seed=$seed v=$v g=$step")
      }
    }
  }

  test("property: PP never under-estimates at the first step") {
    for (seed <- seeds) {
      val model = CrowdModel.synthetic(TestModels.mini(seed), objScale = 3, seed = seed)
      val l     = new LocalEstimator(new ModelState(model), exactUpstream = true)
      val p     = new LocalEstimator(new ModelState(model), exactUpstream = false)
      for (v <- 0 until model.space.numPartitions) {
        assert(p.populationAt(v, 1) >= l.populationAt(v, 1) - 1e-9, s"seed=$seed v=$v")
      }
    }
  }

  test("property: populations are non-negative under every estimator") {
    for (seed <- seeds.take(4)) {
      val model = CrowdModel.synthetic(TestModels.mini(seed), objScale = 2, seed = seed)
      val ests: Seq[PopulationEstimator] = Seq(
        new GlobalEstimator(new ModelState(model)),
        new LocalEstimator(new ModelState(model), exactUpstream = true),
        new LocalEstimator(new ModelState(model), exactUpstream = false),
        new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false)),
      )
      for (e <- ests; v <- 0 until model.space.numPartitions; g <- Seq(0, 3, 10)) {
        assert(e.populationAt(v, g) >= 0, s"${e.name} seed=$seed v=$v g=$g")
      }
    }
  }

  test("property: rectified outflows never exceed the source population") {
    for (seed <- seeds.take(4)) {
      val model = CrowdModel.synthetic(TestModels.mini(seed), objScale = 4, seed = seed)
      val est   = new GlobalEstimator(new ModelState(model))
      est.populationAt(0, 10)
      for (v <- 0 until model.space.numPartitions; g <- 1 to 10) {
        val out = model.space.outLinkIds(v).map(est.state.flow(_, g)).sum
        assert(out <= est.populationAt(v, g - 1) + 1e-9, s"seed=$seed v=$v g=$g")
      }
    }
  }

  test("property: a model with zero flows keeps its populations frozen") {
    val base  = TestModels.miniModel()
    val model = new CrowdModel(base.space, base.lambda.view.mapValues(_ => 0.0).toMap,
      base.reportEvery, base.ti, base.t0, base.initialPop, base.historyNet)
    val est = new GlobalEstimator(new ModelState(model))
    for (v <- 0 until model.space.numPartitions; g <- Seq(1, 7, 15)) {
      assert(est.populationAt(v, g) == model.initialPop(v))
    }
  }

  test("property: doubling all populations scales densities but preserves rectification triggers' direction") {
    val base = TestModels.miniModel(objScale = 10)
    val big = new CrowdModel(base.space, base.lambda, base.reportEvery, base.ti, base.t0,
      base.initialPop.map(_ * 2), base.historyNet)
    val eSmall = new GlobalEstimator(new ModelState(base))
    val eBig   = new GlobalEstimator(new ModelState(big))
    for (v <- 0 until base.space.numPartitions) {
      // richer model never has a lower population after one step
      assert(eBig.populationAt(v, 1) >= eSmall.populationAt(v, 1) - 1e-9)
    }
  }

  test("property: estimators agree on the trivially-empty building") {
    val base = TestModels.mini()
    val model = new CrowdModel(base,
      base.links.map(l => EdgeKey(l.from, l.to, l.door) -> 0.5).toMap,
      IndexedSeq.fill(base.numDoors)(1), 10, 0.0,
      IndexedSeq.fill(base.numPartitions)(0.0), IndexedSeq.fill(base.numPartitions)(Vector(0.0)))
    val g = new GlobalEstimator(new ModelState(model))
    val l = new LocalEstimator(new ModelState(model), exactUpstream = true)
    for (v <- 0 until base.numPartitions; step <- Seq(1, 5)) {
      assert(g.populationAt(v, step) == 0.0 && l.populationAt(v, step) == 0.0)
    }
  }
}

package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, ModelState}
import repro.indoor.SynthFloorplan
import repro.testutil.TestModels
import scala.collection.mutable
import scala.util.Random

/** Alg. 2 as a recursion into the upstream cone — how exact local
  * estimation was written before the cone sweep. An independent reference:
  * each step reads a row of [[CrowdModel.expectedFlow]] against a vector
  * of ones instead of the report vector.
  */
final class RecursiveLocalEstimator(val state: ModelState) extends PopulationEstimator {
  val name          = "local-recursive"
  private val space = model.space
  private val ones  = Array.fill(model.numPeriods)(1.0)
  private val rows  = mutable.Map.empty[Int, Array[Double]]

  private def row(g: Int): Array[Double] =
    rows.getOrElseUpdate(g, Array.tabulate(space.links.size)(model.expectedFlow(_, g)))

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    while (state.popTop(v) < g) step(v, state.popTop(v) + 1)
    state.pop(v, g)
  }

  private def rectify(v: Int, g: Int, pPrev: Double): Unit = {
    state.flowDerivations += space.outLinkIds(v).length
    state.rectifyOut(v, g, pPrev, row(g), ones)
  }

  private def step(v: Int, g: Int): Unit = {
    val pPrev = state.pop(v, g - 1)
    if (!state.hasScale(v, g)) rectify(v, g, pPrev)
    for (e <- space.inLinkIds(v)) {
      val u = space.linkFrom(e)
      if (!state.hasScale(u, g)) rectify(u, g, populationAt(u, g - 1)) // recursion into the upstream cone
    }
    state.applyEq6(v, g, pPrev, row(g), ones)
  }
}

class ConeSweepSpec extends AnyFunSuite {

  private lazy val office1 = CrowdModel.synthetic(SynthFloorplan.office(1))

  private def models = Seq(
    "mini3"     -> TestModels.miniModel(objScale = 3),
    "office1"   -> office1,
    "office1@7" -> TestModels.resynced(office1, gNow = 7),
    "mini3@13"  -> TestModels.resynced(TestModels.miniModel(objScale = 3), gNow = 13),
  )

  test("property: the cone sweep derives what the recursion derives, lookup by lookup") {
    for ((name, model) <- models; seed <- 1 to 3) {
      val n     = model.space.numPartitions
      val sweep = new LocalEstimator(new ModelState(model), exactUpstream = true)
      val ref   = new RecursiveLocalEstimator(new ModelState(model))
      val rng   = new Random(seed)
      // a search's frontier creeps forward while it keeps looking back at earlier steps
      var frontier = 0
      var lookups  = 0
      while (frontier < 120) {
        frontier = math.min(120, frontier + rng.nextInt(4))
        for (g <- Seq(frontier, rng.nextInt(frontier + 1), frontier - rng.nextInt(3))) {
          val v    = rng.nextInt(n)
          val clue = s"$name seed=$seed lookup=$lookups v=$v g=$g"
          assert(sweep.populationAt(v, g) == ref.populationAt(v, g), clue)
          val (s, r) = (sweep.state, ref.state)
          assert(s.popDerivations == r.popDerivations && s.flowDerivations == r.flowDerivations, clue)
          for (u <- 0 until n)
            assert(s.popTop(u) == r.popTop(u) && s.scaleTop(u) == r.scaleTop(u), s"$clue u=$u")
          lookups += 1
        }
      }
      assert(lookups > 100)
    }
  }

  test("local ≡ global on re-synchronized models (queries off the grid origin)") {
    for ((name, model) <- models if name.contains('@')) {
      assert(model.gridOffset != 0)
      val global = new GlobalEstimator(new ModelState(model))
      val local  = new LocalEstimator(new ModelState(model), exactUpstream = true)
      for (v <- 0 until model.space.numPartitions; g <- 0 to 60)
        assert(local.populationAt(v, g) == global.populationAt(v, g), s"$name v=$v g=$g")
    }
  }
}

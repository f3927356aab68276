package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, ModelState}
import repro.indoor.SynthFloorplan
import repro.testutil.TestModels
import scala.util.Random

/** Bit-level pins of the population store. The hashes were recorded with
  * the `LongMap`-backed store that stored every rectified flow; the dense
  * store that recomputes flows must reproduce them bit for bit, in both
  * sweep orders (Strategy PP's values depend on the order partitions are
  * derived in).
  */
class EstimatorPinSpec extends AnyFunSuite {

  private lazy val office1 = CrowdModel.synthetic(SynthFloorplan.office(1))

  private def estimators(model: CrowdModel): Seq[PopulationEstimator] = Seq(
    new GlobalEstimator(new ModelState(model)),
    new LocalEstimator(new ModelState(model), exactUpstream = true),
    new LocalEstimator(new ModelState(model), exactUpstream = false),
    new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false)),
  )

  /** FNV-1a over the raw IEEE bits of the values, in order. */
  private def bitHash(values: Iterator[Double]): Long =
    values.foldLeft(0xcbf29ce484222325L)((h, x) => (h ^ java.lang.Double.doubleToRawLongBits(x)) * 0x100000001b3L)

  private def sweep(est: PopulationEstimator, vMajor: Boolean): Long = {
    val n     = est.model.space.numPartitions
    val cells =
      if (vMajor) for (v <- Iterator.range(0, n); g <- Iterator.range(0, 41)) yield (v, g)
      else for (g <- Iterator.range(0, 41); v <- Iterator.range(0, n)) yield (v, g)
    bitHash(cells.map { case (v, g) => est.populationAt(v, g) })
  }

  test("population bits are pinned: g = 0..40 × every v, both sweep orders") {
    // global, exact local, PP, NT; global ≡ exact local bit for bit, PP and NT depend on the order
    val pinned = Map(
      ("mini3", true)    -> Seq(4820750020778878133L, 4820750020778878133L, 8773834742742379047L, 6198872333495601159L),
      ("mini3", false)   -> Seq(-5896275321204891583L, -5896275321204891583L, 2265804757100465529L, -3449667622306384973L),
      ("office1", true)  -> Seq(4739486863703832514L, 4739486863703832514L, -2064917460777623027L, 2854438345030597036L),
      ("office1", false) -> Seq(-3284910712817704090L, -3284910712817704090L, -7583795638709567599L, -9186724047013999216L),
    )
    val got = for ((name, model) <- Seq("mini3" -> TestModels.miniModel(objScale = 3), "office1" -> office1);
                   vMajor <- Seq(true, false)) yield (name, vMajor) -> estimators(model).map(sweep(_, vMajor))
    assert(got.toMap == pinned)
  }

  test("population bits are pinned on re-synchronized models (gridOffset 7), both sweep orders") {
    val pinned = Map(
      ("mini3", true)    -> Seq(6403885729644024375L, 6403885729644024375L, 542717184773790813L, 7027667419540649549L),
      ("mini3", false)   -> Seq(-5940646076055515079L, -5940646076055515079L, 4659325051391699007L, -2376707918155518459L),
      ("office1", true)  -> Seq(9680024073570926L, 9680024073570926L, 6798296071668712480L, 8587121202833410037L),
      ("office1", false) -> Seq(2770086803687694798L, 2770086803687694798L, 6758215127407953376L, 4258095261808196729L),
    )
    val models = Seq("mini3" -> TestModels.miniModel(objScale = 3), "office1" -> office1)
      .map { case (name, m) => name -> TestModels.resynced(m, gNow = 7) }
    assert(models.forall(_._2.gridOffset == 7))
    val got = for ((name, model) <- models; vMajor <- Seq(true, false))
      yield (name, vMajor) -> estimators(model).map(sweep(_, vMajor))
    assert(got.toMap == pinned)
  }

  test("LCPQ-pattern lookups (non-monotone, up to step 720) equal an in-order sweep") {
    val model = office1
    val n     = model.space.numPartitions
    for (exact <- Seq(false, true)) {
      def fresh(): PopulationEstimator =
        if (exact) new LocalEstimator(new ModelState(model), exactUpstream = true)
        else new GlobalEstimator(new ModelState(model))
      val inOrder = fresh()
      val ref     = Array.tabulate(721, n)((g, v) => inOrder.populationAt(v, g))
      // a search's frontier creeps forward while it keeps looking back at earlier steps
      val est      = fresh()
      val rng      = new Random(12)
      var frontier = 0
      var lookups  = 0
      while (frontier < 720) {
        frontier = math.min(720, frontier + rng.nextInt(4))
        for (g <- Seq(frontier, rng.nextInt(frontier + 1), rng.nextInt(frontier + 1))) {
          val v = rng.nextInt(n)
          assert(est.populationAt(v, g) == ref(g)(v), s"${est.name} v=$v g=$g")
          lookups += 1
        }
      }
      for (v <- 0 until n) assert(est.populationAt(v, 720) == ref(720)(v), s"${est.name} v=$v g=720")
      assert(lookups > 500)
    }
  }
}

package repro.crowd

import org.scalatest.funsuite.AnyFunSuite
import repro.indoor.{IndoorSpace, SynthFloorplan}
import repro.testutil.TestModels
import scala.util.Random

class CrowdModelSpec extends AnyFunSuite {

  private lazy val space = SynthFloorplan.office(1)
  private lazy val model = CrowdModel.synthetic(space, objScale = 900, ti = 10, seed = 5)

  test("model covers every directed link with an edge") {
    assert(model.edges.size == space.links.size)
    assert(model.edges == space.links.map(l => EdgeKey(l.from, l.to, l.door)))
    assert(model.edges.indices.forall(ei => model.rate(ei) == model.lambda(model.edges(ei))))
  }

  test("λ values respect the paper's range [0, 3]") {
    model.lambda.values.foreach(l => assert(l >= 0 && l <= 3.0))
  }

  test("hallway doors run hotter than room doors on average") {
    val isCorr = (v: Int) => space.partitions(v).rect.height <= 30 || space.partitions(v).isStairway
    val (hall, room) = model.edges.partition(e => isCorr(e.from) && isCorr(e.to))
    val hallAvg = hall.map(model.lambda).sum / hall.size
    val roomAvg = room.map(model.lambda).sum / room.size
    assert(hallAvg > roomAvg)
  }

  test("report periods are 1..5 grid steps") {
    model.reportEvery.foreach(p => assert(p >= 1 && p <= 5))
  }

  test("every door reports at step 0 and at its period multiples") {
    (0 until space.numDoors).foreach { d =>
      assert(model.doorReportsAt(d, 0))
      assert(model.doorReportsAt(d, model.reportEvery(d)))
      if (model.reportEvery(d) > 1) assert(!model.doorReportsAt(d, 1) || model.reportEvery(d) == 1)
    }
  }

  test("expectedFlow is zero between reports and λ at reports") {
    val ei = model.edges.indexWhere(e => model.reportEvery(e.door) == 5)
    assert(model.expectedFlow(ei, 5) == model.lambda(model.edges(ei)))
    (1 to 4).foreach(g => assert(model.expectedFlow(ei, g) == 0.0))
  }

  test("gridStep/gridTime round-trip") {
    assert(model.gridStep(model.gridTime(7)) == 7)
    assert(model.gridStep(model.t0) == 0)
    assert(model.gridStep(model.t0 + 10.0 * 3 + 4) == 3)
    assert(model.gridStep(model.t0 - 100) == 0) // clamped
  }

  test("initial populations are within [0, |o|] and capacity") {
    model.initialPop.zipWithIndex.foreach { case (p, v) =>
      assert(p >= 0 && p <= 900 && p <= model.capacity(v) + 1e-9)
    }
  }

  test("updateStepsBetween counts the union of the partition doors' reports") {
    // a re-synchronized model of the Table-3 office: report phases are shifted
    val office  = SynthFloorplan.office(5, seed = 1)
    val table3  = CrowdModel.synthetic(office, objScale = 900, ti = 10, seed = 1)
    val shifted = table3.withObservation(table3.initialPop, 3)
    for (m <- Seq(model, shifted); v <- 0 until m.space.numPartitions) {
      val manual = (1 to 30).count(g => m.space.allDoors(v).exists(d => m.doorReportsAt(d, g)))
      assert(m.updateStepsBetween(v, 0, 30) == manual, s"v=$v gridOffset=${m.gridOffset}")
      assert(m.updateStepsBetween(v, 0, 0) == 0)
    }
  }

  test("updateStepsBetween's whole-period count equals the step-by-step count") {
    // the step-by-step count it replaced, kept as the reference
    def byStep(m: CrowdModel, v: Int, gFrom: Int, gTo: Int): Int = {
      val periods = m.space.allDoors(v).map(m.reportEvery)
      ((gFrom + 1 + m.gridOffset) to (gTo + m.gridOffset)).count(g => periods.exists(p => g % p == 0))
    }
    val rng        = new Random(3)
    val mismatches = Seq.newBuilder[String]
    for (offset <- 0 until 60) {
      val m = if (offset == 0) model else model.withObservation(model.initialPop, offset)
      for (v <- 0 until m.space.numPartitions) {
        val periods = m.space.allDoors(v).map(m.reportEvery).toArray
        var count   = 0 // byStep(m, v, 0, g), one step at a time
        for (g <- 1 to 800) {
          if (periods.exists(p => (g + offset) % p == 0)) count += 1
          if (m.updateStepsBetween(v, 0, g) != count) mismatches += s"offset=$offset v=$v (0, $g]"
        }
        val a = rng.nextInt(800)
        val b = a + rng.nextInt(801 - a)
        for ((from, to) <- Seq((0, 0), (0, 800), (a, b), (b, a)))
          if (m.updateStepsBetween(v, from, to) != byStep(m, v, from, to)) mismatches += s"offset=$offset v=$v ($from, $to]"
      }
    }
    assert(mismatches.result().isEmpty)
  }

  test("historyStats computes mean and stddev of the net-flow history") {
    val v         = 3
    val h         = model.historyNet(v)
    val (mu, sig) = model.historyStats(v)
    val muManual  = h.sum / h.size
    assert(math.abs(mu - muManual) < 1e-12)
    val sigManual = math.sqrt(h.map(x => (x - muManual) * (x - muManual)).sum / h.size)
    assert(math.abs(sig - sigManual) < 1e-12)
  }

  test("withObservation shifts the grid origin but keeps report phases") {
    val obs = model.withObservation(IndexedSeq.fill(space.numPartitions)(1.0), gNow = 7)
    assert(obs.t0 == model.gridTime(7))
    (0 until space.numDoors).foreach { d =>
      (0 to 20).foreach { g =>
        assert(obs.doorReportsAt(d, g) == model.doorReportsAt(d, g + 7))
      }
    }
    assert(obs.initialPop.forall(_ == 1.0))
  }

  test("synthetic model is deterministic in the seed") {
    val a = CrowdModel.synthetic(space, seed = 9)
    val b = CrowdModel.synthetic(space, seed = 9)
    assert(a.lambda == b.lambda && a.initialPop == b.initialPop && a.reportEvery == b.reportEvery)
  }

  test("ModelState instruments derivation counts") {
    val (_, fig) = TestModels.figure4()
    val st       = new ModelState(fig)
    val on       = new Array[Double](fig.numPeriods)
    fig.reportInto(1, on)
    assert(st.popDerivations == 0 && st.flowDerivations == 0)
    st.rectifyOut(0, 1, 3.0, fig.rates, on) // v1's outflows (4, 2) exceed its 3: both are rewritten
    st.rectifyOut(1, 1, 7.0, fig.rates, on) // v2's fit: none is
    assert(st.flowDerivations == 2 && st.popDerivations == 0)
    assert(st.hasScale(0, 1) && st.hasScale(1, 1) && !st.hasScale(2, 1))
    st.applyEq6(0, 1, 3.0, fig.rates, on) // 3 − (2 + 1) + (2 + 0)
    assert(st.popDerivations == 1 && st.flowDerivations == 2)
    assert(st.hasPop(0, 1) && !st.hasPop(1, 1) && st.pop(0, 1) == 2.0 && st.pop(0, 0) == 3.0)
  }

  test("ModelState columns are written in step order, each scale before its population") {
    val (_, fig) = TestModels.figure4()
    val st       = new ModelState(fig)
    val (w, on)  = (fig.rates, Array.fill(fig.numPeriods)(1.0))
    intercept[IllegalStateException](st.applyEq6(0, 1, 3.0, w, on))   // no scale at step 1 yet
    intercept[IllegalStateException](st.rectifyOut(0, 2, 3.0, w, on)) // skips step 1
    intercept[IllegalArgumentException](st.pop(0, 1))                  // not derived
    st.rectifyOut(0, 1, 3.0, w, on)
    st.applyEq6(0, 1, 3.0, w, on)
    intercept[IllegalStateException](st.applyEq6(0, 1, 3.0, w, on))   // already derived
    assert(st.popTop(0) == 1 && st.popDerivations == 1)
  }

  test("invalid models and spaces are rejected at construction") {
    val (fig, m) = TestModels.figure4()
    def build(
        lambda: Map[EdgeKey, Double] = m.lambda,
        reportEvery: IndexedSeq[Int] = m.reportEvery,
        ti: Int = m.ti,
        initialPop: IndexedSeq[Double] = m.initialPop,
    ) = new CrowdModel(fig, lambda, reportEvery, ti, m.t0, initialPop, m.historyNet)
    build() // the fixture itself is valid
    val cases = Seq[(String, () => Any)](
      "λ not finite"                -> (() => build(lambda = m.lambda.updated(m.edges.head, Double.NaN))),
      "report period 0"             -> (() => build(reportEvery = m.reportEvery.updated(0, 0))),
      "ti 0"                        -> (() => build(ti = 0)),
      "negative initial population" -> (() => build(initialPop = m.initialPop.updated(1, -1.0))),
      "duplicate (from, to, door)"  -> (() => new IndoorSpace(fig.partitions, fig.doors, fig.links :+ fig.links.head, Map.empty)),
    )
    for ((rule, bad) <- cases) withClue(rule)(intercept[IllegalArgumentException](bad()))
  }
}

class DoorFlowSpec extends AnyFunSuite {

  test("fitLambda is the sample mean (Poisson MLE)") {
    assert(DoorFlow.fitLambda(Seq(1, 2, 3, 4, 5).map(_.toDouble)) == 3.0)
    assert(DoorFlow.fitLambda(Seq(0.0, 0.0)) == 0.0)
  }

  test("fitLambda clamps negative means to zero and rejects empty input") {
    assert(DoorFlow.fitLambda(Seq(-1.0, -3.0)) == 0.0)
    intercept[IllegalArgumentException](DoorFlow.fitLambda(Seq.empty))
  }

  test("samplePoisson(0) is always 0") {
    val rng = new Random(1)
    (0 until 100).foreach(_ => assert(DoorFlow.samplePoisson(0.0, rng) == 0))
  }

  test("samplePoisson matches mean and variance of Poisson(λ)") {
    val rng = new Random(2)
    for (lambda <- Seq(0.5, 1.5, 3.0)) {
      val n  = 20000
      val xs = Seq.fill(n)(DoorFlow.samplePoisson(lambda, rng).toDouble)
      val m  = xs.sum / n
      val v  = xs.map(x => (x - m) * (x - m)).sum / n
      assert(math.abs(m - lambda) < 0.1, s"mean $m for λ=$lambda")
      assert(math.abs(v - lambda) < 0.2, s"var $v for λ=$lambda")
    }
  }

  test("samplePoisson large-λ branch stays near the mean") {
    val rng = new Random(3)
    val xs  = Seq.fill(5000)(DoorFlow.samplePoisson(100.0, rng).toDouble)
    val m   = xs.sum / xs.size
    assert(math.abs(m - 100.0) < 1.5)
    xs.foreach(x => assert(x >= 0))
  }

  test("samplePoisson rejects negative rates") {
    intercept[IllegalArgumentException](DoorFlow.samplePoisson(-1.0, new Random(4)))
  }
}

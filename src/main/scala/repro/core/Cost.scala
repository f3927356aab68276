package repro.core

import repro.crowd.CrowdModel
import repro.indoor.CrowdType

/** Which query a search is processing. */
sealed trait QueryType
object QueryType {
  case object FPQ  extends QueryType
  case object LCPQ extends QueryType
}

/** Accumulated routing cost along a (partial) path: (distance, time) for
  * FPQ and (distance, time, contact) for LCPQ (Alg. 3 line 6). Summed
  * element-wise along path segments.
  */
final case class Cost(dist: Double, time: Double, contact: Double) {
  def +(that: Cost): Cost = Cost(dist + that.dist, time + that.time, contact + that.contact)
}

object Cost {
  val Zero: Cost = Cost(0, 0, 0)

  /** Problem 1/2 orderings: FPQ minimizes travel time, ties broken by
    * distance; LCPQ minimizes contact, ties broken by distance (time kept
    * as the final tiebreak so the comparison is total).
    */
  def ordering(qt: QueryType): Ordering[Cost] = qt match {
    case QueryType.FPQ  => (a, b) => lexicographic(a.time, b.time, a.dist, b.dist, a.contact, b.contact)
    case QueryType.LCPQ => (a, b) => lexicographic(a.contact, b.contact, a.dist, b.dist, a.time, b.time)
  }

  // java.lang.Double.compare is the total order Scala's tuple orderings use for Double
  private def lexicographic(a1: Double, b1: Double, a2: Double, b2: Double, a3: Double, b3: Double): Int = {
    val c1 = java.lang.Double.compare(a1, b1)
    if (c1 != 0) c1
    else {
      val c2 = java.lang.Double.compare(a2, b2)
      if (c2 != 0) c2 else java.lang.Double.compare(a3, b3)
    }
  }
}

/** Eq. 2–4: lagging coefficient, partition-passing time and contact. */
object CostFunctions {

  /** Eq. 2 — lagging coefficient ρ(v_k, t_c). Always > 1, monotone in
    * density; R-crowds lag less (squared ratio < ratio for ratios < 1).
    */
  def rho(tau: CrowdType, density: Double, dMax: Double): Double = {
    val ratio = if (dMax <= 0) 0.0 else density / dMax
    tau match {
      case CrowdType.Q => 1.0 + math.exp(ratio)
      case CrowdType.R => 1.0 + math.exp(ratio * ratio)
    }
  }

  /** Eq. 3 — partition-passing time T(d_i, d_j, v_k, t_c). */
  def passTime(model: CrowdModel, v: Int, dist: Double, population: Double): Double = {
    val density = population / model.area(v)
    dist / model.speed * rho(model.tau(v), density, model.beta)
  }

  /** Eq. 4 — partition-passing contact κ(d_i, d_j, v_k, t_c). For an
    * R-partition: objects in the w-wide buffer along the segment. For a
    * Q-partition: the w-long stretch of the queue around the user (the
    * proportion is capped at 1 — one cannot contact more than the whole
    * queue when the segment is shorter than w).
    */
  def passContact(model: CrowdModel, v: Int, dist: Double, population: Double): Double = {
    val density = population / model.area(v)
    model.tau(v) match {
      case CrowdType.R => dist * model.bufferW * density
      case CrowdType.Q =>
        val proportion = if (dist <= model.bufferW) 1.0 else model.bufferW / dist
        proportion * (density * model.area(v))
    }
  }

  /** Cost of one path segment of length `dist` through partition v whose
    * population over the arrival interval is `population`.
    */
  def segmentCost(model: CrowdModel, v: Int, dist: Double, population: Double): Cost =
    Cost(dist, passTime(model, v, dist, population), passContact(model, v, dist, population))
}

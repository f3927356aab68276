package perfbench

import org.apache.commons.math3.special.Beta

/** Minimal JSON rendering for the benchmark's machine-readable lines. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'            => sb.append("\\\"")
      case '\\'           => sb.append("\\\\")
      case c if c < ' '   => sb.append(f"\\u${c.toInt}%04x")
      case c              => sb.append(c)
    }
    sb.append('"').toString
  }

  /** A number with all its digits; non-finite values have no JSON form. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  /** Renders Strings, Booleans, numbers, Seqs and (ordered) Maps. */
  def render(v: Any): String = v match {
    case s: String        => str(s)
    case b: Boolean       => b.toString
    case i: Int           => i.toString
    case l: Long          => l.toString
    case d: Double        => num(d)
    case m: Map[_, _]     => m.map { case (k, x) => str(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case s: Iterable[_]   => s.map(render).mkString("[", ",", "]")
    case other            => sys.error(s"cannot render $other as JSON")
  }

  /** An insertion-ordered map, so printed objects keep a stable key order. */
  def obj(kvs: (String, Any)*): Map[String, Any] = scala.collection.immutable.ListMap(kvs: _*)
}

/** Order statistics over latency samples. */
object Quantiles {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Harrell-Davis estimate of quantile `p`: a mean of all order statistics
    * weighted by Beta(p(n+1), (1-p)(n+1)). At the 10-100 samples of one run,
    * and with per-query costs that vary 5-50x between instances, it is much
    * steadier than the one or two order statistics a sample quantile reads.
    */
  def hd(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val n = s.size
    if (n == 1) return s.head
    val (a, b) = (p * (n + 1), (1 - p) * (n + 1))
    var acc    = 0.0
    var prev   = 0.0
    for (i <- 1 to n) {
      val cdf = Beta.regularizedBeta(i.toDouble / n, a, b)
      acc += (cdf - prev) * s(i - 1)
      prev = cdf
    }
    acc
  }

  /** The highest percentile that still has at least ten samples above it,
    * as (Harrell-Davis value, percentile). Below 21 samples no percentile
    * above the median qualifies, so the median is returned at percentile 50.
    */
  def tail(xs: Seq[Double]): (Double, Int) = {
    val n = xs.size
    if (n < 21) (hd(xs, 0.5), 50)
    else {
      val p = (n - 10).toDouble / n
      (hd(xs, p), math.floor(100 * p).toInt)
    }
  }
}

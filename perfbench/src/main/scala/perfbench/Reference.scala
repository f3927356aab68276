package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import repro.core.{Cost, Search}
import scala.jdk.CollectionConverters._

/** Output checks shared by the benchmark's runs. */
object Check {
  /** Relative tolerance on costs: the mall's λ come from Spark sums whose
    * order, and so whose last bits, depend on task scheduling.
    */
  val RelTol = 1e-9

  def close(x: Double, y: Double): Boolean =
    x == y || math.abs(x - y) <= RelTol * math.max(math.abs(x), math.abs(y))

  def sameCost(a: Cost, b: Cost): Boolean = close(a.dist, b.dist) && close(a.time, b.time) && close(a.contact, b.contact)

  /** Same door sequence and cost. */
  def same(a: Search.Result, b: Search.Result): Boolean =
    a.found == b.found && a.doorSeq == b.doorSeq && sameCost(a.cost, b.cost)
}

/** Door sequences and costs of every (instance, column) of a workload's
  * pool, recorded once so that later commits are checked against them.
  * One tab-separated line per entry: instance, column, doors, dist, time,
  * contact. Gold paths are stored under the columns `gold-FPQ`/`gold-LCPQ`.
  */
final class Reference(entries: Map[(Int, String), (Vector[Int], Cost)]) {
  def size: Int = entries.size

  def matches(instance: Int, column: String, r: Search.Result): Boolean =
    entries.get((instance, column)).exists { case (doors, cost) =>
      r.found && r.doorSeq == doors && Check.sameCost(r.cost, cost)
    }
}

object Reference {
  def load(file: Path): Reference = {
    require(Files.isRegularFile(file), s"no reference file $file")
    val entries = Files.readAllLines(file, UTF_8).asScala.filterNot(l => l.isEmpty || l.startsWith("#")).map { line =>
      val f     = line.split('\t')
      val doors = if (f(2).isEmpty) Vector.empty[Int] else f(2).split(',').map(_.toInt).toVector
      (f(0).toInt, f(1)) -> (doors, Cost(f(3).toDouble, f(4).toDouble, f(5).toDouble))
    }
    new Reference(entries.toMap)
  }

  def write(file: Path, header: String, rows: Seq[(Int, String, Search.Result)]): Unit = {
    val lines = s"# $header" +: "# instance\tcolumn\tdoors\tdist\ttime\tcontact" +: rows.map { case (i, col, r) =>
      Seq(i.toString, col, r.doorSeq.mkString(","), r.cost.dist.toString, r.cost.time.toString, r.cost.contact.toString)
        .mkString("\t")
    }
    Files.createDirectories(file.getParent)
    Files.write(file, (lines.mkString("\n") + "\n").getBytes(UTF_8))
  }
}

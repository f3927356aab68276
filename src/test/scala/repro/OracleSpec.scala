package repro

import org.apache.spark.sql.functions._

/** The DuckDB Oracle on small in-test tables: it accepts a Spark plan that
  * matches the SQL (grouped aggregation, join) and rejects one that does not.
  */
class OracleSpec extends SparkSpec {

  private lazy val li = spark.createDataFrame(Seq(
    (1L, 17.0, "N"), (1L, 36.0, "N"), (2L, 8.0, "R"), (3L, 28.0, "A"), (3L, 24.5, "R"),
    (4L, 30.0, "N"), (5L, 15.0, "A"), (5L, 26.0, "R"), (6L, 0.5, "N"), (7L, 12.25, "A"),
  )).toDF("l_orderkey", "l_quantity", "l_returnflag")

  private lazy val o = spark.createDataFrame(Seq(
    (1L, "O"), (2L, "O"), (3L, "F"), (4L, "F"), (5L, "P"), (6L, "F"), (7L, "O"),
  )).toDF("o_orderkey", "o_orderstatus")

  test("Oracle validates a grouped aggregation over lineitem") {
    val q = li.groupBy("l_returnflag")
      .agg(count(lit(1)).as("cnt"), round(sum("l_quantity"), 4).as("qty"))
    Oracle.assertEquivalent(q,
      "SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS cnt, " +
      "ROUND(SUM(CAST(l_quantity AS DOUBLE)), 4) AS qty FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> li)
  }

  test("Oracle validates a join between lineitem and orders") {
    val q = li.join(o, li("l_orderkey") === o("o_orderkey"))
      .groupBy("o_orderstatus").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(q,
      "SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS cnt FROM lineitem l " +
      "JOIN orders o ON CAST(l.l_orderkey AS BIGINT) = CAST(o.o_orderkey AS BIGINT) " +
      "GROUP BY o_orderstatus",
      "lineitem" -> li, "orders" -> o)
  }

  test("Oracle catches wrong results") {
    val wrong = li.groupBy("l_returnflag").agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS cnt FROM lineitem GROUP BY l_returnflag",
        "lineitem" -> li)
    }
  }
}

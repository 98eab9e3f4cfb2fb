package repro.core

import org.apache.spark.sql.{DataFrame, Encoder, Encoders}
import org.apache.spark.sql.functions._
import repro.data.SpatialData
import repro.spatial._

/** Distributed RSMI construction over the driver builder's own code.
  *
  * §3.2 groups points by the root model's own predictions, so each
  * predicted cell is a sub-tree of its own. The pipeline:
  *  1. one aggregate gives n and the MBR of all points;
  *  2. the root is fit on the driver with [[RsmiBuilder.partition]],
  *     over a sample of at most `maxTrainSample` points;
  *  3. the root model is broadcast, and one shuffle by predicted cell
  *     (`repartition`, then `groupBy(cell).as[..].mapGroups`) plans
  *     each cell's sub-tree on an executor with [[RsmiBuilder.plan]] (a
  *     leaf, or a deeper tree for a cell over N), its points sorted by
  *     id so the plan is deterministic;
  *  4. the driver puts the planned sub-trees under the root, numbers
  *     their blocks with [[RsmiBuilder.pack]], and builds the PMF from
  *     one `approxQuantile` over both columns.
  *
  * Given the same root model, the result equals what the driver builder
  * makes of the same groups, block for block.
  */
object RsmiSpark {

  def build(df: DataFrame, cfg: RsmiConfig = RsmiConfig()): Rsmi = {
    val spark = df.sparkSession
    import spark.implicits._

    // (1) n and the MBR of all points.
    val stats = df.agg(count(lit(1)), min("x"), min("y"), max("x"), max("y")).head()
    val n = stats.getLong(0)
    require(n > 0, "cannot index an empty point set")
    if (n <= cfg.N) return RsmiBuilder.build(SpatialData.collectPoints(df), cfg)
    val mbr = Rect(stats.getDouble(1), stats.getDouble(2), stats.getDouble(3), stats.getDouble(4))

    // (2) the root model and grid size, fit on a sample.
    val sample = df.select("id", "x", "y").as[(Long, Double, Double)]
      .sample(withReplacement = false, math.min(1.0, cfg.maxTrainSample.toDouble / n), cfg.seed)
      .collect().take(cfg.maxTrainSample).map(t => Point(t._1, t._2, t._3))
    val (rootModel, s, _, _) = RsmiBuilder.partition(sample, cfg, cfg.seed)
    val cells = s * s

    // (3) one shuffle: every predicted cell planned on an executor.
    val bModel = spark.sparkContext.broadcast(rootModel)
    implicit val plannedEnc: Encoder[(Int, RsmiBuilder.Planned)] =
      Encoders.javaSerialization[(Int, RsmiBuilder.Planned)]
    val cellOf = udf((x: Double, y: Double) => Regressor.slot(bModel.value.predict(x, y), cells))
    val planned = df.select(cellOf(col("x"), col("y")) as "cell", col("id"), col("x"), col("y"))
      // A repartition by number spreads the cells over `cells` tasks;
      // adaptive execution would coalesce a plain groupByKey's small
      // shuffle into one task that plans every cell in turn.
      .repartition(cells, col("cell"))
      .groupBy("cell").as[Int, (Int, Long, Double, Double)]
      .mapGroups { (c, it) =>
        val pts = it.map(t => Point(t._2, t._3, t._4)).toArray.sortBy(_.id)
        (c, RsmiBuilder.plan(pts, cfg, cfg.seed * 31 + c + 1, depth = 2))
      }
      .collect()
    bModel.destroy()

    // (4) blocks numbered on the driver in child-slot order.
    val children = new Array[RsmiBuilder.Planned](cells)
    planned.foreach { case (c, p) => children(c) = p }
    val store = new BlockStore(cfg.B)
    val root = RsmiBuilder.pack(RsmiBuilder.PlannedInternal(rootModel, s, children, mbr), store, cfg)
    store.chainOriginals()
    val probs = (0 to cfg.gamma).map(_.toDouble / cfg.gamma).toArray
    val Array(qx, qy) = df.stat.approxQuantile(Array("x", "y"), probs, 1e-3)
    new Rsmi(root, store, Pmf.fromBoundaries(qx), Pmf.fromBoundaries(qy), cfg, n)
  }
}

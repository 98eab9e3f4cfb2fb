package repro.core

import org.apache.spark.sql.{DataFrame, Encoder, Encoders}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.spatial._

/** Distributed RSMI construction as a Spark DataFrame pipeline.
  *
  * The recursive partitioning of §3.2 is "naturally per-partition
  * parallelizable" (the reproduction brief): the top level — the only
  * level that sees the full data set — runs as DataFrame jobs, and each
  * resulting partition of ≤ N points trains its leaf model *on the
  * executors* via `groupByKey(...).mapGroups`. Oversized predicted
  * groups (skew) are finished with the driver-side recursive builder.
  *
  * Pipeline stages:
  *  1. global x-rank via sort + zipWithIndex → equal-count columns;
  *  2. per-column y-rank via a window partitioned by column → cells;
  *  3. cell → Hilbert curve value (the partitioning target);
  *  4. root MLP trained on a driver-side sample of (coords, cell);
  *  5. every point routed by the *model's own prediction* (broadcast);
  *  6. per-group leaf training on executors ([[RsmiBuilder.trainLeaf]]);
  *  7. driver assembles nodes, packs blocks in curve order.
  *
  * The result is behaviorally identical to [[RsmiBuilder.build]] (same
  * invariants; model weights differ only through sampling).
  */
object RsmiSpark {

  def build(df: DataFrame, cfg: RsmiConfig = RsmiConfig()): Rsmi = {
    val spark = df.sparkSession
    import spark.implicits._

    val n = df.count()
    require(n > 0, "cannot index an empty point set")
    if (n <= cfg.N) {
      // Single leaf: no partitioning level needed.
      return RsmiBuilder.build(repro.data.SpatialData.collectPoints(df), cfg)
    }

    val s = RsmiBuilder.gridDim(cfg)
    val cells = s * s
    val order = math.max(1, Integer.numberOfTrailingZeros(s))

    // (1) equal-count columns by x-rank (distributed sort + zipWithIndex).
    val withCol = RankSpace.withRanks(df).withColumn("gcol", (col("rank_x") * s / n).cast("int"))

    // (2) equal-count cells by y within each column.
    val wOrd = Window.partitionBy("gcol").orderBy("y", "x", "id")
    val wCol = Window.partitionBy("gcol")
    val withCell = withCol
      .withColumn("yrk", row_number().over(wOrd) - 1)
      .withColumn("colcnt", count(lit(1)).over(wCol))
      .withColumn("grow", (col("yrk") * s / col("colcnt")).cast("int"))

    // (3) Hilbert curve value of the cell — the training target.
    val cellUdf = udf((c: Int, r: Int) => Hilbert.xy2d(order, c.toLong, r.toLong).toInt)
    val labeled = withCell
      .withColumn("cell", cellUdf(col("gcol"), col("grow")))
      .select("id", "x", "y", "cell")
      .cache()

    // (4) train the root partitioning model on a bounded sample.
    val mbrRow = labeled.agg(min("x"), min("y"), max("x"), max("y")).head()
    val mbr = Rect(mbrRow.getDouble(0), mbrRow.getDouble(1),
                   mbrRow.getDouble(2), mbrRow.getDouble(3))
    val norm = Norm(mbr)
    val frac = math.min(1.0, cfg.maxTrainSample.toDouble * 1.2 / n)
    val sample = labeled.sample(withReplacement = false, frac, cfg.seed)
      .limit(cfg.maxTrainSample).collect()
    val mlp = new Mlp(2, Mlp.hiddenFor(2, math.min(100, cells)), cfg.seed)
    val xs = new Array[Double](2 * sample.length)
    val ys = new Array[Double](sample.length)
    var i = 0
    while (i < sample.length) {
      val r = sample(i)
      xs(2 * i) = norm.nx(r.getDouble(1))
      xs(2 * i + 1) = norm.ny(r.getDouble(2))
      ys(i) = r.getInt(3).toDouble / (cells - 1)
      i += 1
    }
    mlp.fit(xs, ys, cfg.internalEpochs, cfg.lr)
    val rootModel = new MlpRegressor(mlp, norm)

    // (5) learned grouping: route every point by the model's prediction.
    val bModel = spark.sparkContext.broadcast(rootModel)
    val nCells = cells
    val predUdf = udf { (x: Double, y: Double) =>
      val raw = math.round(bModel.value.predict(x, y) * (nCells - 1)).toInt
      math.min(nCells - 1, math.max(0, raw))
    }
    val routed = labeled
      .withColumn("pred", predUdf(col("x"), col("y")))
      .select("id", "x", "y", "pred")
      .cache()

    val counts: Map[Int, Long] = routed.groupBy("pred").count()
      .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val bigCells = counts.filter(_._2 > cfg.N).keySet

    // (6) executor-side leaf training for every small predicted group.
    implicit val leafEnc: Encoder[(Int, RsmiBuilder.LeafResult)] =
      Encoders.javaSerialization[(Int, RsmiBuilder.LeafResult)]
    val cfgB = spark.sparkContext.broadcast(cfg)
    val seed0 = cfg.seed
    val leafResults: Map[Int, RsmiBuilder.LeafResult] = routed
      .filter(!col("pred").isInCollection(if (bigCells.isEmpty) Seq(-1) else bigCells.toSeq))
      .as[(Long, Double, Double, Int)]
      .groupByKey(_._4)
      .mapGroups { (cell, it) =>
        val pts = it.map(t => Point(t._1, t._2, t._3)).toArray
        (cell, RsmiBuilder.trainLeaf(pts, cfgB.value, seed0 * 31 + cell + 1))
      }
      .collect().toMap

    // (7) assemble: blocks packed in ascending predicted-cell order;
    // oversized groups finished recursively on the driver.
    val store = new BlockStore(cfg.B)
    val children = new Array[RsmiNode](cells)
    for (c <- 0 until cells if counts.contains(c)) {
      children(c) =
        if (bigCells.contains(c)) {
          val pts = routed.filter(col("pred") === c)
            .select("id", "x", "y").collect()
            .map(r => Point(r.getLong(0), r.getDouble(1), r.getDouble(2)))
          RsmiBuilder.buildNode(pts, cfg, store, seed0 * 31 + c + 1, depth = 2)
        } else {
          RsmiBuilder.materializeLeaf(leafResults(c), store, cfg)
        }
    }
    store.chainOriginals()
    val root = new InternalNode(rootModel, s, children, mbr)

    // PMF from distributed quantiles (γ equal-count pieces per dim).
    val probs = (0 to cfg.gamma).map(_.toDouble / cfg.gamma).toArray
    val qx = labeled.stat.approxQuantile("x", probs, 1e-3)
    val qy = labeled.stat.approxQuantile("y", probs, 1e-3)
    labeled.unpersist()
    routed.unpersist()
    new Rsmi(root, store, Pmf.fromBoundaries(qx), Pmf.fromBoundaries(qy), cfg, n)
  }
}

package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{InternalNode, Rsmi, RsmiConfig, RsmiSpark}
import repro.data.SpatialData
import repro.spatial.Rect

/** Counts Spark jobs, tasks and shuffle bytes. */
final class JobCounter extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val shuffleBytes = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }
  def snapshot(spark: SparkSession): (Long, Long, Long) = {
    ListenerDrain(spark.sparkContext)
    (jobs.get, tasks.get, shuffleBytes.get)
  }
}

/** The path `BuildIndexJob` takes: generate → `RsmiSpark.build` →
  * `RsmiFormat.write`, then pushed-down `spark.read.format("rsmi")`
  * window scans, with their jobs, tasks and shuffle bytes counted.
  */
final class SparkPath(workDir: String, cores: Int) {
  val spark: SparkSession = SparkSession.builder
    .master(s"local[$cores]")
    .appName("rsmibench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"$workDir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
    // Sized to the local session: the default 200 partitions turn each
    // build into ~1 600 near-empty tasks that dominate its time.
    .config("spark.sql.shuffle.partitions", 2 * cores)
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")
  val counter = new JobCounter
  spark.sparkContext.addSparkListener(counter)

  private var buildJobs, buildTasks, buildShuffle = 0L
  private var builds = 0
  private val buildS, writeS = scala.collection.mutable.ArrayBuffer.empty[Double]

  /** One generate → build → write; returns the index. Only recorded
    * builds count towards the `spark.*` layers.
    */
  def buildAndWrite(n: Long, seed: Long, cfg: RsmiConfig, dir: String, rec: Builds.Rec,
                    record: Boolean = true): Rsmi = {
    val before = counter.snapshot(spark)
    var t1 = 0L
    val t0 = System.nanoTime()
    val idx = rec.time {
      val built = RsmiSpark.build(SpatialData.generate(spark, SpatialData.Skewed, n, seed), cfg)
      t1 = System.nanoTime()
      Scans.persist(built, dir)
      built
    }
    if (!record) return idx
    buildS += (t1 - t0) / 1e9
    writeS += (System.nanoTime() - t1) / 1e9
    val after = counter.snapshot(spark)
    buildJobs += after._1 - before._1; buildTasks += after._2 - before._2
    buildShuffle += after._3 - before._3
    builds += 1
    idx
  }

  /** Closed loop of pushed-down Spark window scans, each collected and
    * compared with brute force: `warmNs` unrecorded, then `ns` recorded
    * (at least 20 scans each).
    */
  def scans(dir: String, wins: Array[(Rect, Array[Long])], warmNs: Long, ns: Long, lat: Samples,
            gates: Gates, L: Layers): Unit = {
    if (warmNs > 0) {
      scans(dir, wins, 0, warmNs, new Samples, gates, null)
      Jvm.awaitJitIdle()
    }
    val end = System.nanoTime() + ns
    var i = 0
    while (i < 20 || System.nanoTime() < end) {
      val (r, truth) = wins(i % wins.length)
      val before = if (L != null) counter.snapshot(spark) else null
      val t0 = System.nanoTime()
      val got = spark.read.format("rsmi").load(dir)
        .where(col("x") >= r.xlo && col("x") <= r.xhi && col("y") >= r.ylo && col("y") <= r.yhi)
        .select("id").collect().map(_.getLong(0))
      lat.add(System.nanoTime() - t0)
      gates.sameIds("scan_rows", got, truth)
      if (L != null) {
        val after = counter.snapshot(spark)
        L.add("scan.jobs", (after._1 - before._1).toDouble)
        L.add("scan.tasks", (after._2 - before._2).toDouble)
        // The reader-side steps of the same scan, timed on their own.
        Scans.direct(dir, repro.datasource.RsmiFormat.readMeta(dir), r, L)
        L.op("scan")
      }
      i += 1
    }
  }

  def report(idx: Rsmi, r: Report): Unit = {
    def med(s: Seq[Double]) = s.sorted.apply(s.size / 2)
    r.put("spark.build_s", med(buildS.toSeq), "s", builds)
    r.put("spark.write_s", med(writeS.toSeq), "s", builds)
    r.put("spark.jobs", buildJobs.toDouble / builds, "count", builds)
    r.put("spark.tasks", buildTasks.toDouble / builds, "count", builds)
    r.put("spark.shuffle_mb", buildShuffle / 1e6 / builds, "MB", builds)
    r.put("spark.driver_cells", idx.root match {
      case in: InternalNode => in.children.count(_.isInstanceOf[InternalNode]).toDouble
      case _                => 0.0
    }, "count")
  }

  def stop(): Unit = spark.stop()
}

package repro.perfbench

import java.nio.file.{Files, Paths}
import repro.datasource.{RsmiFormat, RsmiPartitionReader}
import repro.harness.Harness
import repro.spatial.Rect

/** Window scans of a persisted index (`RsmiFormat`). */
object Scans {

  /** Writes `idx` to `dir`; returns its size on disk. */
  def persist(idx: repro.core.Rsmi, dir: String): Long = {
    RsmiFormat.write(idx, dir)
    diskBytes(dir)
  }

  /** Bytes of blocks.bin + meta.ser of the index persisted in `dir`. */
  def diskBytes(dir: String): Long =
    Files.size(Paths.get(dir, "blocks.bin")) + Files.size(Paths.get(dir, "meta.ser"))

  /** Seeded scan windows centred on live points, with their sorted
    * brute-force ids.
    */
  def windows(live: LiveSet, m: Int, areaFrac: Double, seed: Long): Array[(Rect, Array[Long])] = {
    val rnd = new java.util.Random(seed)
    Array.fill(m) {
      var c = rnd.nextInt(live.size)
      while (!live.alive(c)) c = rnd.nextInt(live.size)
      val r = Harness.window(live.xs(c), live.ys(c), areaFrac, 1.0)
      (r, live.windowIds(r))
    }
  }

  /** The reader-side work of one pushed-down scan without a Spark
    * session, given the index metadata: block selection as `RsmiScan`
    * plans it, the reads of `RsmiPartitionReader`, then the window
    * filter Spark applies after the scan. When `L` is given, the steps
    * are timed, and the metadata read that `RsmiScan` repeats per query
    * is timed on its own.
    */
  def direct(dir: String, meta: RsmiFormat.Meta, r: Rect, L: Layers): Array[Long] = {
    if (L != null) {
      val t0 = System.nanoTime()
      RsmiFormat.readMeta(dir)
      L.add("scan.meta_read_ns", (System.nanoTime() - t0).toDouble)
    }
    val t1 = System.nanoTime()
    val sel = RsmiFormat.selectBlocks(meta, r)
    val t2 = System.nanoTime()
    val ranges = sel.filter(_.count > 0).map(d => (d.offset, d.count)).sortBy(_._1).toArray
    val out = Array.newBuilder[Long]
    var rows = 0L
    val reader = new RsmiPartitionReader(dir, ranges)
    try {
      while (reader.next()) {
        val row = reader.get()
        rows += 1
        if (r.contains(row.getDouble(1), row.getDouble(2))) out += row.getLong(0)
      }
    } finally reader.close()
    val ids = out.result()
    if (L != null) {
      L.add("scan.select_ns", (t2 - t1).toDouble)
      L.add("scan.blocks", sel.size)
      L.add("scan.bytes_read", rows.toDouble * RsmiFormat.RecordBytes)
      L.add("scan.rows_read", rows.toDouble)
      L.add("scan.rows_returned", ids.length)
    }
    ids
  }

  /** Closed loop of direct scans: `warmNs` unrecorded, then `ns`
    * recorded in `stretches` stretches (at least 20 scans each loop).
    */
  def loop(dir: String, wins: Array[(Rect, Array[Long])], warmNs: Long, ns: Long, stretches: Int,
           lat: Samples, gates: Gates, L: Layers): Unit = {
    if (warmNs > 0) {
      loop(dir, wins, 0, warmNs, 1, new Samples, gates, null)
      Jvm.awaitJitIdle()
    }
    val meta = RsmiFormat.readMeta(dir)
    val t0 = System.nanoTime()
    var stretchEnd = t0 + ns / stretches
    var i = 0
    while (i < 20 || System.nanoTime() < t0 + ns) {
      if (System.nanoTime() >= stretchEnd) { lat.cut(); stretchEnd += ns / stretches }
      val (r, truth) = wins(i % wins.length)
      val t0 = System.nanoTime()
      val got = direct(dir, meta, r, L)
      lat.add(System.nanoTime() - t0)
      if (L != null) L.op("scan")
      gates.sameIds("scan_rows", got, truth)
      i += 1
    }
    lat.cut()
  }
}

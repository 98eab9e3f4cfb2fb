package repro.datasource

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{RsmiBuilder, RsmiConfig}
import repro.data.SpatialData
import repro.spatial.{Point, Rect}

/** File-format layer of the rsmi DataSource, independent of Spark. */
class RsmiFormatSpec extends AnyFunSuite {

  private val cfg = RsmiConfig(B = 50, N = 1000, leafEpochs = 30, internalEpochs = 30)

  private def persisted(n: Int = 3000) = {
    val pts = SpatialData.local(SpatialData.Normal, n)
    val idx = RsmiBuilder.build(pts, cfg)
    val dir = Files.createTempDirectory("rsmi-fmt").toString
    RsmiFormat.write(idx, dir)
    (pts, idx, dir)
  }

  test("meta.ser round-trips structure fields") {
    val (pts, idx, dir) = persisted()
    val meta = RsmiFormat.readMeta(dir)
    assert(meta.count === pts.length.toLong)
    assert(meta.originalCount === idx.store.originalCount)
    assert(meta.blocks.length === idx.store.numBlocks)
  }

  test("blocks.bin holds 24 bytes per point") {
    val (pts, _, dir) = persisted()
    val size = Files.size(java.nio.file.Paths.get(dir, "blocks.bin"))
    assert(size === 24L * pts.length)
  }

  test("block descriptors mirror the in-memory chain") {
    val (_, idx, dir) = persisted()
    val meta = RsmiFormat.readMeta(dir)
    (0 until idx.store.numBlocks).foreach { b =>
      val blk = idx.store.peek(b)
      val d = meta.blocks(b)
      assert(d.count === blk.size)
      assert(d.ord === blk.ord)
      assert(d.next === blk.next)
      assert(d.inserted === blk.inserted)
    }
  }

  test("selectBlocks covers exactly the MBR-intersecting blocks") {
    val (pts, idx, dir) = persisted()
    val meta = RsmiFormat.readMeta(dir)
    val r = Rect(0.4, 0.4, 0.6, 0.6)
    val selected = RsmiFormat.selectBlocks(meta, r)
    // Every point in the window must live in a selected block.
    val inWindow = pts.filter(r.contains).map(_.id).toSet
    val coverable = selected.flatMap { d =>
      idx.store.peek(meta.blocks.indexOf(d)).points.map(_.id)
    }.toSet
    assert(inWindow.subsetOf(coverable))
    // And pruning actually happens for a small window.
    val tiny = RsmiFormat.selectBlocks(meta, Rect(0.5, 0.5, 0.505, 0.505))
    assert(tiny.size < meta.blocks.length)
  }

  test("selectBlocks of the full space returns all original data") {
    val (pts, _, dir) = persisted()
    val meta = RsmiFormat.readMeta(dir)
    val all = RsmiFormat.selectBlocks(meta, Rect(-1, -1, 2, 2))
    assert(all.map(_.count.toLong).sum === pts.length.toLong)
  }

  test("write is idempotent (second write overwrites cleanly)") {
    val (pts, idx, dir) = persisted()
    RsmiFormat.write(idx, dir)
    val size = Files.size(java.nio.file.Paths.get(dir, "blocks.bin"))
    assert(size === 24L * pts.length)
  }

  test("blocks.bin holds every block's columns bit for bit, overflow blocks included") {
    val pts = SpatialData.local(SpatialData.Normal, 3000)
    val idx = RsmiBuilder.build(pts, cfg)
    // A tight cluster of inserts overflows its predicted blocks.
    (0 until 3 * cfg.B).foreach(i => idx.insert(Point(100000L + i, 0.5 + i * 1e-9, 0.5 - i * 1e-9)))
    assert(idx.store.numBlocks > idx.store.originalCount)
    val dir = Files.createTempDirectory("rsmi-fmt").toString
    RsmiFormat.write(idx, dir)
    val meta = RsmiFormat.readMeta(dir)
    val bytes = java.nio.ByteBuffer.wrap(Files.readAllBytes(java.nio.file.Paths.get(dir, "blocks.bin")))
    var records = 0L
    (0 until idx.store.numBlocks).foreach { b =>
      val blk = idx.store.peek(b)
      val d = meta.blocks(b)
      assert(d.count === blk.size)
      (0 until blk.size).foreach { i =>
        val at = (d.offset + i.toLong * RsmiFormat.RecordBytes).toInt
        assert(bytes.getLong(at) === blk.ids(i), s"id of block $b slot $i")
        assert(bytes.getLong(at + 8) === java.lang.Double.doubleToRawLongBits(blk.xs(i)), s"x of block $b slot $i")
        assert(bytes.getLong(at + 16) === java.lang.Double.doubleToRawLongBits(blk.ys(i)), s"y of block $b slot $i")
      }
      records += blk.size
    }
    assert(bytes.capacity === records * RsmiFormat.RecordBytes)
  }

  test("reading a truncated blocks.bin names the file, offset and byte count") {
    val (_, _, dir) = persisted()
    val meta = RsmiFormat.readMeta(dir)
    val file = java.nio.file.Paths.get(dir, "blocks.bin")
    val cut = Files.size(file) / 2
    val ch = java.nio.channels.FileChannel.open(file, java.nio.file.StandardOpenOption.WRITE)
    try ch.truncate(cut) finally ch.close()
    // The first range that runs past the cut.
    val ranges = RsmiFormat.allBlocks(meta).map(d => (d.offset, d.count)).sortBy(_._1).toArray
    val (off, cnt) = ranges.find { case (o, c) => o + c * RsmiFormat.RecordBytes.toLong > cut }.get
    val reader = new RsmiPartitionReader(dir, ranges)
    val e = try intercept[java.io.EOFException](while (reader.next()) {}) finally reader.close()
    assert(e.getMessage.contains(file.toString))
    assert(e.getMessage.contains(s"offset $cut"))
    assert(e.getMessage.contains(s"expected ${cnt * RsmiFormat.RecordBytes} bytes from offset $off"))
  }
}

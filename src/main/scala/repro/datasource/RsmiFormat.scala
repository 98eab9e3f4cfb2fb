package repro.datasource

import java.io._
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.core.{Rsmi, RsmiConfig, RsmiNode, InternalNode, LeafNode, Pmf}
import repro.spatial.Rect

/** On-disk layout of a persisted RSMI ("rsmi" DataSourceV2 format):
  *
  *  - `blocks.bin` — fixed 24-byte records (id: Long, x: Double,
  *    y: Double, big-endian), written block by block in chain order;
  *  - `meta.ser`   — Java-serialized [[RsmiFormat.Meta]]: the learned
  *    model tree plus one [[RsmiFormat.BlockDesc]] per block (file
  *    offset, record count, chain links, MBR).
  *
  * A scan selects blocks through the MBRs of the model tree (window
  * pushdown) and reads only those byte ranges — the learned index acting as the
  * file format's zone map.
  */
object RsmiFormat {

  val RecordBytes = 24

  /** Per-block descriptor mirroring the in-memory [[repro.spatial.Block]]
    * chain metadata, plus the block's byte offset in `blocks.bin`.
    */
  final case class BlockDesc(
      offset: Long, count: Int, ord: Int,
      inserted: Boolean, next: Int, mbr: Rect) extends Serializable

  final case class Meta(
      root: RsmiNode,
      cfg: RsmiConfig,
      blocks: Array[BlockDesc],
      originalCount: Int,
      count: Long) extends Serializable

  def write(rsmi: Rsmi, dir: String): Unit = {
    val d = Paths.get(dir)
    Files.createDirectories(d)
    val store = rsmi.store
    val descs = new Array[BlockDesc](store.numBlocks)
    val ch = FileChannel.open(d.resolve("blocks.bin"),
      StandardOpenOption.CREATE, StandardOpenOption.WRITE,
      StandardOpenOption.TRUNCATE_EXISTING)
    try {
      var offset = 0L
      val buf = ByteBuffer.allocate(store.capacity * RecordBytes)
      // Chain order keeps a leaf's blocks (and overflow) contiguous.
      var blk = store.rangeStart(0)
      while (blk != null) {
        val ids = blk.ids; val xs = blk.xs; val ys = blk.ys
        buf.clear()
        var i = 0
        while (i < blk.size) {
          buf.putLong(ids(i)); buf.putDouble(xs(i)); buf.putDouble(ys(i))
          i += 1
        }
        buf.flip()
        while (buf.hasRemaining) ch.write(buf)
        descs(blk.id) = BlockDesc(offset, blk.size, blk.ord, blk.inserted, blk.next, blk.mbr)
        offset += blk.size.toLong * RecordBytes
        blk = store.rangeNext(blk, store.originalCount - 1)
      }
    } finally ch.close()

    val oos = new ObjectOutputStream(new BufferedOutputStream(
      Files.newOutputStream(d.resolve("meta.ser"))))
    try oos.writeObject(Meta(rsmi.root, rsmi.cfg, descs, store.originalCount, rsmi.cardinality))
    finally oos.close()
  }

  def readMeta(dir: String): Meta = {
    val ois = new ObjectInputStream(new BufferedInputStream(
      Files.newInputStream(Paths.get(dir).resolve("meta.ser"))))
    try ois.readObject().asInstanceOf[Meta]
    finally ois.close()
  }

  /** Exact block selection for a window: the RSMIa MBR traversal of
    * §4.2 over the persisted tree — returns every block that can hold a
    * point of `r` (including chained inserted blocks).
    */
  def selectBlocks(meta: Meta, r: Rect): Seq[BlockDesc] = {
    val out = Seq.newBuilder[BlockDesc]
    def walk(nd: RsmiNode): Unit = nd match {
      case in: InternalNode =>
        in.children.foreach(ch => if (ch != null && ch.mbr.intersects(r)) walk(ch))
      case lf: LeafNode =>
        var cur = lf.firstBlk
        var stop = false
        while (cur >= 0 && !stop) {
          val d = meta.blocks(cur)
          if (d.ord > lf.lastBlk) stop = true
          else {
            if (d.mbr.intersects(r)) out += d
            cur = d.next
          }
        }
    }
    walk(meta.root)
    out.result()
  }

  def allBlocks(meta: Meta): Seq[BlockDesc] = meta.blocks.toSeq.filter(_ != null)
}

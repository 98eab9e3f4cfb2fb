package repro.datasource

import java.io.EOFException
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Paths, StandardOpenOption}
import java.util.{Map => JMap}
import scala.collection.mutable
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.spatial.Rect

/** DataSourceV2 `TableProvider` exposing a persisted RSMI to Spark SQL
  * (`spark.read.format("rsmi").load(dir)`), following the layering rule
  * for new index/file formats.
  *
  * Filter pushdown: conjunctions of range predicates on `x` and `y`
  * are compiled into a window rectangle; an exact walk of the index
  * tree's MBRs ([[RsmiFormat.selectBlocks]]) prunes the block set, and
  * only the surviving byte ranges of `blocks.bin` are read. All filters are still re-evaluated by Spark after the scan
  * (we report none as fully handled), so pruning can never change
  * results — only skip I/O.
  */
class RsmiDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "rsmi"
  override def inferSchema(options: CaseInsensitiveStringMap): StructType = RsmiDataSource.schema
  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: JMap[String, String]): Table =
    new RsmiTable(properties.get("path"))
}

object RsmiDataSource {
  val schema: StructType = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("x", DoubleType, nullable = false),
    StructField("y", DoubleType, nullable = false)))

  /** Conjunction of x/y range filters → query window (None = no
    * constraint on either axis ⇒ full scan).
    */
  def windowOf(filters: Array[Filter]): Option[Rect] = {
    var xlo = Double.NegativeInfinity; var xhi = Double.PositiveInfinity
    var ylo = Double.NegativeInfinity; var yhi = Double.PositiveInfinity
    var any = false
    def apply(f: Filter): Unit = f match {
      case And(l, r) => apply(l); apply(r)
      case GreaterThan(a, v: Double)        if a == "x" => xlo = math.max(xlo, v); any = true
      case GreaterThanOrEqual(a, v: Double) if a == "x" => xlo = math.max(xlo, v); any = true
      case LessThan(a, v: Double)           if a == "x" => xhi = math.min(xhi, v); any = true
      case LessThanOrEqual(a, v: Double)    if a == "x" => xhi = math.min(xhi, v); any = true
      case GreaterThan(a, v: Double)        if a == "y" => ylo = math.max(ylo, v); any = true
      case GreaterThanOrEqual(a, v: Double) if a == "y" => ylo = math.max(ylo, v); any = true
      case LessThan(a, v: Double)           if a == "y" => yhi = math.min(yhi, v); any = true
      case LessThanOrEqual(a, v: Double)    if a == "y" => yhi = math.min(yhi, v); any = true
      case EqualTo(a, v: Double)            if a == "x" => xlo = math.max(xlo, v); xhi = math.min(xhi, v); any = true
      case EqualTo(a, v: Double)            if a == "y" => ylo = math.max(ylo, v); yhi = math.min(yhi, v); any = true
      case _ =>
    }
    filters.foreach(apply)
    if (any) Some(Rect(xlo, ylo, xhi, yhi)) else None
  }
}

class RsmiTable(path: String) extends Table with SupportsRead {
  import scala.jdk.CollectionConverters._
  override def name(): String = s"rsmi:$path"
  override def schema(): StructType = RsmiDataSource.schema
  override def capabilities(): java.util.Set[TableCapability] =
    Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new RsmiScanBuilder(path)
}

class RsmiScanBuilder(path: String) extends ScanBuilder with SupportsPushDownFilters {
  private var window: Option[Rect] = None

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    window = RsmiDataSource.windowOf(filters)
    filters // Spark re-evaluates everything; we only use them to prune I/O.
  }
  override def pushedFilters(): Array[Filter] = Array.empty
  override def build(): Scan = new RsmiScan(path, window)
}

/** One partition = a set of (offset, record-count) byte ranges of
  * blocks.bin.
  */
case class RsmiInputPartition(ranges: Array[(Long, Int)]) extends InputPartition

class RsmiScan(path: String, window: Option[Rect]) extends Scan with Batch {
  override def readSchema(): StructType = RsmiDataSource.schema
  override def toBatch: Batch = this
  override def description(): String =
    s"RsmiScan(${window.map(w => f"window=[${w.xlo}%.4f,${w.ylo}%.4f,${w.xhi}%.4f,${w.yhi}%.4f]").getOrElse("full")})"

  override def planInputPartitions(): Array[InputPartition] = {
    val meta = RsmiFormat.readMeta(path)
    val selected = window match {
      case Some(r) => RsmiFormat.selectBlocks(meta, r)
      case None    => RsmiFormat.allBlocks(meta)
    }
    RsmiScan.selectedBlockCounts.put(path, selected.size)
    if (selected.isEmpty) return Array.empty
    val ranges = selected.filter(_.count > 0).map(d => (d.offset, d.count)).sortBy(_._1)
    val nParts = math.min(16, math.max(1, ranges.size / 8 + 1))
    val per = (ranges.size + nParts - 1) / nParts
    ranges.grouped(per).map(g => RsmiInputPartition(g.toArray): InputPartition).toArray
  }

  override def createReaderFactory(): PartitionReaderFactory =
    new RsmiReaderFactory(path)
}

object RsmiScan {
  /** Observability hook for tests/benches: blocks selected by the last
    * scan planning per path (driver-side only; local mode).
    */
  val selectedBlockCounts: mutable.Map[String, Int] =
    scala.collection.concurrent.TrieMap.empty[String, Int]
}

class RsmiReaderFactory(path: String) extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new RsmiPartitionReader(path, partition.asInstanceOf[RsmiInputPartition].ranges)
}

class RsmiPartitionReader(path: String, ranges: Array[(Long, Int)])
    extends PartitionReader[InternalRow] {
  private val file = Paths.get(path, "blocks.bin")
  private val ch = FileChannel.open(file, StandardOpenOption.READ)
  private var rangeIdx = 0
  private var buf: ByteBuffer = _
  private var remaining = 0
  private var curId = 0L
  private var curX = 0.0
  private var curY = 0.0

  override def next(): Boolean = {
    while (remaining == 0) {
      if (rangeIdx >= ranges.length) return false
      val (off, cnt) = ranges(rangeIdx)
      rangeIdx += 1
      buf = ByteBuffer.allocate(cnt * RsmiFormat.RecordBytes)
      readFully(off)
      buf.flip()
      remaining = cnt
    }
    curId = buf.getLong(); curX = buf.getDouble(); curY = buf.getDouble()
    remaining -= 1
    true
  }

  /** Fills `buf` from `off`: one `read` may return fewer bytes than
    * asked, and end-of-file before the buffer is full means the file was
    * truncated.
    */
  private def readFully(off: Long): Unit = {
    val want = buf.remaining
    while (buf.hasRemaining) {
      if (ch.read(buf, off + want - buf.remaining) < 0)
        throw new EOFException(s"$file: end of file at offset ${off + want - buf.remaining}, " +
          s"expected $want bytes from offset $off")
    }
  }

  override def get(): InternalRow = InternalRow(curId, curX, curY)
  override def close(): Unit = ch.close()
}

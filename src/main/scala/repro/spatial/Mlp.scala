package repro.spatial

/** A minimal multilayer perceptron regressor: nIn → nHidden → 1.
  *
  * This is the model family the paper uses for every sub-model (§6.1):
  * one hidden layer with sigmoid activation, a single linear output
  * neuron, L2 loss minimized with plain SGD at learning rate 0.01.
  * The paper runs 500 epochs per model on PyTorch; we implement the
  * same architecture in Scala (no ML runtime is available offline) with
  * a configurable epoch budget — see DESIGN.md §5.
  *
  * Inputs and targets are expected to be normalized to roughly [0, 1]
  * by the caller (the paper normalizes coordinates and block IDs into
  * the unit range, §6.1). Prediction is a plain function invocation:
  * O(nIn · nHidden) multiply-adds, the O(M) of the paper's cost model.
  */
final class Mlp(val nIn: Int, val nHidden: Int, seed: Long) extends Serializable {
  // Xavier-uniform init keeps sigmoid pre-activations in range. The
  // generator (also `fit`'s shuffle) is not serialized with the model.
  @transient private val rnd = new java.util.Random(seed)
  private def xavier(fanIn: Int, fanOut: Int): Double = {
    val r = math.sqrt(6.0 / (fanIn + fanOut))
    (rnd.nextDouble() * 2 - 1) * r
  }

  /** Hidden weights, row-major [nHidden × nIn]. */
  val w1: Array[Double] = Array.fill(nHidden * nIn)(xavier(nIn, nHidden))
  val b1: Array[Double] = Array.fill(nHidden)(0.0)
  /** Output weights [nHidden]. */
  val w2: Array[Double] = Array.fill(nHidden)(xavier(nHidden, 1))
  var b2: Double = 0.0

  import Mlp.sigmoid

  /** Forward pass. `x` must have length nIn. */
  def predict(x: Array[Double]): Double = {
    var out = b2
    var h = 0
    while (h < nHidden) {
      var z = b1(h)
      var i = 0
      val off = h * nIn
      while (i < nIn) { z += w1(off + i) * x(i); i += 1 }
      out += w2(h) * sigmoid(z)
      h += 1
    }
    out
  }

  /** Fast path for 1-d keys (the ZM baseline's Z-value input). */
  def predict1(x0: Double): Double = {
    var out = b2
    var h = 0
    while (h < nHidden) {
      val z = b1(h) + w1(h) * x0
      out += w2(h) * sigmoid(z)
      h += 1
    }
    out
  }

  /** Convenience for the ubiquitous 2-d case. */
  def predict2(x0: Double, x1: Double): Double = {
    var out = b2
    var h = 0
    while (h < nHidden) {
      val z = b1(h) + w1(2 * h) * x0 + w1(2 * h + 1) * x1
      out += w2(h) * sigmoid(z)
      h += 1
    }
    out
  }

  /** The slot [[Mlp.slot]] gives `predict2(x0, x1)` among `slots`. */
  def slot2(x0: Double, x1: Double, slots: Int): Int = boundedSlot(x0, x1, slots)
  /** The slot [[Mlp.slot]] gives `predict1(x0)` among `slots`. */
  def slot1(x0: Double, slots: Int): Int = boundedSlot(x0, 0.0, slots)

  /** Bounded routing (DESIGN.md §5.9 shows it exact): σ of each hidden
    * unit's z, computed as the forward pass does, lies between table
    * entries j − 1 and j + 1 for j = ⌊(z + 32)·64⌋ (0 and 1 past the ends).
    * If low and high outputs summed in the forward pass's order round to
    * one slot, that is the slot; otherwise, for a NaN z or beyond
    * [[Mlp.MaxBoundedSlots]], the forward pass runs.
    */
  private def boundedSlot(x0: Double, x1: Double, slots: Int): Int = {
    if (slots > Mlp.MaxBoundedSlots) return Mlp.slot(forward(x0, x1), slots)
    var lo = b2
    var hi = b2
    var h = 0
    while (h < nHidden) {
      val z = if (nIn == 1) b1(h) + w1(h) * x0 else b1(h) + w1(2 * h) * x0 + w1(2 * h + 1) * x1
      val j = ((z + 32) * 64).toInt // saturates for ±∞
      val sLo = if (j <= 0) 0.0 else Mlp.SigmoidTable(math.min(j - 1, Mlp.TableLast))
      val sHi = if (j >= Mlp.TableLast) 1.0 else Mlp.SigmoidTable(math.max(j + 1, 0))
      val w = w2(h)
      if (z.isNaN) { lo = Double.NegativeInfinity; hi = Double.PositiveInfinity }
      else if (w >= 0) { lo += w * sLo; hi += w * sHi }
      else { lo += w * sHi; hi += w * sLo }
      h += 1
    }
    val s = Mlp.slot(lo, slots)
    if (s == Mlp.slot(hi, slots)) s else Mlp.slot(forward(x0, x1), slots)
  }

  private def forward(x0: Double, x1: Double): Double =
    if (nIn == 1) predict1(x0) else predict2(x0, x1)

  /** SGD with classical momentum (0.9) on the L2 loss (Eq. 3). `xs` is
    * row-major [n × nIn]. Samples are visited in a reshuffled order
    * each epoch.
    *
    * The paper uses plain SGD for 500 epochs; momentum reaches the same
    * loss in our reduced epoch budget (DESIGN.md §5) and stays within
    * the SGD family.
    */
  def fit(xs: Array[Double], ys: Array[Double], epochs: Int, lr: Double = 0.01): Unit = {
    val n = ys.length
    require(xs.length == n * nIn, s"xs length ${xs.length} != $n * $nIn")
    require(rnd != null, "a deserialized model is not trained further")
    if (n == 0) return
    val mu = 0.9
    val lr0 = lr
    val vW1 = new Array[Double](w1.length)
    val vB1 = new Array[Double](b1.length)
    val vW2 = new Array[Double](w2.length)
    var vB2 = 0.0
    val order = Array.tabulate(n)(identity)
    val hAct  = new Array[Double](nHidden)
    var e = 0
    while (e < epochs) {
      // Cosine learning-rate decay: large early steps, fine late steps.
      val lr = lr0 * 0.5 * (1.0 + math.cos(math.Pi * e / epochs))
      // Fisher–Yates reshuffle.
      var i = n - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val t = order(i); order(i) = order(j); order(j) = t
        i -= 1
      }
      var s = 0
      while (s < n) {
        val idx = order(s)
        val xo  = idx * nIn
        // forward
        var out = b2
        var h = 0
        while (h < nHidden) {
          var z = b1(h)
          var k = 0
          val off = h * nIn
          while (k < nIn) { z += w1(off + k) * xs(xo + k); k += 1 }
          val a = sigmoid(z)
          hAct(h) = a
          out += w2(h) * a
          h += 1
        }
        // backward: d(0.5*(out-y)^2)/dout = out - y
        val g = out - ys(idx)
        vB2 = mu * vB2 - lr * g
        b2 += vB2
        h = 0
        while (h < nHidden) {
          val a  = hAct(h)
          val gh = g * w2(h) * a * (1 - a)
          vW2(h) = mu * vW2(h) - lr * g * a
          w2(h) += vW2(h)
          vB1(h) = mu * vB1(h) - lr * gh
          b1(h) += vB1(h)
          var k = 0
          val off = h * nIn
          while (k < nIn) {
            vW1(off + k) = mu * vW1(off + k) - lr * gh * xs(xo + k)
            w1(off + k) += vW1(off + k)
            k += 1
          }
          h += 1
        }
        s += 1
      }
      e += 1
    }
  }

  /** Parameter count — used for index-size accounting. */
  def paramCount: Int = nHidden * nIn + nHidden + nHidden + 1
}

object Mlp {
  /** The paper's sizing rule (§6.1): hidden = (inputs + output classes) / 2. */
  def hiddenFor(nIn: Int, nOutClasses: Int): Int =
    math.max(4, (nIn + nOutClasses) / 2)

  @inline private[repro] def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** The slot a normalized prediction names among `slots` (child cells or
    * blocks): rounded to the nearest, clamped to [0, slots) in `Long` so it
    * is monotone for every input (NaN gives 0). RSMI and ZM round here.
    */
  def slot(pred: Double, slots: Int): Int =
    math.min(slots - 1L, math.max(0L, math.round(pred * (slots - 1)))).toInt

  private val TableLast = 4096

  /** Beyond this many slots (and the wider models `hiddenFor` gives them)
    * the bounds straddle an edge too often to repay their cost (§5.9). */
  private val MaxBoundedSlots = 8

  /** σ at z = −32 + i/64, i = 0…4096, by the forward pass's own `sigmoid`,
    * which is monotone (`exp` is semi-monotonic, and IEEE + and / round
    * monotonically), so table entries bound it.
    */
  private[repro] val SigmoidTable: Array[Double] =
    Array.tabulate(TableLast + 1)(i => sigmoid(-32.0 + i / 64.0))
}

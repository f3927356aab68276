package repro.core

import scala.collection.mutable

/** Label-setting (Dijkstra) search over doors: the loop shared by Alg. 3/4
  * ([[Search]]), the GTG baseline ([[Gtg]]) and crowd-free door distances
  * ([[repro.exp.Instances]]).
  *
  * Nodes are ints: doors are `0 until numDoors`, then [[src]], then [[tgt]].
  * The caller supplies the expansion of a settled label; this class owns the
  * queue, the best/prev/settled bookkeeping, the path walk and the counters.
  *
  * Labels are ordered by cost alone, so exact-cost ties are broken by the
  * heap's layout, which depends only on the sequence of pushes and pops:
  * callers that must reproduce a path push in a fixed order.
  */
final class LabelSetting[C](numDoors: Int)(implicit ord: Ordering[C]) {
  import LabelSetting.Label

  val src: Int = numDoors
  val tgt: Int = numDoors + 1

  private val bestCost = new Array[Any](numDoors + 2) // null = not reached
  private val prev     = Array.fill(numDoors + 2)(-1)
  private val done     = new Array[Boolean](numDoors + 2)
  private val queue    = mutable.PriorityQueue.empty[Label[C]](Ordering.by[Label[C], C](_.cost).reverse)
  private var nPushes  = 0L
  private var peak     = 0
  private var nSettled = 0

  def pushes: Long   = nPushes
  def queuePeak: Int = peak
  def settled: Int   = nSettled

  def isSettled(node: Int): Boolean = done(node)

  /** Best cost offered for `node` so far, if any. */
  def best(node: Int): Option[C] = Option(bestCost(node)).map(_.asInstanceOf[C])

  /** Offer `node` at `cost`, reached from `from`; kept only when strictly
    * better than its best so far. `aux` travels with the label to its
    * expansion.
    */
  def push(node: Int, cost: C, from: Int, aux: Int): Unit =
    if (bestCost(node) == null || ord.lt(cost, bestCost(node).asInstanceOf[C])) {
      bestCost(node) = cost
      prev(node) = from
      queue.enqueue(Label(node, cost, aux))
      nPushes += 1
      peak = math.max(peak, queue.size)
    }

  /** Settle labels in cost order, calling `expand` on each, until [[tgt]] is
    * settled (its label is returned) or the queue runs dry.
    */
  def run(expand: Label[C] => Unit): Option[Label[C]] = {
    while (queue.nonEmpty) {
      val l = queue.dequeue()
      if (!done(l.node)) {
        done(l.node) = true
        nSettled += 1
        if (l.node == tgt) return Some(l)
        expand(l)
      }
    }
    None
  }

  /** The nodes from [[src]] to `node` along the recorded predecessors. */
  def path(node: Int): Vector[Int] = {
    var out = List(node)
    while (out.head != src) out = prev(out.head) :: out
    out.toVector
  }
}

object LabelSetting {
  final case class Label[C](node: Int, cost: C, aux: Int)
}

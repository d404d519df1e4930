//! The future-event set: a stable, slab-backed monotone radix heap.

use crate::SimTime;

/// Buckets of the radix heap: bucket 0 holds events at exactly the
/// reference key, bucket `b ≥ 1` those whose key first differs from it in
/// bit `b - 1`, so 64-bit keys need 65 buckets.
const BUCKETS: usize = 65;

/// The null link of the intrusive lists and the slab's free list.
const NIL: u32 = u32::MAX;

/// A future-event set: a min-priority queue keyed by [`SimTime`].
///
/// Unlike a plain `BinaryHeap`, the queue is **stable**: two events scheduled
/// for the same instant are popped in the order they were pushed. Stability
/// makes simulations deterministic even when many events share a timestamp
/// (common in models with constant service times), which in turn makes
/// regression tests reproducible.
///
/// The queue is a *monotone radix heap* (Ahuja, Mehlhorn, Orlin & Tarjan,
/// 1990), which exploits the fact that a discrete-event clock never runs
/// backwards:
///
/// * **Ordering key.** Each event is keyed by the total-order bits of its
///   time (an order-preserving map of `f64` onto `u64`, the same order as
///   `f64::total_cmp`), then by insertion order.
/// * **Monotone fast path.** The queue remembers a reference key `last`
///   that no pending key is below: the time of the last popped event
///   (zero before the first pop). An event goes into the bucket numbered
///   by the highest bit in which its key differs from `last` (bucket 0
///   when equal). A pop takes the head of bucket 0 if it has one;
///   otherwise it finds the lowest non-empty bucket, makes its minimum
///   the new `last`, and redistributes that bucket's events into strictly
///   lower buckets. Each event moves down at most 64 times over its whole
///   stay, so push and pop cost O(1) amortised, with no comparison-driven
///   sifting. Every bucket's minimum key is kept up to date on append, so
///   [`EventQueue::peek_time`] is O(1) and takes `&self`.
/// * **Stability.** Every bucket is a FIFO list, and equal keys always
///   share a bucket, so events at one instant leave in push order; the
///   insertion sequence never needs to be stored.
/// * **Rebase fallback.** Pushing below `last` is legal (the contract is
///   that of any priority queue) and takes the cold path: buckets
///   `0..=h`, where `h` is the highest bit in which the new key differs
///   from `last`, are spliced into bucket `h + 1` and the new key becomes
///   `last`. That is O(buckets) list splices, never a walk of the events.
///   The simulation engine never takes it, because a handler cannot
///   schedule before the clock.
/// * **Memory bound.** Payloads live inline in one node slab; the buckets
///   are intrusive lists threaded through it, and popped nodes go on a
///   free list that later pushes reuse. The slab therefore grows to the
///   pending-event high-water mark once and never touches the allocator
///   again; each bucket adds only a head, a tail and a minimum key.
///
/// # Example
///
/// ```
/// use dqa_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// q.push(SimTime::new(1.0), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::new(1.0), "early")));
/// assert_eq!(q.pop_until(SimTime::new(1.5)), Some((SimTime::new(1.0), "early-second")));
/// assert_eq!(q.pop_before(SimTime::new(2.0)), None);
/// assert_eq!(q.pop(), Some((SimTime::new(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The node slab: pending events and free nodes.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list threaded through `nodes`.
    free: u32,
    /// First and last node of each bucket's FIFO list; like `mins`,
    /// meaningful only while the bucket's `occupied` bit is set.
    heads: [u32; BUCKETS],
    tails: [u32; BUCKETS],
    /// Smallest key of each non-empty bucket, kept on every append so
    /// neither a peek nor a pop has to walk a list to find it.
    mins: [u64; BUCKETS],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u128,
    /// The reference key: no pending key is below it.
    last: u64,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<E> {
    key: u64,
    /// Next node of the bucket list, or of the free list.
    next: u32,
    /// `None` exactly while the node is on the free list.
    payload: Option<E>,
}

/// Maps a time onto a `u64` whose unsigned order is `f64::total_cmp`'s.
#[inline]
fn key_of(time: SimTime) -> u64 {
    let bits = time.as_f64().to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`key_of`].
#[inline]
fn time_of(key: u64) -> SimTime {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    SimTime::from_valid_bits(bits)
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue. Allocates nothing until the first
    /// push.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; BUCKETS],
            tails: [NIL; BUCKETS],
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            last: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `u32::MAX` events are already pending.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let key = key_of(time);
        if key < self.last {
            if self.len == 0 {
                self.last = key;
            } else {
                self.rebase(key);
            }
        }
        let idx = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "event queue full");
            self.nodes.push(Node {
                key,
                next: NIL,
                payload: Some(payload),
            });
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.key = key;
            node.payload = Some(payload);
            idx
        };
        self.append(self.bucket_of(key), idx, key);
        self.len += 1;
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties on time are broken by insertion order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_most(u64::MAX)
    }

    /// Removes and returns the earliest event if its time is at or before
    /// `deadline`: one call in place of a [`EventQueue::peek_time`] test
    /// followed by a [`EventQueue::pop`], which would locate the lowest
    /// bucket twice.
    #[inline]
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.pop_at_most(key_of(deadline))
    }

    /// Removes and returns the earliest event if its time is strictly
    /// before `bound`: the exclusive-bound form of
    /// [`EventQueue::pop_until`].
    #[inline]
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        self.pop_at_most(key_of(bound).checked_sub(1)?)
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it: the minimum of the lowest non-empty bucket, in O(1).
    #[inline]
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.occupied == 0 {
            return None;
        }
        Some(time_of(self.mins[self.occupied.trailing_zeros() as usize]))
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events (the slab's capacity is retained).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occupied = 0;
        self.len = 0;
    }

    /// Pops the earliest event if its key is at most `limit`.
    #[inline]
    fn pop_at_most(&mut self, limit: u64) -> Option<(SimTime, E)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let min = self.mins[b];
            if min > limit {
                return None;
            }
            self.last = min;
            self.redistribute(b);
        } else if self.last > limit {
            return None;
        }
        let idx = self.heads[0];
        let node = &mut self.nodes[idx as usize];
        self.heads[0] = node.next;
        if node.next == NIL {
            self.occupied &= !1;
        }
        let Some(payload) = node.payload.take() else {
            unreachable!("a bucket list reached a free node");
        };
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some((time_of(self.last), payload))
    }

    /// The bucket of `key` relative to the reference key.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        debug_assert!(key >= self.last, "key below the reference key");
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Appends node `idx`, whose key is `key`, to bucket `b`'s list.
    #[inline]
    fn append(&mut self, b: usize, idx: u32, key: u64) {
        self.nodes[idx as usize].next = NIL;
        self.splice(b, idx, idx, key);
    }

    /// Appends the list `head..=tail`, whose smallest key is `min`, to
    /// bucket `b`'s list.
    #[inline]
    fn splice(&mut self, b: usize, head: u32, tail: u32, min: u64) {
        if self.occupied & (1 << b) == 0 {
            self.heads[b] = head;
            self.mins[b] = min;
            self.occupied |= 1 << b;
        } else {
            self.nodes[self.tails[b] as usize].next = head;
            self.mins[b] = self.mins[b].min(min);
        }
        self.tails[b] = tail;
    }

    /// Empties bucket `b` into the buckets below it after `last` moved up
    /// to the bucket's minimum. Walking the list in order keeps every
    /// target list in push order among equal keys.
    fn redistribute(&mut self, b: usize) {
        let mut i = self.heads[b];
        self.occupied &= !(1 << b);
        while i != NIL {
            let node = &self.nodes[i as usize];
            let (next, key) = (node.next, node.key);
            let target = self.bucket_of(key);
            debug_assert!(target < b, "redistribution must move keys down");
            self.append(target, i, key);
            i = next;
        }
    }

    /// The cold path of a push below the reference key. With `h` the
    /// highest bit in which `key` differs from `last` (where `last` has a 1
    /// and `key` a 0), every pending key in buckets `0..=h` differs from
    /// `key` first in bit `h` too, while keys in higher buckets keep their
    /// bucket; bucket `h + 1` is necessarily empty. Splicing the low
    /// buckets into it re-buckets every event relative to `key` without
    /// visiting any of them, and keeps each list in push order among equal
    /// keys, which only ever share a bucket.
    #[cold]
    fn rebase(&mut self, key: u64) {
        let h = (u64::BITS - 1 - (key ^ self.last).leading_zeros()) as usize;
        debug_assert!(self.occupied & (1 << (h + 1)) == 0);
        let mut low = self.occupied & ((1 << (h + 1)) - 1);
        self.occupied &= !low;
        while low != 0 {
            let b = low.trailing_zeros() as usize;
            low &= low - 1;
            self.splice(h + 1, self.heads[b], self.tails[b], self.mins[b]);
        }
        self.last = key;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(SimTime::new(t), t as u32);
        }
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(7.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::new(7.0), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), ());
        q.push(SimTime::new(2.0), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10.0), 10);
        q.push(SimTime::new(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::new(5.0), 5);
        q.push(SimTime::new(0.5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn random_workload_pops_sorted_and_stable() {
        // Deterministic LCG-driven stress: push/pop interleaving over a
        // small set of distinct times exercises every sift path, and ties
        // must preserve push order.
        let mut q = EventQueue::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut pushed = 0u64;
        for _ in 0..10_000 {
            if next() % 3 != 0 {
                let t = SimTime::new((next() % 16) as f64);
                q.push(t, pushed);
                pushed += 1;
            } else {
                let _ = q.pop();
            }
        }
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        for w in drained.windows(2) {
            assert!(w[0].0 <= w[1].0, "times out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    }

    #[test]
    fn capacity_is_retained_across_clear() {
        let mut q = EventQueue::new();
        for i in 0..512 {
            q.push(SimTime::new(f64::from(i)), i);
        }
        let capacity = q.nodes.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.nodes.capacity(), capacity);
        q.push(SimTime::new(1.0), 7);
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 7)));
    }

    #[test]
    fn keys_follow_total_cmp_and_round_trip() {
        let times = [0.0, -0.0, 1e-300, 1e-9, 0.5, 1.0, 1.5, 2.0, 1e12, f64::MAX];
        for &a in &times {
            let ta = SimTime::new(a);
            assert_eq!(time_of(key_of(ta)).as_f64().to_bits(), a.to_bits());
            for &b in &times {
                let kb = key_of(SimTime::new(b));
                assert_eq!(key_of(ta).cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn the_slab_never_outgrows_the_pending_high_water_mark() {
        let mut q = EventQueue::new();
        let mut now = 0.0;
        for i in 0..64 {
            q.push(SimTime::new(f64::from(i)), i);
        }
        for i in 0..10_000 {
            let (t, _) = q.pop().unwrap();
            now = t.as_f64().max(now);
            q.push(SimTime::new(now + f64::from(i % 7)), i);
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.nodes.len(), 64);
    }
}

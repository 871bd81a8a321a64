//! The fixed-capacity ring-buffer queue carrying words between
//! neighbouring cells, shared by both executors.
//!
//! The native executor runs each cell to completion before its
//! downstream neighbour starts, so a channel's queue must hold every
//! word the producer ever sends — the capacity is computed statically
//! from the program's send counts and an in-bounds program can never
//! observe a full queue. The cycle-level simulator sizes a queue one
//! word above the machine's capacity: a send and its matching receive
//! may share a cycle, and overflow is judged at the end of it. The
//! ring structure matters to both: `head` wraps without a division,
//! storage is a single flat allocation, and the high-water mark feeds
//! the native run report's queue-occupancy observations.

/// A fixed-capacity FIFO of `f32` words over a flat ring buffer.
#[derive(Clone, Debug)]
pub struct RingQueue {
    buf: Vec<f32>,
    /// Index of the oldest word.
    head: usize,
    /// Words currently queued.
    len: usize,
    /// Largest `len` ever observed.
    high_water: usize,
}

impl RingQueue {
    /// An empty queue holding at most `capacity` words.
    pub fn with_capacity(capacity: usize) -> RingQueue {
        RingQueue {
            buf: vec![0.0; capacity.max(1)],
            head: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Maximum number of words the queue can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Words currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no words are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Enqueues a word. Returns `false` (and drops nothing into the
    /// buffer) when the queue is full.
    #[must_use]
    pub fn push(&mut self, v: f32) -> bool {
        if self.len == self.buf.len() {
            return false;
        }
        // `head < capacity` and `len < capacity` here, so one
        // conditional subtract wraps — no integer division on the
        // per-word path.
        let mut tail = self.head + self.len;
        if tail >= self.buf.len() {
            tail -= self.buf.len();
        }
        self.buf[tail] = v;
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        true
    }

    /// Dequeues the oldest word, or `None` when empty.
    pub fn pop(&mut self) -> Option<f32> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(v)
    }

    /// Empties the queue (capacity and high-water mark are kept).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Empties the queue and zeroes the high-water mark (capacity is
    /// kept) — a fresh-run reset for reused queues.
    pub fn reset(&mut self) {
        self.clear();
        self.high_water = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order_and_wraparound() {
        let mut q = RingQueue::with_capacity(3);
        assert!(q.push(1.0) && q.push(2.0) && q.push(3.0));
        assert!(!q.push(4.0), "full queue must refuse");
        assert_eq!(q.pop(), Some(1.0));
        // The next push wraps past the end of the flat buffer.
        assert!(q.push(4.0));
        assert_eq!(q.pop(), Some(2.0));
        assert_eq!(q.pop(), Some(3.0));
        assert_eq!(q.pop(), Some(4.0));
        assert_eq!(q.pop(), None);
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn capacity_one_boundary() {
        let mut q = RingQueue::with_capacity(1);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.push(7.5));
        assert!(!q.push(8.5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(7.5));
        assert_eq!(q.pop(), None);
        // Reusable after draining.
        assert!(q.push(9.5));
        assert_eq!(q.pop(), Some(9.5));
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut q = RingQueue::with_capacity(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(1.0));
        assert!(!q.push(2.0));
    }

    #[test]
    fn clear_resets_occupancy_but_keeps_high_water() {
        let mut q = RingQueue::with_capacity(4);
        assert!(q.push(1.0) && q.push(2.0) && q.push(3.0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 3);
        assert!(q.push(4.0));
        assert_eq!(q.pop(), Some(4.0));
    }

    /// The satellite property test: seeded random push/pop sequences
    /// against a `VecDeque` model, across capacities including 1, with
    /// phases biased toward filling and draining so both boundaries
    /// (full refusal, empty `None`) are hit repeatedly mid-sequence.
    #[test]
    fn random_sequences_match_vecdeque_model() {
        for (capacity, seed) in [(1usize, 11u64), (2, 22), (3, 33), (7, 44), (32, 55)] {
            let mut rng = SplitMix64::new(seed);
            let mut q = RingQueue::with_capacity(capacity);
            let mut model: VecDeque<f32> = VecDeque::new();
            let mut full_hits = 0u32;
            let mut empty_hits = 0u32;
            for step in 0..4_000u64 {
                // Alternate fill-biased and drain-biased phases so the
                // occupancy sweeps the whole [0, capacity] range.
                let push_bias = if (step / 100) % 2 == 0 { 3 } else { 1 };
                if rng.next_u64() % 4 < push_bias {
                    let v = (rng.next_u64() % 1_000) as f32 - 500.0;
                    let accepted = q.push(v);
                    if model.len() < capacity {
                        assert!(accepted, "cap {capacity} step {step}: spurious refusal");
                        model.push_back(v);
                    } else {
                        assert!(!accepted, "cap {capacity} step {step}: overfull accept");
                        full_hits += 1;
                    }
                } else {
                    let got = q.pop();
                    let want = model.pop_front();
                    assert_eq!(got, want, "cap {capacity} step {step}");
                    if want.is_none() {
                        empty_hits += 1;
                    }
                }
                assert_eq!(q.len(), model.len(), "cap {capacity} step {step}");
                assert_eq!(q.is_empty(), model.is_empty());
            }
            assert!(full_hits > 0, "cap {capacity}: full boundary never hit");
            assert!(empty_hits > 0, "cap {capacity}: empty boundary never hit");
            assert!(q.high_water() <= capacity);
            assert!(q.high_water() > 0);
        }
    }
}

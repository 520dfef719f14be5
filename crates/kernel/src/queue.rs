//! Fixed-capacity scheduler queues.
//!
//! §3.3: "each local scheduler uses fixed size priority queues to implement
//! the pending and real-time run queues, and other state is also of fixed
//! size. As a result, the time spent in a local scheduler invocation is
//! bounded." These are those queues: a bounded binary min-heap with
//! deterministic FIFO tie-breaking, and a bounded round-robin queue for
//! non-real-time threads. Pushing past capacity is an admission-control
//! failure surfaced to the caller, never a reallocation.
//!
//! These run queues deliberately stay heaps even though the simulator's
//! future-event list moved to a hierarchical timing wheel
//! (`nautix_des::wheel`): every per-CPU queue is *sized* for the whole
//! thread table (`max_threads`) but admission control keeps the entries
//! actually queued on one CPU to a handful, where O(log n) with FIFO
//! tie-break beats a 1K-slot wheel's cache footprint — and EDF keys are
//! deadlines, not timestamps bounded by a sim clock horizon. The wheel
//! pays off at the event-queue's scale (hundreds of thousands of
//! timer-shaped events), not here.
//!
//! Nothing here hashes or allocates after construction: every scheduling
//! pass pushes and pops these queues, so they are on the event path.

/// A bounded binary min-heap of `(key, value)` with FIFO tie-break.
///
/// A flat array and nothing else: push and pop are O(log n) sifts, while
/// [`FixedHeap::contains`] and [`FixedHeap::remove`] scan the live
/// entries — a handful where admission bounds the queue, and only needed
/// when a thread leaves its CPU (exit, migration, class change). The
/// array is sized once in [`FixedHeap::new`] and never grows past
/// `capacity` entries, preserving the no-reallocation bound.
#[derive(Debug, Clone)]
pub struct FixedHeap<K: Ord + Copy, V: Copy + Eq> {
    items: Vec<(K, u64, V)>,
    capacity: usize,
    seq: u64,
}

impl<K: Ord + Copy, V: Copy + Eq> FixedHeap<K, V> {
    /// An empty heap that will never hold more than `capacity` items.
    pub fn new(capacity: usize) -> Self {
        FixedHeap {
            items: Vec::with_capacity(capacity),
            capacity,
            seq: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empty the heap in place, keeping the backing storage. The FIFO
    /// sequence counter restarts, so a cleared heap behaves exactly like a
    /// fresh one (trial-to-trial determinism for pooled schedulers).
    pub fn clear(&mut self) {
        self.items.clear();
        self.seq = 0;
    }

    /// Insert `value` with `key`. Fails (returning the value) when full.
    pub fn push(&mut self, key: K, value: V) -> Result<(), V> {
        if self.items.len() >= self.capacity {
            return Err(value);
        }
        let seq = self.seq;
        self.seq += 1;
        self.items.push((key, seq, value));
        self.sift_up(self.items.len() - 1);
        Ok(())
    }

    /// The minimum-key entry without removing it.
    pub fn peek(&self) -> Option<(K, V)> {
        self.items.first().map(|&(k, _, v)| (k, v))
    }

    /// Remove and return the minimum-key entry.
    pub fn pop(&mut self) -> Option<(K, V)> {
        if self.items.is_empty() {
            return None;
        }
        let (k, _, v) = self.items.swap_remove(0);
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some((k, v))
    }

    /// Remove the first-positioned entry whose value equals `value`: among
    /// duplicates the one at the lowest heap index goes.
    pub fn remove(&mut self, value: V) -> bool {
        let Some(idx) = self.items.iter().position(|&(_, _, v)| v == value) else {
            return false;
        };
        self.items.swap_remove(idx);
        if idx < self.items.len() {
            self.sift_down(idx);
            self.sift_up(idx);
        }
        true
    }

    /// Whether `value` is queued.
    pub fn contains(&self, value: V) -> bool {
        self.items.iter().any(|&(_, _, v)| v == value)
    }

    /// Iterate entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.items.iter().map(|&(k, _, v)| (k, v))
    }

    fn less(&self, a: usize, b: usize) -> bool {
        let (ka, sa, _) = &self.items[a];
        let (kb, sb, _) = &self.items[b];
        (ka, sa) < (kb, sb)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.items.len() && self.less(l, smallest) {
                smallest = l;
            }
            if r < self.items.len() && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

/// A bounded round-robin ready queue with priorities: lower priority value
/// is more important; within a priority class, strict FIFO rotation.
#[derive(Debug, Clone)]
pub struct RrQueue<V: Copy + Eq> {
    items: std::collections::VecDeque<(u64, V)>,
    capacity: usize,
}

impl<V: Copy + Eq> RrQueue<V> {
    /// An empty queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        RrQueue {
            items: std::collections::VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Empty the queue in place, keeping the backing storage.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Enqueue at the back of `priority`'s class. Fails when full.
    pub fn push(&mut self, priority: u64, value: V) -> Result<(), V> {
        if self.items.len() >= self.capacity {
            return Err(value);
        }
        // Insert before the first entry with a strictly larger priority
        // value, i.e. after all peers: FIFO within the class.
        let pos = self
            .items
            .iter()
            .position(|&(p, _)| p > priority)
            .unwrap_or(self.items.len());
        self.items.insert(pos, (priority, value));
        Ok(())
    }

    /// Dequeue the most important (then oldest) entry.
    pub fn pop(&mut self) -> Option<(u64, V)> {
        self.items.pop_front()
    }

    /// The entry `pop` would return.
    pub fn peek(&self) -> Option<(u64, V)> {
        self.items.front().copied()
    }

    /// Remove a specific value.
    pub fn remove(&mut self, value: V) -> bool {
        if let Some(idx) = self.items.iter().position(|&(_, v)| v == value) {
            self.items.remove(idx);
            true
        } else {
            false
        }
    }

    /// Whether `value` is queued.
    pub fn contains(&self, value: V) -> bool {
        self.items.iter().any(|&(_, v)| v == value)
    }

    /// Iterate entries front-to-back.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_pops_in_key_order() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(8);
        for (k, v) in [(5, 0), (1, 1), (9, 2), (3, 3)] {
            h.push(k, v).unwrap();
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 9]);
    }

    #[test]
    fn heap_ties_are_fifo() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(8);
        for v in 0..5 {
            h.push(42, v).unwrap();
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heap_rejects_overflow() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(2);
        h.push(1, 10).unwrap();
        h.push(2, 20).unwrap();
        assert_eq!(h.push(3, 30), Err(30));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn heap_remove_keeps_order() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(8);
        for (k, v) in [(5, 0), (1, 1), (9, 2), (3, 3), (7, 4)] {
            h.push(k, v).unwrap();
        }
        assert!(h.remove(3)); // the key-3 entry
        assert!(!h.remove(3));
        let keys: Vec<_> = std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect();
        assert_eq!(keys, vec![1, 5, 7, 9]);
    }

    #[test]
    fn heap_contains_and_peek() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(4);
        h.push(2, 7).unwrap();
        h.push(1, 8).unwrap();
        assert!(h.contains(7));
        assert!(!h.contains(9));
        assert_eq!(h.peek(), Some((1, 8)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn heap_membership_tracks_duplicates() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(8);
        h.push(1, 7).unwrap();
        h.push(2, 7).unwrap();
        h.push(3, 8).unwrap();
        assert!(h.contains(7));
        assert!(h.remove(7));
        // One copy of 7 is still queued.
        assert!(h.contains(7));
        assert_eq!(h.pop(), Some((2, 7)));
        assert!(!h.contains(7));
        assert!(!h.remove(7));
        assert!(h.contains(8));
    }

    #[test]
    fn heap_remove_then_pop_preserves_order() {
        // Interior removals must leave the heap property and FIFO
        // tie-breaks intact.
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(16);
        for (i, k) in [8, 3, 11, 1, 9, 4, 15, 2, 6].iter().enumerate() {
            h.push(*k, i).unwrap();
        }
        assert!(h.remove(0)); // key 8, an interior node
        assert!(h.remove(7)); // key 2
        let keys: Vec<_> = std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect();
        assert_eq!(keys, vec![1, 3, 4, 6, 9, 11, 15]);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_clear_restarts_fifo_sequence() {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(8);
        for v in 0..3 {
            h.push(1, v).unwrap();
        }
        h.pop();
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(1));
        // After clear, tie-break order must match a fresh heap's.
        for v in [30, 10, 20] {
            h.push(5, v).unwrap();
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![30, 10, 20]);
    }

    #[test]
    fn heap_random_remove_pop_matches_model() {
        // Drive the heap through thousands of push/remove/pop steps and
        // check every pop against a brute-force model.
        let mut h: FixedHeap<u64, u64> = FixedHeap::new(64);
        let mut model: Vec<(u64, u64)> = Vec::new(); // (key, value); value doubles as seq
        let mut next_v = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..8000 {
            match next(4) {
                0 | 3 if model.len() < 64 => {
                    let k = next(50);
                    h.push(k, next_v).unwrap();
                    model.push((k, next_v));
                    next_v += 1;
                }
                1 if !model.is_empty() => {
                    let i = next(model.len() as u64) as usize;
                    let (_, v) = model[i];
                    assert!(h.remove(v));
                    assert!(!h.contains(v));
                    model.remove(i);
                }
                _ => {
                    // Values are assigned in push order, so (key, value)
                    // ordering equals the heap's (key, seq) tie-break.
                    let expect = model
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(k, v))| (k, v))
                        .map(|(i, &(k, v))| (i, k, v));
                    match (h.pop(), expect) {
                        (None, None) => {}
                        (Some((k, v)), Some((i, ek, ev))) => {
                            assert_eq!((k, v), (ek, ev));
                            model.remove(i);
                        }
                        (got, want) => panic!("pop {got:?} vs model {want:?}"),
                    }
                }
            }
        }
        assert_eq!(h.len(), model.len());
    }

    #[test]
    fn rr_priority_then_fifo() {
        let mut q: RrQueue<usize> = RrQueue::new(8);
        q.push(1, 10).unwrap();
        q.push(0, 20).unwrap();
        q.push(1, 11).unwrap();
        q.push(0, 21).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![20, 21, 10, 11]);
    }

    #[test]
    fn rr_rotation_is_fair() {
        let mut q: RrQueue<usize> = RrQueue::new(4);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        // Simulate round robin: pop, run, push back.
        let mut seen = Vec::new();
        for _ in 0..4 {
            let (p, v) = q.pop().unwrap();
            seen.push(v);
            q.push(p, v).unwrap();
        }
        assert_eq!(seen, vec![1, 2, 1, 2]);
    }

    #[test]
    fn rr_remove_and_overflow() {
        let mut q: RrQueue<usize> = RrQueue::new(2);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        assert_eq!(q.push(0, 3), Err(3));
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert!(q.contains(2));
        assert_eq!(q.len(), 1);
    }
}

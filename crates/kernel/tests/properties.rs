//! Property-based tests of the kernel substrate's invariants.

use nautix_kernel::{FixedHeap, RrQueue};
use proptest::prelude::*;
use std::collections::BinaryHeap;

proptest! {
    /// The fixed heap pops exactly the multiset it was given, in
    /// non-decreasing key order, agreeing with a reference heap.
    #[test]
    fn fixed_heap_matches_reference(keys in prop::collection::vec(0u64..1000, 1..64)) {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(64);
        let mut reference = BinaryHeap::new();
        for (i, &k) in keys.iter().enumerate() {
            h.push(k, i).unwrap();
            reference.push(std::cmp::Reverse(k));
        }
        let mut last = None;
        let mut popped = 0;
        while let Some((k, _)) = h.pop() {
            let std::cmp::Reverse(rk) = reference.pop().unwrap();
            prop_assert_eq!(k, rk, "key order must match the reference heap");
            if let Some(l) = last {
                prop_assert!(k >= l);
            }
            last = Some(k);
            popped += 1;
        }
        prop_assert_eq!(popped, keys.len());
        prop_assert!(h.is_empty());
    }

    /// Removing arbitrary values preserves the heap order of the rest.
    #[test]
    fn fixed_heap_remove_preserves_order(
        keys in prop::collection::vec(0u64..100, 1..32),
        removals in prop::collection::vec(0usize..32, 0..16),
    ) {
        let mut h: FixedHeap<u64, usize> = FixedHeap::new(32);
        for (i, &k) in keys.iter().enumerate() {
            h.push(k, i).unwrap();
        }
        let mut expect: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        for &r in &removals {
            if h.remove(r) {
                expect.retain(|&(_, v)| v != r);
            }
        }
        let mut got: Vec<u64> = Vec::new();
        while let Some((k, _)) = h.pop() {
            got.push(k);
        }
        let mut want: Vec<u64> = expect.iter().map(|&(k, _)| k).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Round-robin queue: pops come out grouped by priority class, FIFO
    /// within a class, and nothing is lost.
    #[test]
    fn rr_queue_priority_fifo(entries in prop::collection::vec((0u64..4, 0usize..1000), 1..32)) {
        let mut q: RrQueue<usize> = RrQueue::new(32);
        for (i, &(p, _)) in entries.iter().enumerate() {
            q.push(p, i).unwrap();
        }
        let mut got = Vec::new();
        while let Some((p, v)) = q.pop() {
            got.push((p, v));
        }
        prop_assert_eq!(got.len(), entries.len());
        // Non-decreasing priority classes.
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        // FIFO within a class: indices increase.
        for class in 0..4 {
            let idx: Vec<usize> = got.iter().filter(|&&(p, _)| p == class).map(|&(_, v)| v).collect();
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

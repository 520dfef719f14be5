//! Property-based tests of the kernel substrate's invariants.

use nautix_kernel::{FixedHeap, IdleLoop, RrQueue, Thread, ThreadState, ThreadTable};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// The thread table as it was first written: every slot allocated up
/// front and the free list filled eagerly with `(0..capacity).rev()`, so
/// spawn pops the lowest never-used id and reap pushes the reaped one.
struct EagerTable {
    slots: Vec<Option<String>>,
    free: Vec<usize>,
    live: usize,
    spawned: u64,
    reaped: u64,
}

impl EagerTable {
    fn new(capacity: usize) -> Self {
        EagerTable {
            slots: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            live: 0,
            spawned: 0,
            reaped: 0,
        }
    }

    fn spawn(&mut self, name: String) -> Option<usize> {
        let tid = self.free.pop()?;
        self.slots[tid] = Some(name);
        self.live += 1;
        self.spawned += 1;
        Some(tid)
    }

    fn reap(&mut self, tid: usize) -> bool {
        let held = self.slots.get(tid).is_some_and(Option::is_some);
        if held {
            self.slots[tid] = None;
            self.free.push(tid);
            self.live -= 1;
            self.reaped += 1;
        }
        held
    }

    fn iter(&self) -> Vec<(usize, String)> {
        let held = self.slots.iter().enumerate();
        held.filter_map(|(i, s)| s.clone().map(|n| (i, n)))
            .collect()
    }
}

fn thread(name: String) -> Thread {
    Thread {
        name,
        cpu: 0,
        bound: true,
        state: ThreadState::Ready,
        program: Box::new(IdleLoop::new(1)),
        is_idle: false,
    }
}

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

    /// The lazily filled thread table hands out exactly the ids, and keeps
    /// exactly the counters and iteration order, of the eager reference
    /// through spawns (past the bound included), exit-and-reap of a live
    /// thread, reaps of ids that hold no exited thread, and resets to a new
    /// capacity. Op codes: 0–4 spawn, 5–6 exit and reap the `arg`-th live
    /// thread, 7 reap id `arg` without exiting it, 8 reset to `arg + 1`.
    #[test]
    fn thread_table_matches_eager_reference(
        capacity in 1usize..65,
        ops in prop::collection::vec((0u8..9, 0usize..64), 1..300),
    ) {
        let mut table = ThreadTable::new(capacity);
        let mut model = EagerTable::new(capacity);
        let mut cap = capacity;
        for (n, &(op, arg)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let got = table.spawn(thread(format!("t{n}"))).map_err(|t| t.name);
                    let want = model.spawn(format!("t{n}")).ok_or(format!("t{n}"));
                    prop_assert_eq!(got, want);
                }
                5 | 6 if table.live() > 0 => {
                    let (tid, _) = table.iter().nth(arg % table.live()).unwrap();
                    table.expect_mut(tid).state = ThreadState::Exited;
                    prop_assert!(table.reap(tid));
                    prop_assert!(model.reap(tid));
                }
                5..=7 => prop_assert!(!table.reap(arg)),
                _ => {
                    cap = arg + 1;
                    table.reset(cap);
                    model = EagerTable::new(cap);
                }
            }
            prop_assert_eq!(table.live(), model.live);
            prop_assert_eq!(table.spawned(), model.spawned);
            prop_assert_eq!(table.reaped(), model.reaped);
            prop_assert_eq!(table.capacity(), cap);
            prop_assert!(table.high_water() <= cap);
            let got: Vec<_> = table.iter().map(|(i, t)| (i, t.name.clone())).collect();
            prop_assert_eq!(got, model.iter());
        }
    }
}

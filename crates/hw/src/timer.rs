//! Per-CPU one-shot timer slots.
//!
//! Each CPU has exactly one APIC one-shot countdown pending at a time, and
//! the scheduler re-arms it on every scheduler exit (tickless operation,
//! §3.3). Funneling those programmings through the global future-event heap
//! made every re-arm an O(log n) insert plus a tombstone for the cancelled
//! predecessor — and on a 256-CPU Phi the heap was mostly timers.
//!
//! [`TimerSlots`] stores the single pending deadline per CPU in a flat
//! array instead: re-arming is a store, disarming is a store, and the next
//! timer to fire is read in O(1) from a cached earliest-slot index. The
//! index is updated in O(1) when an arm improves on the cached earliest and
//! by a rescan only when the current earliest is demoted or cleared —
//! amortized, one rescan per firing.
//!
//! A rescan does not walk every slot (a flat scan is O(n_cpus) per firing,
//! where popping a heap of n_cpus timers is O(log n_cpus), and at 1024 CPUs
//! it was a quarter of the host time of a simulated event). Slots are
//! grouped into blocks of 64; each block keeps the index of its own
//! minimum, maintained by every store. A rescan re-reads at most the one
//! block whose head moved later plus the `n / 64` block heads.

use nautix_des::Cycles;

/// An unarmed slot. `Cycles::MAX` is unreachable as a real deadline: the
/// simulation asserts against time overflow long before.
const UNARMED: Cycles = Cycles::MAX;

/// Slots per block: 64 deadlines are eight cache lines, and 1024 CPUs are
/// 16 block heads.
const BLOCK: usize = 64;

/// One pending one-shot deadline per CPU, with an O(1) earliest read.
#[derive(Debug, Clone)]
pub struct TimerSlots {
    /// Absolute fire time per CPU; `UNARMED` when the slot is empty.
    deadlines: Vec<Cycles>,
    /// Per block of `BLOCK` slots, the lowest index holding the block's
    /// minimum deadline (the block's first slot when none is armed).
    heads: Vec<usize>,
    /// Index of a slot holding the minimum deadline (slot 0 when none are
    /// armed). Invariant: `deadlines[earliest] == min(deadlines)`. Not
    /// always a block head: among equal deadlines the latest arm wins.
    earliest: usize,
    /// Total arms, for diagnostics (matches the old APIC programmings
    /// counter, summed over CPUs).
    arms: u64,
    /// Slots read by rescans (the work-count guard's probe).
    #[cfg(test)]
    visited: usize,
}

fn block_heads(n: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(BLOCK)
}

impl TimerSlots {
    /// `n` unarmed slots.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        TimerSlots {
            deadlines: vec![UNARMED; n],
            heads: block_heads(n).collect(),
            earliest: 0,
            arms: 0,
            #[cfg(test)]
            visited: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.deadlines.len()
    }

    /// Return to `n` unarmed slots, reusing the backing storage.
    pub fn reset(&mut self, n: usize) {
        assert!(n >= 1);
        self.deadlines.clear();
        self.deadlines.resize(n, UNARMED);
        self.heads.clear();
        self.heads.extend(block_heads(n));
        self.earliest = 0;
        self.arms = 0;
    }

    /// True when no slot is armed.
    pub fn is_empty(&self) -> bool {
        self.deadlines[self.earliest] == UNARMED
    }

    /// Arm (or re-arm) `cpu`'s one-shot to fire at absolute time `deadline`.
    /// The previous programming, if any, is simply overwritten — one slot
    /// per CPU means re-arm storms cannot grow any state.
    #[inline]
    pub fn arm(&mut self, cpu: usize, deadline: Cycles) {
        assert!(deadline < UNARMED, "timer deadline overflow");
        self.arms += 1;
        let was_earliest = cpu == self.earliest;
        let improves = deadline <= self.deadlines[self.earliest];
        self.store(cpu, deadline);
        if improves {
            self.earliest = cpu;
        } else if was_earliest {
            // The earliest slot moved later; another slot may now be first.
            self.rescan();
        }
    }

    /// Disarm `cpu`'s one-shot, if armed.
    #[inline]
    pub fn disarm(&mut self, cpu: usize) {
        self.store(cpu, UNARMED);
        if cpu == self.earliest {
            self.rescan();
        }
    }

    /// `cpu`'s pending deadline, if armed.
    pub fn deadline(&self, cpu: usize) -> Option<Cycles> {
        match self.deadlines[cpu] {
            UNARMED => None,
            d => Some(d),
        }
    }

    /// The next timer to fire: `(cpu, deadline)`, in O(1).
    ///
    /// Ties are deterministic: among equal deadlines the slot most recently
    /// promoted by [`arm`](Self::arm) (or the lowest index after a rescan)
    /// is reported, and the firing order of simultaneous timers follows
    /// from the deterministic sequence of arm/disarm calls.
    pub fn earliest(&self) -> Option<(usize, Cycles)> {
        match self.deadlines[self.earliest] {
            UNARMED => None,
            d => Some((self.earliest, d)),
        }
    }

    /// The earliest timer, but only if it is due no later than `head` —
    /// the timestamp-order merge condition between the timer slots and the
    /// future-event queue. `head == None` means the queue is empty, so any
    /// armed timer is due. Equality fires the timer first: hardware raises
    /// the interrupt line before any same-instant software-visible event.
    pub fn due_before(&self, head: Option<Cycles>) -> Option<(usize, Cycles)> {
        let (cpu, deadline) = self.earliest()?;
        match head {
            Some(h) if deadline > h => None,
            _ => Some((cpu, deadline)),
        }
    }

    /// Total arm operations performed.
    pub fn arms(&self) -> u64 {
        self.arms
    }

    /// Write `cpu`'s slot and keep its block's head on the lowest index of
    /// the block's minimum.
    fn store(&mut self, cpu: usize, deadline: Cycles) {
        let old = std::mem::replace(&mut self.deadlines[cpu], deadline);
        let block = cpu / BLOCK;
        let head = self.heads[block];
        if cpu == head {
            if deadline > old {
                self.rescan_block(block);
            }
        } else if (deadline, cpu) < (self.deadlines[head], head) {
            self.heads[block] = cpu;
        }
    }

    fn rescan_block(&mut self, block: usize) {
        let lo = block * BLOCK;
        let slots = &self.deadlines[lo..self.deadlines.len().min(lo + BLOCK)];
        let (mut best, mut best_d) = (0, slots[0]);
        for (i, &d) in slots.iter().enumerate().skip(1) {
            if d < best_d {
                (best, best_d) = (i, d);
            }
        }
        self.heads[block] = lo + best;
        #[cfg(test)]
        {
            self.visited += slots.len();
        }
    }

    /// Point `earliest` at the lowest index holding the minimum deadline:
    /// the first block head with the smallest deadline, since each head is
    /// the lowest such index within its block.
    fn rescan(&mut self) {
        let mut best = self.heads[0];
        for &h in &self.heads[1..] {
            if self.deadlines[h] < self.deadlines[best] {
                best = h;
            }
        }
        self.earliest = best;
        #[cfg(test)]
        {
            self.visited += self.heads.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unarmed() {
        let t = TimerSlots::new(4);
        assert!(t.is_empty());
        assert_eq!(t.earliest(), None);
        assert_eq!(t.deadline(2), None);
    }

    #[test]
    fn earliest_tracks_min_across_arms() {
        let mut t = TimerSlots::new(4);
        t.arm(1, 500);
        assert_eq!(t.earliest(), Some((1, 500)));
        t.arm(3, 200);
        assert_eq!(t.earliest(), Some((3, 200)));
        t.arm(0, 900);
        assert_eq!(t.earliest(), Some((3, 200)));
    }

    #[test]
    fn rearm_later_demotes_and_rescans() {
        let mut t = TimerSlots::new(3);
        t.arm(0, 100);
        t.arm(1, 300);
        // Re-arm the earliest CPU to a later deadline: CPU 1 must surface.
        t.arm(0, 1000);
        assert_eq!(t.earliest(), Some((1, 300)));
        assert_eq!(t.deadline(0), Some(1000));
    }

    #[test]
    fn disarm_clears_and_rescans() {
        let mut t = TimerSlots::new(3);
        t.arm(0, 100);
        t.arm(2, 150);
        t.disarm(0);
        assert_eq!(t.earliest(), Some((2, 150)));
        t.disarm(2);
        assert!(t.is_empty());
        assert_eq!(t.earliest(), None);
    }

    #[test]
    fn disarming_unarmed_slot_is_noop() {
        let mut t = TimerSlots::new(2);
        t.arm(1, 50);
        t.disarm(0);
        assert_eq!(t.earliest(), Some((1, 50)));
    }

    #[test]
    fn rearm_storm_keeps_single_slot() {
        let mut t = TimerSlots::new(2);
        for i in 0..10_000u64 {
            t.arm(0, 10 + i);
        }
        // Only the latest programming is live.
        assert_eq!(t.deadline(0), Some(10_009));
        assert_eq!(t.earliest(), Some((0, 10_009)));
        assert_eq!(t.arms(), 10_000);
    }

    #[test]
    fn equal_deadlines_resolve_deterministically() {
        let mut a = TimerSlots::new(4);
        let mut b = TimerSlots::new(4);
        for t in [&mut a, &mut b] {
            t.arm(2, 100);
            t.arm(1, 100);
            t.arm(3, 100);
        }
        assert_eq!(a.earliest(), b.earliest());
    }

    #[test]
    fn due_before_merges_on_deadline_not_after() {
        let mut t = TimerSlots::new(2);
        assert_eq!(t.due_before(None), None);
        assert_eq!(t.due_before(Some(100)), None);
        t.arm(1, 50);
        // Queue empty: any armed timer is due.
        assert_eq!(t.due_before(None), Some((1, 50)));
        // Earlier or equal head: due (equality fires the timer first).
        assert_eq!(t.due_before(Some(80)), Some((1, 50)));
        assert_eq!(t.due_before(Some(50)), Some((1, 50)));
        // Head strictly earlier than the deadline: queue event goes first.
        assert_eq!(t.due_before(Some(49)), None);
    }

    #[test]
    fn matches_bruteforce_min_under_mixed_ops() {
        let mut t = TimerSlots::new(8);
        let mut state = 0x9E37_79B9u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..5000 {
            let cpu = next(8) as usize;
            if next(5) == 0 {
                t.disarm(cpu);
            } else {
                t.arm(cpu, next(1 << 40));
            }
            let brute = t.deadlines.iter().copied().filter(|&d| d != UNARMED).min();
            assert_eq!(t.earliest().map(|(_, d)| d), brute);
        }
    }

    /// The single-level implementation this module replaced, verbatim: the
    /// reference the two-level structure must match index for index.
    struct FlatSlots {
        deadlines: Vec<Cycles>,
        earliest: usize,
    }

    impl FlatSlots {
        fn new(n: usize) -> Self {
            FlatSlots {
                deadlines: vec![UNARMED; n],
                earliest: 0,
            }
        }

        fn arm(&mut self, cpu: usize, deadline: Cycles) {
            let was_earliest = cpu == self.earliest;
            let improves = deadline <= self.deadlines[self.earliest];
            self.deadlines[cpu] = deadline;
            if improves {
                self.earliest = cpu;
            } else if was_earliest {
                self.rescan();
            }
        }

        fn disarm(&mut self, cpu: usize) {
            self.deadlines[cpu] = UNARMED;
            if cpu == self.earliest {
                self.rescan();
            }
        }

        fn earliest(&self) -> Option<(usize, Cycles)> {
            match self.deadlines[self.earliest] {
                UNARMED => None,
                d => Some((self.earliest, d)),
            }
        }

        fn rescan(&mut self) {
            let mut best = 0;
            for (i, &d) in self.deadlines.iter().enumerate() {
                if d < self.deadlines[best] {
                    best = i;
                }
            }
            self.earliest = best;
        }
    }

    #[test]
    fn lockstep_with_flat_reference_under_ties() {
        // Deadlines come from 16 values, so nearly every op lands on a tie
        // and the reported *index* depends on the whole arm/disarm history.
        let ops = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        for n in [1usize, 2, 63, 64, 65, 200, 1024] {
            let mut t = TimerSlots::new(n);
            let mut flat = FlatSlots::new(n);
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ n as u64;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            for op in 0..ops {
                let cpu = next(n as u64) as usize;
                match next(8) {
                    0 => {
                        t.disarm(cpu);
                        flat.disarm(cpu);
                    }
                    1 | 2 => {
                        // What firing does: clear whichever slot is first.
                        if let Some((first, _)) = flat.earliest() {
                            t.disarm(first);
                            flat.disarm(first);
                        }
                    }
                    _ => {
                        let d = 1_000 + next(16);
                        t.arm(cpu, d);
                        flat.arm(cpu, d);
                    }
                }
                // The index, not `earliest()`: with every slot unarmed both
                // report `None` whatever index the next arm will compare to.
                assert_eq!(t.earliest, flat.earliest, "n={n} op={op}");
                assert_eq!(t.deadlines, flat.deadlines, "n={n} op={op}");
            }
        }
    }

    #[test]
    fn rescans_read_one_block_and_the_block_heads() {
        let n = 1024;
        let mut t = TimerSlots::new(n);
        for cpu in 0..n {
            t.arm(cpu, 1_000 + 7 * cpu as u64);
        }
        for _ in 0..5_000 {
            // Fire the earliest timer, then re-arm that CPU a period later.
            let (cpu, deadline) = t.earliest().unwrap();
            let before = t.visited;
            t.disarm(cpu);
            t.arm(cpu, deadline + 130_000);
            assert!(t.visited - before <= BLOCK + n / BLOCK);
            // The tickless steady state re-arms without the disarm.
            let (cpu, deadline) = t.earliest().unwrap();
            let before = t.visited;
            t.arm(cpu, deadline + 130_000);
            assert!(t.visited - before <= BLOCK + n / BLOCK);
        }
    }
}

//! Hierarchical timing wheel: the wide-machine future-event list.
//!
//! The tickless design the paper argues for (one-shot timers re-armed on
//! every scheduler exit, §3.3) makes the simulator's event queue the
//! hottest structure in the whole reproduction: tens of millions of
//! schedule/cancel/pop operations per trial, most of them timer-shaped
//! (short relative delays, heavy re-programming). Real tickless kernels
//! answer that shape with a hierarchical timing wheel — O(1) insert and
//! cancel against the O(log n) of a binary heap — and this module is that
//! structure, specialized to the determinism contract of
//! [`EventQueue`](crate::event::EventQueue), which builds it for every
//! machine wide enough to keep a standing backlog (on a 2–3-CPU rig with
//! about one pending event the heap's constant factor is lower, and the
//! facade builds that instead).
//!
//! # Layout
//!
//! Four levels of 256 slots, 8 bits of the absolute timestamp per level:
//! level `L` slot `s` holds every pending event whose time `t` satisfies
//! `(t >> 8L) & 255 == s` *and* whose higher bits match the current clock
//! (so level 0 spans 256 cycles at 1-cycle resolution, level 3 spans 2^32
//! cycles at 2^24-cycle resolution). Events beyond the 2^32-cycle horizon
//! wait in an overflow list and are redistributed when the clock crosses a
//! 2^32 boundary. An event is placed on the *lowest* level whose span
//! covers it — equivalently, at level `⌈highest differing bit of
//! `t ^ now`⌉ / 8` — and each slot is an intrusive doubly-linked list
//! (u32 node indices) with O(1) tail append and O(1) unlink. Per-level
//! occupancy bitmaps (4 × u64) make "first non-empty slot" four word
//! scans.
//!
//! # Cascades
//!
//! Advancing the clock from `old` to `t` cascades, for each level whose
//! digit of the clock changed, exactly the one slot that now contains `t`:
//! its events re-place onto lower levels (an event at time `t` lands
//! directly in level 0). Slots between the old and new digit need no
//! visit — the clock only ever advances to at most the earliest pending
//! time, so those slots are provably empty. Crossing a 2^32 boundary
//! additionally drains the overflow list (entries whose epoch arrived
//! re-place; the rest re-enter in order).
//!
//! # Why pops stay in insertion order
//!
//! The facade's contract is that same-instant events fire in insertion
//! order, matching the heap's `(time, sequence)` key bit for bit. The
//! wheel keeps that order *without* storing sequence numbers:
//!
//! * every insert appends at its slot's tail;
//! * cascades and overflow drains traverse head-to-tail and re-append,
//!   preserving relative order (they are stable);
//! * a level-0 slot receives cascaded events only while it is empty —
//!   fresh inserts into a slot's window can only happen *after* the clock
//!   advance that cascades that window down, because inserts target the
//!   lowest covering level and pops never leave live events behind the
//!   clock.
//!
//! So each slot list is always a subsequence of the global insertion
//! order, and draining the level-0 slot for instant `t` yields exactly
//! the heap's tie-break order. `tests/wheel_vs_heap.rs` checks this
//! differentially under random churn, [`EventId`]s included (both
//! backends share the same LIFO free-list slot allocation, so identical
//! call sequences mint identical ids).

use crate::event::EventId;
use crate::time::Cycles;

/// Bits of the timestamp consumed per level.
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels; the covered horizon is `2^(BITS * LEVELS)` cycles.
const LEVELS: usize = 4;
/// Bits covered by all levels together (the horizon; 2^32 cycles ≈ 3.3 s
/// of simulated time at the Phi's 1.3 GHz).
const HORIZON_BITS: u32 = BITS * LEVELS as u32;
/// Words per occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Null link / "not in any list".
const NIL: u32 = u32::MAX;
/// List index of the beyond-horizon overflow list.
const OVERFLOW: u32 = (LEVELS * SLOTS) as u32;

/// One event node: list links, home list, timestamp, and the payload.
/// `payload` is `Some` exactly while the event is pending; free-listed
/// nodes keep their generation so stale [`EventId`]s can never alias.
#[derive(Debug)]
struct Node<E> {
    gen: u32,
    next: u32,
    prev: u32,
    /// `level * SLOTS + slot`, [`OVERFLOW`], or [`NIL`] when not pending.
    home: u32,
    time: Cycles,
    payload: Option<E>,
}

/// A hierarchical timing wheel with the exact observable semantics of
/// [`HeapQueue`](crate::event::HeapQueue). See the module docs for layout
/// and ordering; see [`EventQueue`](crate::event::EventQueue) for the
/// facade that selects between the two.
#[derive(Debug)]
pub struct WheelQueue<E> {
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// Head/tail of each slot list; index `LEVELS * SLOTS` is the
    /// overflow list. Allocated once and retained across [`clear`].
    ///
    /// [`clear`]: Self::clear
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Pending events (all levels + overflow).
    len: usize,
    /// Exact earliest pending timestamp; `None` when empty. Kept eagerly
    /// so `peek_time`/`is_empty` stay pure `&self` reads.
    cached_next: Option<Cycles>,
    /// Earliest timestamp in the overflow list; `None` when it is empty.
    overflow_min: Option<Cycles>,
    now: Cycles,
    popped: u64,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// An empty wheel at time zero.
    pub fn new() -> Self {
        WheelQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS + 1],
            tails: vec![NIL; LEVELS * SLOTS + 1],
            occ: [[0; WORDS]; LEVELS],
            len: 0,
            cached_next: None,
            overflow_min: None,
            now: 0,
            popped: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events popped so far (cancelled events excluded).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Return to the power-on state, retaining the node storage and the
    /// (fixed-size) slot arrays so pooled trials stay allocation-free.
    /// Generations restart with the node table, so a cleared wheel mints
    /// the same [`EventId`]s as a fresh one.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.heads.fill(NIL);
        self.tails.fill(NIL);
        self.occ = [[0; WORDS]; LEVELS];
        self.len = 0;
        self.cached_next = None;
        self.overflow_min = None;
        self.now = 0;
        self.popped = 0;
    }

    /// Node-table capacity currently reserved (diagnostics for the pooled
    /// allocation-free guarantee).
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Schedule `payload` at absolute time `at`. Panics if `at` is in the
    /// past (same contract, same message, as the heap backend).
    pub fn schedule(&mut self, at: Cycles, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        // Identical slot allocation discipline to the heap backend (LIFO
        // free list, then fresh growth): identical call sequences on the
        // two backends mint identical EventIds.
        let idx = match self.free.pop() {
            Some(i) => {
                let n = &mut self.nodes[i as usize];
                debug_assert!(n.payload.is_none());
                n.payload = Some(payload);
                n.time = at;
                i
            }
            None => {
                assert!(self.nodes.len() < u32::MAX as usize, "event slot overflow");
                self.nodes.push(Node {
                    gen: 0,
                    next: NIL,
                    prev: NIL,
                    home: NIL,
                    time: at,
                    payload: Some(payload),
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.link(idx);
        self.len += 1;
        if self.cached_next.is_none_or(|n| at < n) {
            self.cached_next = Some(at);
        }
        EventId::new(idx, self.nodes[idx as usize].gen)
    }

    /// Schedule `payload` after a relative delay.
    pub fn schedule_in(&mut self, delay: Cycles, payload: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule(at, payload)
    }

    /// Cancel a previously scheduled event: O(1) unlink from its slot
    /// list (the wheel's edge over the heap's O(log n) excision), plus a
    /// min recomputation only when the cancelled event was the earliest.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let s = id.slot() as usize;
        if s >= self.nodes.len() {
            return false;
        }
        if self.nodes[s].gen != id.gen() || self.nodes[s].payload.is_none() {
            return false;
        }
        let at = self.nodes[s].time;
        let was_overflow = self.nodes[s].home == OVERFLOW;
        self.unlink(s as u32);
        self.retire(s);
        self.len -= 1;
        if was_overflow && self.overflow_min == Some(at) {
            self.overflow_min = self.scan_overflow_min();
        }
        if self.cached_next == Some(at) {
            self.cached_next = self.recompute_next();
        }
        true
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, EventId, E)> {
        let t = self.cached_next?;
        self.advance_clock(t);
        let home = level0_home(t);
        let i = self.heads[home];
        debug_assert_ne!(i, NIL, "cached_next points at an empty slot");
        self.unlink(i);
        debug_assert_eq!(self.nodes[i as usize].time, t);
        let id = EventId::new(i, self.nodes[i as usize].gen);
        let payload = self
            .retire(i as usize)
            .expect("pending node without payload");
        self.len -= 1;
        self.popped += 1;
        if self.heads[home] == NIL {
            self.cached_next = self.recompute_next();
        }
        Some((t, id, payload))
    }

    /// Drain every event at the next pending instant into `sink`, in
    /// insertion order: one whole level-0 slot list, unlinked wholesale.
    /// Returns the number drained (0 when empty).
    pub fn pop_batch(&mut self, mut sink: impl FnMut(Cycles, EventId, E)) -> usize {
        let Some(t) = self.cached_next else {
            return 0;
        };
        self.advance_clock(t);
        let home = level0_home(t);
        let mut i = self.heads[home];
        debug_assert_ne!(i, NIL, "cached_next points at an empty slot");
        self.heads[home] = NIL;
        self.tails[home] = NIL;
        let slot = home; // level 0: home index == slot index
        self.occ[0][slot / 64] &= !(1u64 << (slot % 64));
        let mut n = 0;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            debug_assert_eq!(self.nodes[i as usize].time, t);
            self.nodes[i as usize].home = NIL;
            let id = EventId::new(i, self.nodes[i as usize].gen);
            let payload = self
                .retire(i as usize)
                .expect("pending node without payload");
            sink(t, id, payload);
            n += 1;
            i = next;
        }
        self.len -= n;
        self.popped += n as u64;
        self.cached_next = self.recompute_next();
        n
    }

    /// Timestamp of the next event without popping it (exact, `&self`).
    pub fn peek_time(&self) -> Option<Cycles> {
        self.cached_next
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Advance the clock to `t` without popping an event, cascading any
    /// wheel slots the advance crosses. Panics if `t` is in the past; the
    /// caller must not advance past a pending event (same contract as the
    /// heap, where violating it trips the pop-order debug assertion).
    pub fn advance_to(&mut self, t: Cycles) {
        assert!(
            t >= self.now,
            "clock moved backwards: to={} now={}",
            t,
            self.now
        );
        self.advance_clock(t);
    }

    /// Record `n` events processed by an out-of-queue event source.
    pub fn note_external_events(&mut self, n: u64) {
        self.popped += n;
    }

    /// Un-count `n` events (batch consumers account at consume time).
    pub fn forget_events(&mut self, n: u64) {
        debug_assert!(self.popped >= n, "forgetting more events than popped");
        self.popped -= n;
    }

    /// Number of pending events (levels plus overflow; no tombstones).
    pub fn backlog(&self) -> usize {
        self.len
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The list an event at `at` belongs on, relative to the current
    /// clock: the lowest level whose span covers `at`, or overflow beyond
    /// the horizon. Computed from the highest bit where `at` differs from
    /// `now` — one xor and a leading-zeros count.
    fn home_of(&self, at: Cycles) -> u32 {
        let diff = at ^ self.now;
        if diff >> HORIZON_BITS != 0 {
            return OVERFLOW;
        }
        let lvl = (63 - (diff | 1).leading_zeros()) / BITS;
        let slot = ((at >> (BITS * lvl)) as usize) & (SLOTS - 1);
        lvl * SLOTS as u32 + slot as u32
    }

    /// Append node `i` at the tail of the list its timestamp belongs on.
    /// Tail append is what keeps every slot list in insertion order.
    fn link(&mut self, i: u32) {
        let at = self.nodes[i as usize].time;
        let home = self.home_of(at);
        let tail = self.tails[home as usize];
        {
            let n = &mut self.nodes[i as usize];
            n.home = home;
            n.prev = tail;
            n.next = NIL;
        }
        if tail == NIL {
            self.heads[home as usize] = i;
        } else {
            self.nodes[tail as usize].next = i;
        }
        self.tails[home as usize] = i;
        if home == OVERFLOW {
            if self.overflow_min.is_none_or(|m| at < m) {
                self.overflow_min = Some(at);
            }
        } else {
            let (lvl, slot) = (home as usize / SLOTS, home as usize % SLOTS);
            self.occ[lvl][slot / 64] |= 1u64 << (slot % 64);
        }
    }

    /// Unlink node `i` from its list in O(1), clearing the occupancy bit
    /// when the slot empties. Does not retire the node.
    fn unlink(&mut self, i: u32) {
        let (home, prev, next) = {
            let n = &self.nodes[i as usize];
            (n.home, n.prev, n.next)
        };
        debug_assert_ne!(home, NIL, "unlinking a node that is not pending");
        if prev == NIL {
            self.heads[home as usize] = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tails[home as usize] = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.nodes[i as usize].home = NIL;
        if home != OVERFLOW && self.heads[home as usize] == NIL {
            let (lvl, slot) = (home as usize / SLOTS, home as usize % SLOTS);
            self.occ[lvl][slot / 64] &= !(1u64 << (slot % 64));
        }
    }

    /// Bump the node's generation, free it, and take its payload —
    /// identical retirement discipline to the heap backend.
    fn retire(&mut self, i: usize) -> Option<E> {
        let n = &mut self.nodes[i];
        n.gen = n.gen.wrapping_add(1);
        let payload = n.payload.take();
        self.free.push(i as u32);
        payload
    }

    /// Move the clock to `t`, cascading crossed slots so that any event at
    /// `t` sits in level 0 afterwards. Caller guarantees `t >= now` and
    /// `t <=` every pending timestamp (debug-asserted in the cascades).
    fn advance_clock(&mut self, t: Cycles) {
        let old = self.now;
        if t == old {
            return;
        }
        self.now = t;
        if (t >> HORIZON_BITS) != (old >> HORIZON_BITS) && self.overflow_min.is_some() {
            self.drain_overflow();
        }
        // Top-down, so each cascaded event settles in one hop: by the time
        // level L's slot re-places, levels above it already agree with `t`.
        for lvl in (1..LEVELS).rev() {
            let shift = BITS * lvl as u32;
            if (t >> shift) != (old >> shift) {
                let slot = ((t >> shift) as usize) & (SLOTS - 1);
                self.cascade(lvl, slot);
            }
        }
    }

    /// Re-place every event in `(lvl, slot)` relative to the (already
    /// advanced) clock. Stable: traverses head-to-tail, appends at the
    /// destination tails, so relative insertion order is preserved.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let home = lvl * SLOTS + slot;
        let mut i = self.heads[home];
        if i == NIL {
            return;
        }
        self.heads[home] = NIL;
        self.tails[home] = NIL;
        self.occ[lvl][slot / 64] &= !(1u64 << (slot % 64));
        while i != NIL {
            let next = self.nodes[i as usize].next;
            debug_assert!(
                self.nodes[i as usize].time >= self.now,
                "clock advanced past a pending event"
            );
            self.link(i);
            i = next;
        }
    }

    /// On a horizon crossing, re-place every overflow entry: those whose
    /// epoch arrived land in the wheels, the rest re-enter the overflow
    /// list — in order either way (the traversal is stable).
    fn drain_overflow(&mut self) {
        let mut i = self.heads[OVERFLOW as usize];
        self.heads[OVERFLOW as usize] = NIL;
        self.tails[OVERFLOW as usize] = NIL;
        self.overflow_min = None;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            debug_assert!(
                self.nodes[i as usize].time >= self.now,
                "clock advanced past an overflow event"
            );
            self.link(i);
            i = next;
        }
    }

    /// Exact earliest pending timestamp, recomputed from the bitmaps: the
    /// first occupied slot on the lowest non-empty level bounds the
    /// minimum (level spans nest, so lower levels always hold earlier
    /// events), and the true minimum is the smallest time in that slot's
    /// list. Falls back to the overflow minimum when the wheels are empty.
    fn recompute_next(&self) -> Option<Cycles> {
        for lvl in 0..LEVELS {
            for (w, &word) in self.occ[lvl].iter().enumerate() {
                if word != 0 {
                    let slot = w * 64 + word.trailing_zeros() as usize;
                    let mut i = self.heads[lvl * SLOTS + slot];
                    debug_assert_ne!(i, NIL, "occupancy bit set on an empty slot");
                    let mut best = self.nodes[i as usize].time;
                    i = self.nodes[i as usize].next;
                    while i != NIL {
                        let n = &self.nodes[i as usize];
                        if n.time < best {
                            best = n.time;
                        }
                        i = n.next;
                    }
                    return Some(best);
                }
            }
        }
        self.overflow_min
    }

    /// Minimum timestamp on the overflow list (cancel of the previous
    /// minimum pays this scan; overflow traffic is rare by construction).
    fn scan_overflow_min(&self) -> Option<Cycles> {
        let mut best: Option<Cycles> = None;
        let mut i = self.heads[OVERFLOW as usize];
        while i != NIL {
            let n = &self.nodes[i as usize];
            if best.is_none_or(|b| n.time < b) {
                best = Some(n.time);
            }
            i = n.next;
        }
        best
    }

    /// Exhaustive structural check, used by the unit and property tests.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        let mut seen = 0usize;
        let mut brute_min: Option<Cycles> = None;
        let mut overflow_brute: Option<Cycles> = None;
        for home in 0..(LEVELS * SLOTS + 1) {
            let mut i = self.heads[home];
            let mut prev = NIL;
            while i != NIL {
                let n = &self.nodes[i as usize];
                assert_eq!(n.home as usize, home, "node {i} home out of sync");
                assert_eq!(n.prev, prev, "node {i} prev link broken");
                assert!(n.payload.is_some(), "pending node {i} without payload");
                assert!(n.time >= self.now, "pending node {i} behind the clock");
                assert_eq!(
                    self.home_of(n.time) as usize,
                    home,
                    "node {i} (t={}) mis-placed at now={}",
                    n.time,
                    self.now
                );
                if brute_min.is_none_or(|b| n.time < b) {
                    brute_min = Some(n.time);
                }
                if home == OVERFLOW as usize && overflow_brute.is_none_or(|b| n.time < b) {
                    overflow_brute = Some(n.time);
                }
                seen += 1;
                prev = i;
                i = n.next;
            }
            assert_eq!(self.tails[home], prev, "tail of list {home} out of sync");
            if home < LEVELS * SLOTS {
                let (lvl, slot) = (home / SLOTS, home % SLOTS);
                let bit = self.occ[lvl][slot / 64] >> (slot % 64) & 1;
                assert_eq!(bit == 1, self.heads[home] != NIL, "occ bit wrong at {home}");
            }
        }
        assert_eq!(seen, self.len, "len out of sync with list contents");
        assert_eq!(self.cached_next, brute_min, "cached_next is not the min");
        assert_eq!(self.overflow_min, overflow_brute, "overflow_min stale");
        assert_eq!(
            seen + self.free.len(),
            self.nodes.len(),
            "node leak: pending + free != allocated"
        );
    }
}

/// List index of the level-0 slot for instant `t`.
#[inline]
fn level0_home(t: Cycles) -> usize {
    (t as usize) & (SLOTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut WheelQueue<u64>) -> Vec<(Cycles, u64)> {
        let mut out = Vec::new();
        while let Some((t, _, p)) = q.pop() {
            out.push((t, p));
            q.assert_invariants();
        }
        out
    }

    #[test]
    fn pops_across_levels_in_time_order() {
        let mut q = WheelQueue::new();
        // One event per level span, plus overflow.
        for (i, t) in [3u64, 700, 70_000, 20_000_000, 1 << 33].iter().enumerate() {
            q.schedule(*t, i as u64);
            q.assert_invariants();
        }
        let got = drain(&mut q);
        assert_eq!(
            got,
            vec![(3, 0), (700, 1), (70_000, 2), (20_000_000, 3), (1 << 33, 4)]
        );
    }

    #[test]
    fn slot_rollover_boundaries_pop_in_order() {
        // Events straddling every level's rollover boundary: 255/256,
        // 65_535/65_536, 2^24-1 / 2^24, 2^32-1 / 2^32.
        let mut q = WheelQueue::new();
        let mut times = Vec::new();
        for shift in [8u32, 16, 24, 32] {
            let edge = 1u64 << shift;
            for t in [edge - 2, edge - 1, edge, edge + 1] {
                times.push(t);
            }
        }
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i as u64);
            q.assert_invariants();
        }
        let got = drain(&mut q);
        let mut want: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn same_instant_at_a_cascade_boundary_keeps_insertion_order() {
        let mut q = WheelQueue::new();
        // All at one instant that requires a level-2 cascade to reach.
        let t = (5 << 16) + 7;
        for p in 0..10u64 {
            q.schedule(t, p);
        }
        q.assert_invariants();
        let got = drain(&mut q);
        assert_eq!(got, (0..10).map(|p| (t, p)).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_beyond_horizon_waits_in_overflow_and_fires() {
        let mut q = WheelQueue::new();
        let far = (7u64 << 32) + 12_345; // several epochs out
        q.schedule(far, 1);
        q.schedule(10, 0);
        q.assert_invariants();
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((10, 0)));
        q.assert_invariants();
        // The pop of the overflow event jumps epochs and drains it.
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((far, 1)));
        q.assert_invariants();
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entries_for_different_epochs_drain_separately() {
        let mut q = WheelQueue::new();
        let e1 = (1u64 << 32) + 5;
        let e2 = (2u64 << 32) + 9;
        let e3 = (2u64 << 32) + 9; // same instant as e2, later insertion
        q.schedule(e2, 2);
        q.schedule(e1, 1);
        q.schedule(e3, 3);
        q.assert_invariants();
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((e1, 1)));
        q.assert_invariants();
        // e2/e3 survived one drain (wrong epoch) in insertion order.
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((e2, 2)));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((e3, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn reinsert_after_advance_past_a_cascaded_slot() {
        let mut q = WheelQueue::new();
        q.schedule(70_000, 0); // level 2
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((70_000, 0)));
        // The clock sits mid-window of a slot that has already cascaded;
        // re-inserting into that window must land at level 0 and fire.
        q.schedule(70_001, 1);
        q.schedule(70_000, 2); // at == now exactly
        q.assert_invariants();
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((70_000, 2)));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((70_001, 1)));
    }

    #[test]
    fn cycles_near_max_schedule_and_fire() {
        let mut q = WheelQueue::new();
        q.schedule(Cycles::MAX, 2);
        q.schedule(Cycles::MAX - 1, 1);
        q.schedule(5, 0);
        q.assert_invariants();
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((5, 0)));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((Cycles::MAX - 1, 1)));
        q.assert_invariants();
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((Cycles::MAX, 2)));
        assert!(q.is_empty());
        assert_eq!(q.now(), Cycles::MAX);
    }

    #[test]
    fn cancel_during_pending_cascade_state() {
        let mut q = WheelQueue::new();
        // Three same-instant events at a higher level; cancel the middle
        // one before the cascade, then pop across the boundary.
        let t = 1 << 20;
        let _a = q.schedule(t, 0);
        let b = q.schedule(t, 1);
        let _c = q.schedule(t, 2);
        assert!(q.cancel(b));
        q.assert_invariants();
        assert_eq!(q.pop().map(|(x, _, p)| (x, p)), Some((t, 0)));
        assert_eq!(q.pop().map(|(x, _, p)| (x, p)), Some((t, 2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_overflow_min_rescans() {
        let mut q = WheelQueue::new();
        let a = q.schedule((1u64 << 32) + 10, 0);
        q.schedule((1u64 << 32) + 20, 1);
        assert_eq!(q.peek_time(), Some((1 << 32) + 10));
        assert!(q.cancel(a));
        q.assert_invariants();
        assert_eq!(q.peek_time(), Some((1 << 32) + 20));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some(((1 << 32) + 20, 1)));
    }

    #[test]
    fn advance_to_mid_window_then_pop() {
        let mut q = WheelQueue::new();
        q.schedule(100_000, 7);
        // Advance to just before the event: crosses level boundaries and
        // cascades its slot without consuming it.
        q.advance_to(99_999);
        q.assert_invariants();
        assert_eq!(q.peek_time(), Some(100_000));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((100_000, 7)));
    }

    #[test]
    fn deterministic_stress_against_ordering() {
        // Random churn with invariants checked at every step; the
        // cross-backend equivalence lives in tests/wheel_vs_heap.rs.
        let mut q: WheelQueue<u64> = WheelQueue::new();
        let mut live: Vec<EventId> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..3000u64 {
            match next(5) {
                0 | 1 => {
                    // Mixed magnitudes: level 0 through overflow.
                    let mag = [1u64 << 7, 1 << 12, 1 << 20, 1 << 28, 1 << 34][next(5) as usize];
                    let at = q.now() + next(mag);
                    live.push(q.schedule(at, step));
                }
                2 => {
                    if !live.is_empty() {
                        let i = next(live.len() as u64) as usize;
                        let id = live.swap_remove(i);
                        q.cancel(id);
                    }
                }
                3 => {
                    if let Some(t) = q.peek_time() {
                        if t > q.now() {
                            q.advance_to(q.now() + next(t - q.now()));
                        }
                    }
                }
                _ => {
                    if let Some((_, id, _)) = q.pop() {
                        live.retain(|x| *x != id);
                    }
                }
            }
            q.assert_invariants();
        }
        let mut last = q.now();
        while let Some((t, _, _)) = q.pop() {
            assert!(t >= last, "pop went back in time");
            last = t;
        }
        assert!(q.is_empty());
        assert_eq!(q.backlog(), 0);
    }
}

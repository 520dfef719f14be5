//! Cancellable, deterministically ordered event queue.
//!
//! [`EventQueue`] is a thin facade over two interchangeable backends:
//!
//! * [`HeapQueue`] — an index-tracked binary min-heap keyed on
//!   `(time, sequence)`. O(log n) schedule/cancel/pop, and the cheaper of
//!   the two while the standing backlog is a handful of events: a pop is
//!   a couple of 24-byte swaps where the wheel scans slots between sparse
//!   events.
//! * [`WheelQueue`] — a hierarchical timing
//!   wheel (Linux-kernel style) with O(1) schedule and cancel and an
//!   amortized-O(1) cascade on pop, which wins once the backlog grows; see
//!   `crate::wheel` for the layout and the ordering proof.
//!
//! Neither is a user option. The standing backlog of a machine simulation
//! scales with the number of CPUs feeding the queue, so the queue picks its
//! backend from that width: [`EventQueue::for_width`] builds the heap up
//! to `HEAP_MAX_WIDTH` CPUs (the paper's 2–3-CPU single-probe rigs) and
//! the wheel for anything wider; [`EventQueue::new`] is the wide case.
//!
//! Both backends observe identical semantics, bit for bit: two events
//! scheduled for the same instant fire in insertion order, cancellation is
//! *true removal* (no tombstones; `peek_time`/`is_empty` are pure `&self`
//! reads), and the [`EventId`]s handed out for an identical call sequence
//! are identical because both share the same LIFO slot free-list scheme.
//! The differential property test `tests/wheel_vs_heap.rs` churns both
//! backends through random schedule/cancel/advance/pop traffic and asserts
//! the streams match, ids included.
//!
//! Slots are reused through a free list; an [`EventId`] packs the slot index
//! with a per-slot generation so a stale id (already fired or already
//! cancelled) can never alias a later event in the same slot.

use crate::time::Cycles;
use crate::wheel::WheelQueue;

/// Identifier of a scheduled event, usable to cancel it later.
///
/// Packs a slot index (high 32 bits) and that slot's generation at schedule
/// time (low 32 bits). Ids are unique across the life of the queue up to
/// 2^32 reuses of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// The raw packed value. Exposed for trace output only.
    pub fn raw(&self) -> u64 {
        self.0
    }

    pub(crate) fn new(slot: u32, gen: u32) -> Self {
        EventId((slot as u64) << 32 | gen as u64)
    }

    pub(crate) fn slot(&self) -> u32 {
        (self.0 >> 32) as u32
    }

    pub(crate) fn gen(&self) -> u32 {
        self.0 as u32
    }
}

/// Widest machine whose [`EventQueue`] runs on the heap. Measured end to
/// end on the `benchmark/` workloads (events/s, heap everywhere vs wheel
/// everywhere; DESIGN.md §6d): 2-CPU `small_trials` 10.16 M vs 8.47 M,
/// 64-CPU `paper_repro` 6.50 M vs 7.10 M, 1024-CPU `storm_1024` 4.43 M vs
/// 5.53 M.
/// The crossover sits between the paper's single-probe rigs (2–3 CPUs, a
/// standing backlog of about one event) and its gang nodes (8 CPUs and
/// up); no experiment runs a width in between, so the boundary is the
/// power of two that separates them.
const HEAP_MAX_WIDTH: usize = 4;

/// Per-event bookkeeping. `payload` is `Some` exactly while the event is
/// pending; `pos` is its current index in `heap` during that window.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    pos: usize,
    payload: Option<E>,
}

/// POD heap entry: ordering key plus the owning slot. Payloads stay in the
/// slot table so sift swaps move 24 bytes regardless of `E`.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: Cycles,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (Cycles, u64) {
        (self.time, self.seq)
    }
}

/// The narrow-machine future-event list: an index-tracked binary min-heap.
///
/// Cancellation is *true removal*: every scheduled event owns a slot that
/// records its current heap position, kept up to date through sift swaps, so
/// `cancel` excises the entry in O(log n) with no tombstones left behind.
/// Compared with the earlier lazy scheme (a `cancelled: HashSet` consulted
/// on every pop and peek) this keeps the heap at its live size under
/// re-programming storms, makes `peek_time`/`is_empty` pure `&self` reads,
/// and removes a hash lookup from the hot pop path.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: Cycles,
    popped: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        HeapQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: 0,
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event (or
    /// the last [`advance_to`](Self::advance_to) target, whichever is later).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events popped so far (cancelled events excluded).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Return the queue to its power-on state — empty, clock at zero,
    /// sequence counter restarted — while keeping the backing allocations
    /// (`Vec::clear` preserves capacity, so pooled trials stay
    /// allocation-free). A cleared queue is indistinguishable from a fresh
    /// one (pending ids, slot generations, and tie-break order all
    /// restart), which is what trial pooling relies on for byte-identical
    /// reruns.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.next_seq = 0;
        self.now = 0;
        self.popped = 0;
    }

    /// Slot-table capacity currently reserved (diagnostics for the pooled
    /// allocation-free guarantee).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Panics if `at` is in the past: the simulation layers above never
    /// schedule retroactive events, so this is always a logic error worth
    /// failing loudly on.
    pub fn schedule(&mut self, at: Cycles, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                debug_assert!(slot.payload.is_none());
                slot.payload = Some(payload);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slot overflow");
                self.slots.push(Slot {
                    gen: 0,
                    pos: 0,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        self.heap.push(HeapEntry {
            time: at,
            seq,
            slot,
        });
        self.slots[slot as usize].pos = pos;
        self.sift_up(pos);
        EventId::new(slot, self.slots[slot as usize].gen)
    }

    /// Schedule `payload` after a relative delay.
    pub fn schedule_in(&mut self, delay: Cycles, payload: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule(at, payload)
    }

    /// Cancel a previously scheduled event, removing it from the queue
    /// outright. Returns `true` if the event was pending (and is now gone);
    /// `false` if it had already fired or been cancelled — stale ids are
    /// harmless because the slot generation no longer matches.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let s = id.slot() as usize;
        if s >= self.slots.len() {
            return false;
        }
        if self.slots[s].gen != id.gen() || self.slots[s].payload.is_none() {
            return false;
        }
        let pos = self.slots[s].pos;
        self.remove_at(pos);
        self.retire_slot(s);
        true
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, EventId, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap[0];
        self.remove_at(0);
        let s = entry.slot as usize;
        let id = EventId::new(entry.slot, self.slots[s].gen);
        let payload = self.retire_slot(s).expect("heap entry without payload");
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, id, payload))
    }

    /// Drain *every* event at the next pending instant, in insertion
    /// order, into `sink`. Equivalent to popping while `peek_time` equals
    /// the head timestamp; returns the number drained (0 when empty).
    pub fn pop_batch(&mut self, mut sink: impl FnMut(Cycles, EventId, E)) -> usize {
        let Some((t, id, payload)) = self.pop() else {
            return 0;
        };
        sink(t, id, payload);
        let mut n = 1;
        while self.peek_time() == Some(t) {
            let (_, id, payload) = self.pop().expect("peeked event vanished");
            sink(t, id, payload);
            n += 1;
        }
        n
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.first().map(|e| e.time)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Advance the clock to `t` without popping an event. Used by simulation
    /// layers that interleave out-of-heap event sources (per-CPU timer
    /// slots) with the queue. Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: Cycles) {
        assert!(
            t >= self.now,
            "clock moved backwards: to={} now={}",
            t,
            self.now
        );
        self.now = t;
    }

    /// Record `n` events processed by an out-of-heap event source, so
    /// whole-simulation throughput accounting stays honest.
    pub fn note_external_events(&mut self, n: u64) {
        self.popped += n;
    }

    /// Un-count `n` events: the inverse of
    /// [`note_external_events`](Self::note_external_events), used by batch
    /// consumers that drain events eagerly and account for them only when
    /// actually consumed (a drained event can still be cancelled before its
    /// handler runs).
    pub fn forget_events(&mut self, n: u64) {
        debug_assert!(self.popped >= n, "forgetting more events than popped");
        self.popped -= n;
    }

    /// Number of pending events. With true-removal cancellation this is the
    /// live count — there are no tombstones to exclude.
    pub fn backlog(&self) -> usize {
        self.heap.len()
    }

    /// Bump the slot's generation, free it, and take its payload.
    fn retire_slot(&mut self, s: usize) -> Option<E> {
        let slot = &mut self.slots[s];
        slot.gen = slot.gen.wrapping_add(1);
        let payload = slot.payload.take();
        self.free.push(s as u32);
        payload
    }

    /// Remove the heap entry at `pos`, restoring the heap property.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos != last {
            self.heap.swap(pos, last);
            self.slots[self.heap[pos].slot as usize].pos = pos;
        }
        self.heap.pop();
        if pos < self.heap.len() {
            // The transplanted entry may violate the heap property in
            // either direction relative to its new neighborhood.
            let moved = self.sift_down(pos);
            if !moved {
                self.sift_up(pos);
            }
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[pos].key() >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(pos, parent);
            self.slots[self.heap[pos].slot as usize].pos = pos;
            self.slots[self.heap[parent].slot as usize].pos = parent;
            pos = parent;
        }
    }

    /// Returns whether the entry moved.
    fn sift_down(&mut self, mut pos: usize) -> bool {
        let start = pos;
        let n = self.heap.len();
        loop {
            let l = 2 * pos + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r].key() < self.heap[l].key() {
                r
            } else {
                l
            };
            if self.heap[child].key() >= self.heap[pos].key() {
                break;
            }
            self.heap.swap(pos, child);
            self.slots[self.heap[pos].slot as usize].pos = pos;
            self.slots[self.heap[child].slot as usize].pos = child;
            pos = child;
        }
        pos != start
    }

    #[cfg(test)]
    fn assert_invariants(&self) {
        for (i, e) in self.heap.iter().enumerate() {
            let slot = &self.slots[e.slot as usize];
            assert_eq!(slot.pos, i, "slot {} position out of sync", e.slot);
            assert!(slot.payload.is_some(), "heap entry without payload");
            if i > 0 {
                let parent = &self.heap[(i - 1) / 2];
                assert!(parent.key() <= e.key(), "heap property violated at {i}");
            }
        }
        let pending = self.heap.len();
        let free = self.free.len();
        assert_eq!(pending + free, self.slots.len(), "slot leak");
    }
}

/// The backend behind an [`EventQueue`].
#[derive(Debug)]
enum Imp<E> {
    Heap(HeapQueue<E>),
    Wheel(WheelQueue<E>),
}

/// A deterministic future-event list.
///
/// `E` is the event payload type chosen by the simulation layer (the
/// hardware model uses a fixed enum of machine events). The backend is
/// chosen at construction from the machine width; every method dispatches
/// over a two-variant enum, which the branch predictor resolves for free.
#[derive(Debug)]
pub struct EventQueue<E> {
    imp: Imp<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! delegate {
    ($self:ident, $q:ident => $body:expr) => {
        match &$self.imp {
            Imp::Heap($q) => $body,
            Imp::Wheel($q) => $body,
        }
    };
    (mut $self:ident, $q:ident => $body:expr) => {
        match &mut $self.imp {
            Imp::Heap($q) => $body,
            Imp::Wheel($q) => $body,
        }
    };
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero on the wide-machine backend (the
    /// wheel): what every machine wider than `HEAP_MAX_WIDTH` runs.
    pub fn new() -> Self {
        EventQueue {
            imp: Imp::Wheel(WheelQueue::new()),
        }
    }

    /// An empty queue for a machine of `width` CPUs: the heap up to
    /// `HEAP_MAX_WIDTH`, the wheel beyond.
    pub fn for_width(width: usize) -> Self {
        if width <= HEAP_MAX_WIDTH {
            EventQueue {
                imp: Imp::Heap(HeapQueue::new()),
            }
        } else {
            Self::new()
        }
    }

    /// Clear back to the power-on state *for `width` CPUs*: when the
    /// backend that width selects is the current one this is
    /// [`clear`](Self::clear) (allocations kept); otherwise the backend is
    /// rebuilt. Machine reset uses this so a pooled node re-shaped across
    /// the boundary runs what a fresh one would.
    pub fn reset_for_width(&mut self, width: usize) {
        if matches!(self.imp, Imp::Heap(_)) == (width <= HEAP_MAX_WIDTH) {
            self.clear();
        } else {
            *self = Self::for_width(width);
        }
    }

    /// Current simulation time: the timestamp of the last popped event (or
    /// the last [`advance_to`](Self::advance_to) target, whichever is later).
    pub fn now(&self) -> Cycles {
        delegate!(self, q => q.now())
    }

    /// Number of events popped so far (cancelled events excluded).
    pub fn events_processed(&self) -> u64 {
        delegate!(self, q => q.events_processed())
    }

    /// Return the queue to its power-on state, keeping backing allocations;
    /// see [`HeapQueue::clear`].
    pub fn clear(&mut self) {
        delegate!(mut self, q => q.clear())
    }

    /// Backing-store capacity currently reserved (diagnostics for the
    /// pooled allocation-free guarantee).
    pub fn capacity(&self) -> usize {
        delegate!(self, q => q.capacity())
    }

    /// Schedule `payload` at absolute time `at`. Panics if `at` is in the
    /// past.
    pub fn schedule(&mut self, at: Cycles, payload: E) -> EventId {
        delegate!(mut self, q => q.schedule(at, payload))
    }

    /// Schedule `payload` after a relative delay.
    pub fn schedule_in(&mut self, delay: Cycles, payload: E) -> EventId {
        delegate!(mut self, q => q.schedule_in(delay, payload))
    }

    /// Cancel a previously scheduled event; see [`HeapQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        delegate!(mut self, q => q.cancel(id))
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, EventId, E)> {
        delegate!(mut self, q => q.pop())
    }

    /// Drain every event at the next pending instant, in insertion order,
    /// into `sink`; returns the number drained (0 when empty). On the
    /// wheel this unlinks one whole level-0 slot list — the per-event
    /// queue traffic the batch dispatch above amortizes away.
    pub fn pop_batch(&mut self, sink: impl FnMut(Cycles, EventId, E)) -> usize {
        delegate!(mut self, q => q.pop_batch(sink))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        delegate!(self, q => q.peek_time())
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        delegate!(self, q => q.is_empty())
    }

    /// Advance the clock to `t` without popping an event. Panics if `t` is
    /// in the past; must not advance past a pending event.
    pub fn advance_to(&mut self, t: Cycles) {
        delegate!(mut self, q => q.advance_to(t))
    }

    /// Record `n` events processed by an out-of-queue event source.
    pub fn note_external_events(&mut self, n: u64) {
        delegate!(mut self, q => q.note_external_events(n))
    }

    /// Un-count `n` events; see [`HeapQueue::forget_events`].
    pub fn forget_events(&mut self, n: u64) {
        delegate!(mut self, q => q.forget_events(n))
    }

    /// Number of pending events (no tombstones on either backend).
    pub fn backlog(&self) -> usize {
        delegate!(self, q => q.backlog())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widest heap-backed queue.
    fn heap<E>() -> EventQueue<E> {
        EventQueue::for_width(HEAP_MAX_WIDTH)
    }

    /// The narrowest wheel-backed queue.
    fn wheel<E>() -> EventQueue<E> {
        EventQueue::for_width(HEAP_MAX_WIDTH + 1)
    }

    /// Run a behavioral check against both backends.
    fn both(f: impl Fn(EventQueue<&'static str>)) {
        f(heap());
        f(wheel());
    }

    #[test]
    fn width_selects_the_backend() {
        assert!(matches!(heap::<()>().imp, Imp::Heap(_)));
        assert!(matches!(EventQueue::<()>::for_width(1).imp, Imp::Heap(_)));
        assert!(matches!(wheel::<()>().imp, Imp::Wheel(_)));
        assert!(matches!(EventQueue::<()>::new().imp, Imp::Wheel(_)));
        // A reset across the boundary rebuilds; within a side it clears.
        let mut q = wheel::<u32>();
        q.schedule(3, 1);
        q.reset_for_width(HEAP_MAX_WIDTH);
        assert!(matches!(q.imp, Imp::Heap(_)));
        assert!(q.is_empty());
        q.reset_for_width(1);
        assert!(matches!(q.imp, Imp::Heap(_)));
        q.reset_for_width(1024);
        assert!(matches!(q.imp, Imp::Wheel(_)));
    }

    #[test]
    fn pops_in_time_order() {
        both(|mut q| {
            q.schedule(30, "c");
            q.schedule(10, "a");
            q.schedule(20, "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        both(|mut q| {
            q.schedule(5, "1");
            q.schedule(5, "2");
            q.schedule(5, "3");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
            assert_eq!(order, vec!["1", "2", "3"]);
        });
    }

    #[test]
    fn clock_advances_with_pops() {
        both(|mut q| {
            q.schedule(7, "a");
            q.schedule(9, "b");
            assert_eq!(q.now(), 0);
            q.pop();
            assert_eq!(q.now(), 7);
            q.pop();
            assert_eq!(q.now(), 9);
        });
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        both(|mut q| {
            let a = q.schedule(1, "a");
            q.schedule(2, "b");
            assert!(q.cancel(a));
            let (_, _, p) = q.pop().unwrap();
            assert_eq!(p, "b");
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        both(|mut q| {
            let a = q.schedule(1, "first");
            q.pop();
            // The id was consumed; cancelling it must report dead and not
            // poison a future event reusing the same slot.
            assert!(!q.cancel(a));
            let b = q.schedule(2, "live");
            assert_ne!(a, b);
            assert!(!q.cancel(a));
            assert_eq!(q.pop().unwrap().2, "live");
        });
    }

    #[test]
    fn double_cancel_reports_dead() {
        both(|mut q| {
            let a = q.schedule(1, "a");
            assert!(q.cancel(a));
            assert!(!q.cancel(a));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn stale_id_does_not_alias_slot_reuse() {
        both(|mut q| {
            let a = q.schedule(1, "a");
            assert!(q.cancel(a));
            // The slot is reused for a different event; the stale id must
            // not be able to cancel it.
            let b = q.schedule(2, "b");
            assert!(!q.cancel(a));
            assert_eq!(q.peek_time(), Some(2));
            assert!(q.cancel(b));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_removes_immediately() {
        both(|mut q| {
            let ids: Vec<_> = (0..10).map(|t| q.schedule(t, "x")).collect();
            assert_eq!(q.backlog(), 10);
            for id in &ids {
                q.cancel(*id);
            }
            // True removal: no tombstones linger in either backend.
            assert_eq!(q.backlog(), 0);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn peek_skips_cancelled_head() {
        both(|mut q| {
            let a = q.schedule(1, "a");
            q.schedule(5, "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(5));
        });
    }

    #[test]
    #[should_panic]
    fn heap_scheduling_in_the_past_panics() {
        let mut q = heap();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    #[should_panic]
    fn wheel_scheduling_in_the_past_panics() {
        let mut q = wheel();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        both(|mut q| {
            q.schedule(100, "first");
            q.pop();
            q.schedule_in(50, "second");
            let (t, _, _) = q.pop().unwrap();
            assert_eq!(t, 150);
        });
    }

    #[test]
    fn events_processed_counts_live_only() {
        both(|mut q| {
            let a = q.schedule(1, "a");
            q.schedule(2, "b");
            q.cancel(a);
            while q.pop().is_some() {}
            assert_eq!(q.events_processed(), 1);
        });
    }

    #[test]
    fn advance_to_moves_clock_without_pop() {
        for mut q in [heap::<()>(), wheel()] {
            q.advance_to(500);
            assert_eq!(q.now(), 500);
            assert_eq!(q.events_processed(), 0);
            q.note_external_events(3);
            assert_eq!(q.events_processed(), 3);
            q.forget_events(2);
            assert_eq!(q.events_processed(), 1);
        }
    }

    #[test]
    #[should_panic]
    fn heap_advance_to_rejects_the_past() {
        let mut q = heap::<()>();
        q.schedule(10, ());
        q.pop();
        q.advance_to(5);
    }

    #[test]
    #[should_panic]
    fn wheel_advance_to_rejects_the_past() {
        let mut q = wheel::<()>();
        q.schedule(10, ());
        q.pop();
        q.advance_to(5);
    }

    #[test]
    fn pop_batch_drains_one_instant() {
        both(|mut q| {
            q.schedule(5, "a");
            q.schedule(5, "b");
            q.schedule(9, "c");
            q.schedule(5, "d");
            let mut got = Vec::new();
            let n = q.pop_batch(|t, _, p| got.push((t, p)));
            assert_eq!(n, 3);
            assert_eq!(got, vec![(5, "a"), (5, "b"), (5, "d")]);
            assert_eq!(q.now(), 5);
            assert_eq!(q.peek_time(), Some(9));
            got.clear();
            assert_eq!(q.pop_batch(|t, _, p| got.push((t, p))), 1);
            assert_eq!(got, vec![(9, "c")]);
            assert_eq!(q.pop_batch(|_, _, _| {}), 0);
            assert_eq!(q.events_processed(), 4);
        });
    }

    #[test]
    fn pop_batch_allows_reschedule_at_same_instant() {
        both(|mut q| {
            q.schedule(5, "a");
            let n = q.pop_batch(|_, _, _| {});
            assert_eq!(n, 1);
            // A handler may schedule more work at the instant just drained;
            // it forms the next batch, after everything already drained.
            q.schedule(5, "late");
            let mut got = Vec::new();
            assert_eq!(q.pop_batch(|t, _, p| got.push((t, p))), 1);
            assert_eq!(got, vec![(5, "late")]);
        });
    }

    #[test]
    fn clear_retains_backing_capacity() {
        for width in [HEAP_MAX_WIDTH, HEAP_MAX_WIDTH + 1] {
            let mut q = EventQueue::for_width(width);
            let ids: Vec<_> = (0..10_000u64).map(|t| q.schedule(t, t)).collect();
            for id in ids.iter().step_by(3) {
                q.cancel(*id);
            }
            let cap = q.capacity();
            assert!(cap >= 10_000);
            q.clear();
            // The power-on state keeps the slot storage: pooled trials
            // (Node::reset) must not re-allocate queue memory.
            assert_eq!(q.capacity(), cap, "width {width}: clear dropped capacity");
            assert!(q.is_empty());
            assert_eq!(q.now(), 0);
            assert_eq!(q.events_processed(), 0);
            // And a cleared queue restarts id assignment from scratch.
            let fresh = EventQueue::for_width(width).schedule(7, 0u64);
            assert_eq!(q.schedule(7, 0u64), fresh);
        }
    }

    #[test]
    fn interleaved_schedule_cancel_pop_keeps_heap_consistent() {
        // Deterministic stress: a mix of schedules, targeted cancels, and
        // pops, with the internal invariants checked after every step.
        let mut q = HeapQueue::new();
        let mut live: Vec<EventId> = Vec::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..2000u64 {
            match next(4) {
                0 | 1 => {
                    let at = q.now() + next(100);
                    live.push(q.schedule(at, step));
                }
                2 => {
                    if !live.is_empty() {
                        let i = next(live.len() as u64) as usize;
                        let id = live.swap_remove(i);
                        q.cancel(id);
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
        // Drain; everything left must pop in nondecreasing time order.
        let mut last = q.now();
        while let Some((t, _, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            q.assert_invariants();
        }
        assert!(q.is_empty());
        assert_eq!(q.backlog(), 0);
    }
}

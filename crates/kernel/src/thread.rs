//! The node-wide thread table.
//!
//! Nautilus threads are kernel threads with a compile-time bound on the
//! total count (§3.3: "the maximum number of threads in the whole system
//! is determined at compile time"). The table here mirrors that: a slab
//! whose storage is reserved for the whole bound once, at construction,
//! and never reallocated. Slots are handed out lazily — a reaped slot
//! first (thread reaping / reanimation, the paper's thread-pool
//! maintenance), else the next never-used one while the bound allows — so
//! resetting the table costs the slots the last run touched, not the bound.

use crate::program::{Program, ThreadId};
use nautix_hw::CpuId;

/// Default system-wide thread bound, like Nautilus's compile-time maximum.
pub const MAX_THREADS: usize = 1024;

/// Life-cycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, queued on some local scheduler.
    Ready,
    /// Currently on a CPU.
    Running,
    /// Blocked.
    Waiting(WaitKind),
    /// Exited; slot awaiting reap.
    Exited,
}

/// Why a thread is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// In a sleep until a wall-clock instant.
    Sleep,
    /// Spinning in a barrier.
    Barrier,
    /// Inside a blocking group operation (election, reduction, ...).
    Group,
    /// Waiting for work (task-exec or interrupt thread).
    Idle,
}

/// A kernel thread.
pub struct Thread {
    /// Debug name.
    pub name: String,
    /// The CPU this thread currently runs on.
    pub cpu: CpuId,
    /// Whether the thread is *bound* to its CPU (§2: Nautilus guarantees
    /// bound threads' state stays in the best zone; bound threads are
    /// never migrated). Only unbound aperiodic threads are work-stealing
    /// candidates (§3.4).
    pub bound: bool,
    /// Life-cycle state.
    pub state: ThreadState,
    /// The resumable body.
    pub program: Box<dyn Program>,
    /// Whether this is the per-CPU idle thread.
    pub is_idle: bool,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("name", &self.name)
            .field("cpu", &self.cpu)
            .field("state", &self.state)
            .field("program", &self.program.name())
            .finish()
    }
}

/// Fixed-capacity thread table with slot reuse.
///
/// Slots are handed out lazily up to the bound: `slots` grows one
/// never-used slot at a time (its length is the high-water mark) inside
/// storage reserved once for `capacity` and never reallocated, and `free`
/// holds reaped slots only. Ids come out in the order an eagerly
/// filled free list `(0..capacity).rev()` would give them — reaped ids
/// LIFO, then fresh ids ascending — which replay determinism rests on.
pub struct ThreadTable {
    slots: Vec<Option<Thread>>,
    free: Vec<ThreadId>,
    capacity: usize,
    live: usize,
    spawned: u64,
    reaped: u64,
}

impl ThreadTable {
    /// A table with the given capacity.
    pub fn new(capacity: usize) -> Self {
        ThreadTable {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            capacity,
            live: 0,
            spawned: 0,
            reaped: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots ever handed out since construction or the last reset: every
    /// `ThreadId` the table has returned is below it.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Return to an empty table of `capacity` slots, reusing the backing
    /// storage (growing it once if `capacity` exceeds it). Costs the slots
    /// handed out since the last reset, and hands out ThreadIds in the same
    /// sequence as a fresh table — required for pooled trials to replay
    /// exactly.
    pub fn reset(&mut self, capacity: usize) {
        self.slots.clear();
        self.slots.reserve(capacity);
        self.free.clear();
        self.free.reserve(capacity);
        self.capacity = capacity;
        self.live = 0;
        self.spawned = 0;
        self.reaped = 0;
    }

    /// Live (spawned, unreaped) thread count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Threads spawned over the table's lifetime.
    pub fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Threads reaped over the table's lifetime.
    pub fn reaped(&self) -> u64 {
        self.reaped
    }

    /// Allocate a slot for a new thread. Fails when the compile-time bound
    /// is reached.
    pub fn spawn(&mut self, thread: Thread) -> Result<ThreadId, Thread> {
        let tid = if let Some(tid) = self.free.pop() {
            debug_assert!(self.slots[tid].is_none());
            self.slots[tid] = Some(thread);
            tid
        } else if self.slots.len() < self.capacity {
            self.slots.push(Some(thread));
            self.slots.len() - 1
        } else {
            return Err(thread);
        };
        self.live += 1;
        self.spawned += 1;
        Ok(tid)
    }

    /// Reclaim an exited thread's slot (reaping). Returns whether the slot
    /// was reclaimed: a live or already-free slot is left alone.
    pub fn reap(&mut self, tid: ThreadId) -> bool {
        let exited = self
            .get(tid)
            .is_some_and(|t| t.state == ThreadState::Exited);
        if exited {
            self.slots[tid] = None;
            self.free.push(tid);
            self.live -= 1;
            self.reaped += 1;
        }
        exited
    }

    /// Borrow a thread.
    pub fn get(&self, tid: ThreadId) -> Option<&Thread> {
        self.slots.get(tid).and_then(|s| s.as_ref())
    }

    /// Mutably borrow a thread.
    pub fn get_mut(&mut self, tid: ThreadId) -> Option<&mut Thread> {
        self.slots.get_mut(tid).and_then(|s| s.as_mut())
    }

    /// Borrow a thread, panicking on a dangling id (kernel invariant).
    pub fn expect(&self, tid: ThreadId) -> &Thread {
        self.get(tid).expect("dangling ThreadId")
    }

    /// Mutably borrow a thread, panicking on a dangling id.
    pub fn expect_mut(&mut self, tid: ThreadId) -> &mut Thread {
        self.get_mut(tid).expect("dangling ThreadId")
    }

    /// Iterate `(tid, thread)` over live threads.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, &Thread)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (i, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::IdleLoop;

    fn mk(name: &str) -> Thread {
        Thread {
            name: name.into(),
            cpu: 0,
            bound: true,
            state: ThreadState::Ready,
            program: Box::new(IdleLoop::new(100)),
            is_idle: false,
        }
    }

    #[test]
    fn spawn_and_lookup() {
        let mut t = ThreadTable::new(4);
        let a = t.spawn(mk("a")).unwrap();
        let b = t.spawn(mk("b")).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.expect(a).name, "a");
        assert_eq!(t.expect(b).name, "b");
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = ThreadTable::new(2);
        t.spawn(mk("a")).unwrap();
        t.spawn(mk("b")).unwrap();
        assert!(t.spawn(mk("c")).is_err());
    }

    #[test]
    fn reap_recycles_slots() {
        let mut t = ThreadTable::new(2);
        let a = t.spawn(mk("a")).unwrap();
        t.spawn(mk("b")).unwrap();
        t.expect_mut(a).state = ThreadState::Exited;
        assert!(t.reap(a));
        assert_eq!(t.live(), 1);
        let c = t.spawn(mk("c")).unwrap();
        assert_eq!(c, a, "slot should be reused");
        assert_eq!(t.spawned(), 3);
        assert_eq!(t.reaped(), 1);
    }

    #[test]
    fn reap_refuses_non_exited_threads() {
        let mut t = ThreadTable::new(2);
        let a = t.spawn(mk("a")).unwrap();
        assert!(!t.reap(a));
        assert_eq!(t.live(), 1);
        assert!(t.get(a).is_some());
    }

    #[test]
    fn iter_skips_holes() {
        let mut t = ThreadTable::new(4);
        let a = t.spawn(mk("a")).unwrap();
        let b = t.spawn(mk("b")).unwrap();
        t.expect_mut(a).state = ThreadState::Exited;
        t.reap(a);
        let names: Vec<_> = t.iter().map(|(_, th)| th.name.clone()).collect();
        assert_eq!(names, vec!["b"]);
        assert_eq!(t.iter().next().unwrap().0, b);
    }
}

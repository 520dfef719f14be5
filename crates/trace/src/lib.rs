//! Typed scheduler trace records and a zero-allocation ring sink.
//!
//! The paper's claims are behavioral: an admitted periodic/sporadic thread
//! never misses its deadline, the local scheduler always dispatches the
//! earliest-deadline runnable RT thread, tasks never delay RT threads, and
//! the tickless one-shot timer is always armed for the next constraint
//! edge (§3–§5). This crate is the observability substrate that lets the
//! rest of the workspace *check* those claims continuously: the scheduler,
//! node, kernel task queues, and machine emit [`Record`]s into a
//! fixed-capacity [`TraceRing`] behind a [`TraceHandle`]; its
//! [`Observer`]s (the invariant oracles in `nautix-rt::oracle`, and each
//! figure's view of a run) consume them online, as the simulation runs.
//! The stream is the only way a run is observed.
//!
//! # Subscriptions
//!
//! Each observer subscribes to a set of record [`Kind`]s and receives
//! exactly those, in emission order. The sink keeps the union where an
//! emission site can test it without borrowing the sink
//! ([`TraceHandle::wants`]); a site whose kind nobody subscribes to builds
//! no record, and the ring holds only subscribed records.
//!
//! # Zero-allocation discipline
//!
//! Records are plain `Copy` values. The ring is allocated once at trace
//! enable time and overwrites its oldest entry when full — emitting a
//! record on the event hot path is a bounds-checked store plus a virtual
//! call into each subscriber, never an allocation. The layer is always
//! compiled in; each emission point holds an `Option<TraceHandle>` and
//! tests it and the kind ([`Tracing::wants`]) before building a record,
//! so an unarmed run pays one not-taken branch per site.
//!
//! # Timestamps
//!
//! The simulation has two clocks, and records carry whichever the emitting
//! layer actually sees: scheduler-level records carry the CPU's wall-clock
//! estimate in nanoseconds (`now_ns`), hardware-level records carry true
//! machine time in cycles (`now_cycles`). Oracles that need both (the
//! tickless-correctness check) compare within one domain and never convert
//! across the calibration boundary.

use nautix_des::{Cycles, Nanos};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// CPU index as recorded in the trace.
pub type TraceCpu = u32;
/// Thread id as recorded in the trace.
pub type TraceTid = u32;

/// Default ring capacity: enough recent context to explain a violation
/// (a full scheduling pass emits a handful of records) without measurable
/// footprint per node.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Outcome of a completed real-time job, as recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Completed by its deadline.
    Met,
    /// Completed after its deadline.
    Missed,
    /// The thread blocked during the job; the guarantee was forfeited.
    Forfeited,
}

/// Which injected fault lane a [`Record::Fault`] came from (the machine
/// layer's `FaultPlan`), mirrored here like [`TraceClass`] so observers
/// need no hardware-crate dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLane {
    /// A kick IPI was silently dropped.
    KickDrop,
    /// A kick IPI was delivered late.
    KickDelay,
    /// A one-shot timer fired past its quantized deadline.
    TimerOvershoot,
    /// A transient frequency dip slowed one CPU.
    FreqDip,
    /// A spurious device interrupt was raised.
    SpuriousIrq,
    /// One CPU was stalled outright.
    CpuStall,
}

impl FaultLane {
    /// Number of lanes, for per-lane counter arrays.
    pub const COUNT: usize = 6;

    /// Dense index for counter arrays.
    pub fn idx(self) -> usize {
        match self {
            FaultLane::KickDrop => 0,
            FaultLane::KickDelay => 1,
            FaultLane::TimerOvershoot => 2,
            FaultLane::FreqDip => 3,
            FaultLane::SpuriousIrq => 4,
            FaultLane::CpuStall => 5,
        }
    }

    /// Short name for summaries.
    pub fn name(self) -> &'static str {
        match self {
            FaultLane::KickDrop => "kick-drop",
            FaultLane::KickDelay => "kick-delay",
            FaultLane::TimerOvershoot => "timer-overshoot",
            FaultLane::FreqDip => "freq-dip",
            FaultLane::SpuriousIrq => "spurious-irq",
            FaultLane::CpuStall => "cpu-stall",
        }
    }

    /// All lanes in [`FaultLane::idx`] order.
    pub fn all() -> [FaultLane; FaultLane::COUNT] {
        [
            FaultLane::KickDrop,
            FaultLane::KickDelay,
            FaultLane::TimerOvershoot,
            FaultLane::FreqDip,
            FaultLane::SpuriousIrq,
            FaultLane::CpuStall,
        ]
    }
}

/// `layer` value on a [`Record::Dispatch`] of the idle thread: idle time
/// is charged to no layer.
pub const TRACE_LAYER_IDLE: u32 = u32::MAX;

/// Constraint class of an admission verdict, as recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Best-effort priority class.
    Aperiodic,
    /// Periodic (phase φ, period τ, slice σ).
    Periodic,
    /// Sporadic (one burst with a deadline, then aperiodic).
    Sporadic,
}

/// One typed trace record. Emission points are the scheduler/kernel/
/// hardware paths named in each variant's doc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// End of a scheduling pass: `tid` was placed on the CPU
    /// (`LocalScheduler::invoke`). `deadline_ns` is the dispatched job's
    /// absolute deadline, `Nanos::MAX` when the thread is not an in-job RT
    /// thread (or is the idle thread).
    Dispatch {
        /// CPU the pass ran on.
        cpu: TraceCpu,
        /// Chosen thread (may be the idle thread).
        tid: TraceTid,
        /// The CPU's wall-clock estimate at the pass.
        now_ns: Nanos,
        /// Absolute deadline of the dispatched job, or `Nanos::MAX`.
        deadline_ns: Nanos,
        /// Whether the chosen thread holds RT constraints with an active job.
        is_rt: bool,
        /// Whether the chosen thread is the CPU's idle thread.
        is_idle: bool,
        /// Whether this differs from the previously running thread.
        switched: bool,
        /// Scheduling layer the chosen thread's class maps to (its wall
        /// time until the next pass is charged here), or
        /// [`TRACE_LAYER_IDLE`] for the idle thread.
        layer: u32,
    },
    /// A runnable current thread was displaced by the pass's selection.
    Preempt {
        /// CPU it happened on.
        cpu: TraceCpu,
        /// The displaced thread.
        tid: TraceTid,
        /// Wall-clock estimate at the pass.
        now_ns: Nanos,
    },
    /// A thread entered the RT run queue with an active job
    /// (`enqueue`/`enqueue_current`).
    RtQueued {
        /// CPU whose queue it entered.
        cpu: TraceCpu,
        /// The queued thread.
        tid: TraceTid,
        /// Absolute deadline it is keyed by.
        deadline_ns: Nanos,
    },
    /// A thread entered the pending queue to wait for its next arrival.
    PendingQueued {
        /// CPU whose queue it entered.
        cpu: TraceCpu,
        /// The queued thread.
        tid: TraceTid,
        /// Absolute arrival instant it is keyed by.
        arrival_ns: Nanos,
    },
    /// A thread left every queue (exit, migration, class change, or
    /// because it was dispatched).
    Dequeued {
        /// CPU whose queues it left.
        cpu: TraceCpu,
        /// The removed thread.
        tid: TraceTid,
    },
    /// A pending arrival was pumped into the RT run queue: a new job is
    /// active (`LocalScheduler::invoke`, step 2).
    JobArrive {
        /// CPU it arrived on.
        cpu: TraceCpu,
        /// The arriving thread.
        tid: TraceTid,
        /// The job's arrival instant (wall ns).
        arrival_ns: Nanos,
        /// The job's absolute deadline.
        deadline_ns: Nanos,
    },
    /// A job ran its slice to completion and was classified
    /// (`complete_job`).
    JobComplete {
        /// CPU it completed on.
        cpu: TraceCpu,
        /// The thread whose job completed.
        tid: TraceTid,
        /// Wall-clock estimate at classification.
        now_ns: Nanos,
        /// The job's absolute deadline.
        deadline_ns: Nanos,
        /// Met, missed, or forfeited.
        outcome: TraceOutcome,
    },
    /// An admission decision (`change_constraints` or group admission).
    AdmitVerdict {
        /// CPU whose ledger decided.
        cpu: TraceCpu,
        /// The thread requesting constraints.
        tid: TraceTid,
        /// Whether the request was admitted.
        accepted: bool,
        /// Whether admission control was actually enforcing (the missrate
        /// sweeps run with it disabled to map the infeasible region).
        enforced: bool,
        /// Requested class.
        class: TraceClass,
        /// Period τ (periodic) or deadline δ (sporadic), ns; 0 otherwise.
        period_ns: Nanos,
        /// Slice σ (periodic) or burst size (sporadic), ns; 0 otherwise.
        slice_ns: Nanos,
    },
    /// A thread's RT reservation was released (exit, class change away
    /// from RT, or sporadic decay to aperiodic).
    ConstraintsReleased {
        /// CPU whose ledger released it.
        cpu: TraceCpu,
        /// The thread.
        tid: TraceTid,
    },
    /// The admission engine ran a hyperperiod-simulation probe for the
    /// verdict that immediately follows as an [`Record::AdmitVerdict`] on
    /// the same CPU. Emitted only under the `HyperperiodSim` policy; the
    /// oracle layer re-simulates the mirrored admitted set and flags any
    /// divergence from a (possibly cached) `feasible` verdict.
    SimCacheProbe {
        /// CPU whose ledger probed.
        cpu: TraceCpu,
        /// Whether the verdict came from the memo cache.
        hit: bool,
        /// The feasibility verdict the probe produced.
        feasible: bool,
        /// Canonical task-set signature the memo is keyed by.
        sig: u64,
        /// Overhead model the verdict was computed under, ns/job.
        overhead_ns: Nanos,
        /// Simulation window cap, ns.
        window_cap_ns: Nanos,
    },
    /// A failed re-admission (or failed team transaction) rolled the
    /// ledger back: `tid` again holds the recorded constraints, exactly as
    /// before the attempt. Restores the oracle's admitted mirror, which
    /// the preceding rejected [`Record::AdmitVerdict`] cleared.
    AdmitRollback {
        /// CPU whose ledger rolled back.
        cpu: TraceCpu,
        /// The thread whose old reservation was restored.
        tid: TraceTid,
        /// Whether admission control was enforcing.
        enforced: bool,
        /// Class of the restored constraints.
        class: TraceClass,
        /// Period τ (periodic) or deadline δ (sporadic), ns; 0 otherwise.
        period_ns: Nanos,
        /// Slice σ (periodic) or burst size (sporadic), ns; 0 otherwise.
        slice_ns: Nanos,
    },
    /// A batched team admission transaction committed or rolled back
    /// (`Node::admit` with a team target / the `GroupAdmitTeam` syscall):
    /// every member was admitted, or none was.
    TeamAdmit {
        /// CPU of the member that completed the transaction.
        cpu: TraceCpu,
        /// The group id.
        group: u32,
        /// Team size the transaction covered.
        members: u32,
        /// Whether the whole team was admitted.
        accepted: bool,
    },
    /// The node's per-pass timer request, in the scheduler's own terms,
    /// before hardware quantization (`Node::program_timer`).
    TimerReq {
        /// CPU whose one-shot is being programmed.
        cpu: TraceCpu,
        /// Wall-clock estimate at the request.
        now_ns: Nanos,
        /// Absolute wall-clock request (pending arrival, lazy latest
        /// start, deadline backstop), or `Nanos::MAX` for none.
        wall_ns: Nanos,
        /// Execution-relative request (slice/quantum end), in cycles of
        /// remaining execution, or `Cycles::MAX` for none.
        exec_cycles: Cycles,
        /// Whether any one-shot was armed (false means the pass cancelled
        /// the timer).
        armed: bool,
    },
    /// The APIC one-shot was armed (`Machine::set_timer_cycles`).
    TimerArm {
        /// CPU whose timer slot was written.
        cpu: TraceCpu,
        /// True machine time of the programming.
        now_cycles: Cycles,
        /// True machine time the one-shot will fire at (post-quantization).
        fire_at_cycles: Cycles,
    },
    /// The APIC one-shot was disarmed (`Machine::cancel_timer`).
    TimerCancel {
        /// CPU whose timer slot was cleared.
        cpu: TraceCpu,
        /// True machine time of the cancellation.
        now_cycles: Cycles,
    },
    /// The one-shot deadline elapsed and the timer interrupt was raised
    /// (`Machine::advance`).
    TimerFire {
        /// CPU the interrupt is for.
        cpu: TraceCpu,
        /// True machine time of the hardware deadline.
        at_cycles: Cycles,
    },
    /// A scheduler kick IPI was sent (`Machine::send_kick`, §3.4).
    Kick {
        /// Sending CPU.
        from: TraceCpu,
        /// Target CPU.
        to: TraceCpu,
        /// True machine time of the send.
        now_cycles: Cycles,
    },
    /// An aperiodic thread was stolen by an idle CPU (`Node::try_steal`,
    /// power-of-two-choices, §3.4).
    Steal {
        /// The idle CPU that took the thread.
        thief: TraceCpu,
        /// The CPU it was taken from.
        victim: TraceCpu,
        /// The migrated thread.
        tid: TraceTid,
    },
    /// A task was queued (`TaskQueues::spawn`, §3.1).
    TaskSpawn {
        /// CPU whose queues received it.
        cpu: TraceCpu,
        /// Whether the producer declared a size.
        sized: bool,
        /// Actual execution cost, cycles.
        work_cycles: Cycles,
    },
    /// A size-tagged task was executed inline by the scheduler in the gap
    /// before the next RT arrival (§3.1).
    TaskExec {
        /// CPU that ran it.
        cpu: TraceCpu,
        /// Wall-clock estimate when the gap was measured.
        now_ns: Nanos,
        /// Declared size, cycles.
        size_cycles: Cycles,
        /// Inline budget the scheduler computed for the gap, cycles.
        budget_cycles: Cycles,
    },
    /// A layer's token bucket went non-positive during span charging: its
    /// threads are ineligible for dispatch on this CPU until the next
    /// replenish boundary (`LocalScheduler::invoke`, layer accounting).
    /// Emitted once per layer per window.
    LayerThrottle {
        /// CPU whose bucket ran dry.
        cpu: TraceCpu,
        /// The exhausted layer.
        layer: u32,
        /// Wall-clock estimate when exhaustion was detected.
        now_ns: Nanos,
    },
    /// A replenish boundary refilled a layer's token bucket to capacity.
    /// `spent_ns` is the independently accumulated honest consumption of
    /// the closing window — the layer-isolation oracle re-derives it from
    /// the dispatch stream and checks it against `cap_ns`, so a sabotaged
    /// bucket cannot hide overspend.
    LayerReplenish {
        /// CPU whose bucket refilled.
        cpu: TraceCpu,
        /// The refilled layer.
        layer: u32,
        /// Wall ns the layer consumed in the closing window.
        spent_ns: Nanos,
        /// Bucket capacity per window on this CPU, wall ns.
        cap_ns: Nanos,
    },
    /// The machine injected one fault from an enabled `FaultPlan` lane
    /// (`Machine::send_kick`, `Machine::set_timer_cycles`, or the
    /// recurring fault pump in `Machine::advance`). The oracle layer uses
    /// these to attribute environment-caused deadline misses to the lane
    /// that induced them.
    Fault {
        /// Affected CPU (the target, for kick lanes).
        cpu: TraceCpu,
        /// Which lane fired.
        lane: FaultLane,
        /// True machine time of the injection.
        now_cycles: Cycles,
        /// Lane-specific magnitude in cycles: delay/overshoot length,
        /// stall length, compute lost to a dip; 0 for drops and spurious
        /// interrupts.
        magnitude_cycles: Cycles,
    },
    /// A context switch took effect (`Node::local_invoke_raw`), stamped
    /// where the paper stamps it: at the end of the pass, kernel-path
    /// costs and their jitter included. Feeds the dispatch stamps of
    /// Figures 11–12, the timeline, and pin 0 of the Figure 4 scope.
    Switch {
        /// CPU that switched.
        cpu: TraceCpu,
        /// The thread switched away from, or [`TRACE_TID_IDLE`].
        prev: TraceTid,
        /// The thread switched to, or [`TRACE_TID_IDLE`].
        next: TraceTid,
        /// True machine time of the switch point.
        at_cycles: Cycles,
        /// The CPU's wall-clock estimate at the switch point.
        wall_ns: Nanos,
    },
    /// A timer/kick interrupt reached the end of its scheduling pass
    /// (`Node::interrupt_path`): its phase boundaries before the switch,
    /// in true machine time. Pins 2 and 1 of the Figure 4 scope.
    IrqEnter {
        /// CPU taking the interrupt.
        cpu: TraceCpu,
        /// Interrupt entry.
        irq_start_cycles: Cycles,
        /// Scheduling pass start.
        pass_start_cycles: Cycles,
        /// Scheduling pass end.
        pass_end_cycles: Cycles,
    },
    /// The interrupt of the preceding [`Record::IrqEnter`] on `cpu`
    /// returned: its end in true machine time and its Figure 5 costs in
    /// cycles, narrowed to `u32` (one invocation costs thousands).
    IrqExit {
        /// CPU that took the interrupt.
        cpu: TraceCpu,
        /// Interrupt exit, timer programmed.
        irq_end_cycles: Cycles,
        /// Interrupt entry + exit.
        irq_cycles: u32,
        /// Bookkeeping around the pass ("Other").
        other_cycles: u32,
        /// The scheduling pass ("Resched").
        resched_cycles: u32,
        /// The context switch ("Switch"); 0 when the thread continued.
        switch_cycles: u32,
    },
    /// A `GroupJoin` call returned (Figure 10a).
    GroupJoin {
        /// CPU the caller ran on.
        cpu: TraceCpu,
        /// The joining thread.
        tid: TraceTid,
        /// Wall ns from the call to its contended update landing.
        dur_ns: Nanos,
    },
    /// One member left group admission control (Algorithm 1), admitted or
    /// not: its step boundaries as Figure 10 reports them, the later ones
    /// as wall-ns offsets from the call narrowed to `u32`.
    GaSteps {
        /// The member.
        tid: TraceTid,
        /// Group size at admission.
        n: u16,
        /// Call entry, wall ns.
        call_ns: Nanos,
        /// Call entry to leader election completed.
        to_elect_ns: u32,
        /// Local admission control's own duration.
        local_admit_ns: u32,
        /// Call entry to error reduction completed.
        to_reduce_ns: u32,
        /// Call entry to final barrier and phase correction completed.
        to_done_ns: u32,
    },
}

// Every emitted record is copied into the ring (and through every
// subscribed observer): a kind that outgrows 32 bytes grows them all.
const _: () = assert!(std::mem::size_of::<Record>() == 32);

/// `prev` / `next` on a [`Record::Switch`] when that side is the CPU's
/// idle thread.
pub const TRACE_TID_IDLE: TraceTid = TraceTid::MAX;

/// Narrow a cost or offset known to be small to a record's `u32` field.
/// A build with debug assertions checks the claim.
pub fn narrow(v: u64) -> u32 {
    debug_assert!(v <= u32::MAX as u64, "{v} does not fit a u32 record field");
    v as u32
}

/// Declares [`Kind`], one per [`Record`] variant and of the same name,
/// [`Kinds::ALL`] and [`Record::kind`].
macro_rules! kinds {
    ($($k:ident),*) => {
        /// The kind of a [`Record`], one per variant and of the same name:
        /// what an [`Observer`] subscribes to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind { $($k),* }

        impl Kinds {
            /// Every kind.
            pub const ALL: Kinds = Kinds::of(&[$(Kind::$k),*]);
        }

        impl Record {
            /// This record's kind.
            pub fn kind(&self) -> Kind {
                match self { $(Record::$k { .. } => Kind::$k),* }
            }
        }
    };
}

kinds! {
    Dispatch, Preempt, RtQueued, PendingQueued, Dequeued, JobArrive, JobComplete, AdmitVerdict,
    ConstraintsReleased, SimCacheProbe, AdmitRollback, TeamAdmit, TimerReq, TimerArm,
    TimerCancel, TimerFire, Kick, Steal, TaskSpawn, TaskExec, LayerThrottle, LayerReplenish,
    Fault, Switch, IrqEnter, IrqExit, GroupJoin, GaSteps
}

/// A set of [`Kind`]s, one bit each; empty by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kinds(u32);

impl Kinds {
    /// The set of `kinds`.
    pub const fn of(kinds: &[Kind]) -> Kinds {
        let (mut bits, mut i) = (0, 0);
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u32;
            i += 1;
        }
        Kinds(bits)
    }

    /// This set less `other`.
    pub const fn without(self, other: Kinds) -> Kinds {
        Kinds(self.0 & !other.0)
    }

    /// Whether `kind` is in the set.
    #[inline]
    pub const fn contains(self, kind: Kind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }
}

/// Fixed-capacity overwrite-oldest record buffer.
///
/// Allocated once when tracing is enabled; `push` never allocates. Keeps
/// the most recent `capacity` records for post-mortem context when an
/// oracle fails.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<Record>,
    capacity: usize,
    seq: u64,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            seq: 0,
        }
    }

    /// Append a record, overwriting the oldest once full.
    pub fn push(&mut self, r: Record) {
        let pos = (self.seq % self.capacity as u64) as usize;
        if self.buf.len() < self.capacity {
            self.buf.push(r);
        } else {
            self.buf[pos] = r;
        }
        self.seq += 1;
    }

    /// Total records ever pushed (not just the retained window).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained records, oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &Record> + '_ {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            (self.seq % self.capacity as u64) as usize
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Forget everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
    }
}

/// An online consumer of the record stream: the invariant oracles, or a
/// figure's view of a run (dispatch stamps, timeline, scope, overhead
/// breakdown, group-admission timings).
///
/// `recent` is the ring *including* the record just emitted, for
/// violation messages that want the surrounding context.
pub trait Observer {
    /// The record kinds this observer receives, fixed for its lifetime.
    fn kinds(&self) -> Kinds;

    /// Called once per emitted record of a subscribed kind, in emission
    /// order.
    fn on_record(&mut self, r: &Record, recent: &TraceRing);
}

impl<T: Observer> Observer for Rc<RefCell<T>> {
    fn kinds(&self) -> Kinds {
        self.borrow().kinds()
    }

    fn on_record(&mut self, r: &Record, recent: &TraceRing) {
        self.borrow_mut().on_record(r, recent);
    }
}

/// The ring plus the observers it fans each record out to.
struct Sink {
    ring: TraceRing,
    observers: Vec<(Kinds, Box<dyn Observer>)>,
}

struct Shared {
    /// The union of the observers' kinds, readable without borrowing the
    /// sink.
    kinds: Cell<Kinds>,
    sink: RefCell<Sink>,
}

/// Shared handle to a trace sink — a ring of the latest records plus the
/// observers each record fans out to — cloned into every emitting layer of
/// one node (scheduler, node, task queues, machine). The ring holds what
/// some observer subscribed to, nothing else. Single-threaded by design:
/// one simulated node is driven by one host thread.
#[derive(Clone)]
pub struct TraceHandle(Rc<Shared>);

impl TraceHandle {
    /// A sink retaining the latest `capacity` records, feeding `observer`.
    pub fn new(capacity: usize, observer: Box<dyn Observer>) -> Self {
        let sink = Sink {
            ring: TraceRing::new(capacity),
            observers: Vec::new(),
        };
        let handle = TraceHandle(Rc::new(Shared {
            kinds: Cell::default(),
            sink: RefCell::new(sink),
        }));
        handle.subscribe(observer);
        handle
    }

    /// Add `observer` after those already subscribed: each record reaches
    /// its subscribers in subscription order.
    pub fn subscribe(&self, observer: Box<dyn Observer>) {
        let kinds = observer.kinds();
        self.0.kinds.set(Kinds(self.0.kinds.get().0 | kinds.0));
        self.0.sink.borrow_mut().observers.push((kinds, observer));
    }

    /// Whether some observer subscribes to `kind`: the test an emission
    /// site makes before it builds a record.
    #[inline]
    pub fn wants(&self, kind: Kind) -> bool {
        self.0.kinds.get().contains(kind)
    }

    /// Record `r`, of a subscribed kind, and notify its subscribers.
    pub fn emit(&self, r: Record) {
        let kind = r.kind();
        debug_assert!(self.wants(kind), "{kind:?} emitted unsubscribed");
        let Sink { ring, observers } = &mut *self.0.sink.borrow_mut();
        ring.push(r);
        for (kinds, o) in observers {
            if kinds.contains(kind) {
                o.on_record(&r, ring);
            }
        }
    }

    /// Total records emitted so far.
    pub fn records(&self) -> u64 {
        self.0.sink.borrow().ring.seq()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceHandle(records={})", self.records())
    }
}

/// The emission-site test on a layer's optional handle.
pub trait Tracing {
    /// The handle, when there is one and some observer subscribes to
    /// `kind`.
    fn wants(&self, kind: Kind) -> Option<&TraceHandle>;
}

impl Tracing for Option<TraceHandle> {
    #[inline]
    fn wants(&self, kind: Kind) -> Option<&TraceHandle> {
        self.as_ref().filter(|t| t.wants(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kick(n: u64) -> Record {
        Record::Kick {
            from: 0,
            to: 1,
            now_cycles: n,
        }
    }

    #[test]
    fn ring_retains_newest_window() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(kick(i));
        }
        assert_eq!(r.seq(), 10);
        assert_eq!(r.len(), 4);
        let got: Vec<u64> = r
            .iter()
            .map(|rec| match rec {
                Record::Kick { now_cycles, .. } => *now_cycles,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_iter_before_wraparound() {
        let mut r = TraceRing::new(8);
        for i in 0..3 {
            r.push(kick(i));
        }
        assert_eq!(r.iter().count(), 3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seq(), 0);
    }

    #[test]
    fn sink_feeds_observer_in_order() {
        struct Collect(Rc<RefCell<Vec<u64>>>);
        impl Observer for Collect {
            fn kinds(&self) -> Kinds {
                Kinds::of(&[Kind::Kick])
            }
            fn on_record(&mut self, r: &Record, recent: &TraceRing) {
                if let Record::Kick { now_cycles, .. } = r {
                    self.0.borrow_mut().push(*now_cycles);
                }
                assert!(recent.seq() > 0, "ring includes the current record");
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = TraceHandle::new(4, Box::new(Collect(Rc::clone(&seen))));
        for i in 0..5 {
            sink.emit(kick(i));
        }
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sink.records(), 5);
    }

    #[test]
    fn handle_is_shared() {
        struct Kicks;
        impl Observer for Kicks {
            fn kinds(&self) -> Kinds {
                Kinds::of(&[Kind::Kick])
            }
            fn on_record(&mut self, _: &Record, _: &TraceRing) {}
        }
        let h = TraceHandle::new(4, Box::new(Kicks));
        let h2 = h.clone();
        h.emit(kick(1));
        h2.emit(kick(2));
        assert_eq!(h.records(), 2);
    }
}

//! The local (per-CPU) hard real-time scheduler (§3.3).
//!
//! "A local scheduler is, at its base, a simple earliest deadline first
//! (EDF) engine consisting of a pending queue, a real-time run queue, and a
//! non-real-time run queue. On entry, all newly arrived threads are pumped
//! from the pending queue into the real-time run queue. Next, the state of
//! the current thread is evaluated against the most imminent periodic or
//! sporadic thread in the real-time run queue. ... A context switch
//! immediately occurs if the selected thread is more important than the
//! current thread."
//!
//! The scheduler is **eager** (work-conserving): a runnable real-time job
//! is never delayed, which is the §3.6 defense against SMI missing time.
//! The classic lazy variant is retained behind [`SchedMode::Lazy`] for the
//! ablation study.
//!
//! This type is deliberately free of any reference to the machine model:
//! it consumes a wall-clock reading and the per-thread scheduling states,
//! and returns a [`Decision`]. The node charges its cycle costs and
//! programs the hardware. That separation keeps the scheduler unit-testable
//! exactly as a kernel's scheduler core would be.

use crate::admission::{CpuLoad, LayerTable, SchedConfig, SchedMode, MAX_LAYERS};
use crate::stats::{CpuSchedStats, DegradeStats, ThreadRtStats};
use nautix_des::{Cycles, Freq, Nanos};
use nautix_hw::CpuId;
use nautix_kernel::{AdmissionError, Constraints, FixedHeap, RrQueue, ThreadId};
use nautix_trace::{Kind, Record, TraceClass, TraceHandle, TraceOutcome, Tracing};
use std::sync::atomic::{AtomicU64, Ordering};

/// `current_layer` value while the idle thread (or nothing yet) holds the
/// CPU: idle wall time is charged to no layer's bucket.
const LAYER_IDLE: u8 = u8::MAX;

// Process-wide degradation tally across every node and trial, for the
// `repro_all` harness summary. Purely observational: nothing reads these
// back into scheduling decisions, so they cannot perturb determinism.
static G_SPORADIC_DEMOTIONS: AtomicU64 = AtomicU64::new(0);
static G_PERIODIC_WIDENINGS: AtomicU64 = AtomicU64::new(0);
static G_PERIODIC_DEMOTIONS: AtomicU64 = AtomicU64::new(0);

/// Degradation activations accumulated process-wide (across all nodes,
/// trials, and host threads since process start).
pub fn degrade_global_stats() -> DegradeStats {
    DegradeStats {
        sporadic_demotions: G_SPORADIC_DEMOTIONS.load(Ordering::Relaxed),
        periodic_widenings: G_PERIODIC_WIDENINGS.load(Ordering::Relaxed),
        periodic_demotions: G_PERIODIC_DEMOTIONS.load(Ordering::Relaxed),
    }
}

/// How a constraint appears in admission trace records: class plus the
/// `(period, slice)` shape (a sporadic burst maps its deadline window and
/// size onto the same two fields).
fn trace_shape(c: &Constraints) -> (TraceClass, Nanos, Nanos) {
    match *c {
        Constraints::Aperiodic { .. } => (TraceClass::Aperiodic, 0, 0),
        Constraints::Periodic { period, slice, .. } => (TraceClass::Periodic, period, slice),
        Constraints::Sporadic { size, deadline, .. } => (TraceClass::Sporadic, deadline, size),
    }
}

/// Why the local scheduler was invoked (diagnostics; the paper's local
/// scheduler is invoked "only on a timer interrupt, a kick interrupt from
/// a different local scheduler, or by a small set of actions the current
/// thread can take").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeReason {
    /// APIC one-shot timer.
    Timer,
    /// Kick IPI from another local scheduler.
    Kick,
    /// The current thread yielded.
    Yield,
    /// The current thread blocked (sleep, barrier, group op).
    Block,
    /// The current thread exited.
    Exit,
    /// The current thread changed constraints.
    ConstraintChange,
    /// A blocked thread became ready.
    Wake,
}

/// Scheduling class and job state of one thread, kept per thread by the
/// node and indexed by `ThreadId`.
#[derive(Debug)]
pub struct SchedThread {
    /// Current constraints.
    pub constraints: Constraints,
    /// Admission anchor Λ (wall-clock ns): arrivals are measured from it.
    pub admit_ns: Nanos,
    /// Next arrival, absolute wall-clock ns (valid for RT classes).
    pub next_arrival_ns: Nanos,
    /// Current job's absolute deadline (valid while `job_active`).
    pub deadline_ns: Nanos,
    /// Remaining guaranteed execution of the current job, in cycles.
    pub remaining_cycles: Cycles,
    /// Whether a job is currently active (arrived, not yet completed).
    pub job_active: bool,
    /// Whether the current job has begun executing (lazy mode bookkeeping).
    pub job_started: bool,
    /// Whether the thread blocked at some point during the current job
    /// (such jobs are "forfeited", not counted as met or missed).
    pub job_blocked: bool,
    /// Leftover round-robin quantum, cycles (aperiodic class).
    pub quantum_left: Cycles,
    /// A preempted program action's unfinished cycles.
    pub pending_compute: Option<Cycles>,
    /// Per-thread RT statistics.
    pub stats: ThreadRtStats,
    /// Deadline misses since the last met job (overload detection for
    /// [`crate::admission::DegradePolicy`]).
    pub consecutive_misses: u32,
    /// Reservation-widening rounds consumed by the degradation policy.
    pub widen_rounds: u32,
}

impl SchedThread {
    /// Fresh state for a newly spawned (aperiodic) thread.
    pub fn new_aperiodic() -> Self {
        SchedThread {
            constraints: Constraints::default_aperiodic(),
            admit_ns: 0,
            next_arrival_ns: 0,
            deadline_ns: 0,
            remaining_cycles: 0,
            job_active: false,
            job_started: false,
            job_blocked: false,
            quantum_left: 0,
            pending_compute: None,
            stats: ThreadRtStats::default(),
            consecutive_misses: 0,
            widen_rounds: 0,
        }
    }

    /// Whether the thread currently holds real-time constraints.
    pub fn is_rt(&self) -> bool {
        self.constraints.is_realtime()
    }

    /// Aperiodic priority (the post-burst priority for sporadic threads).
    pub fn aperiodic_priority(&self) -> u64 {
        match self.constraints {
            Constraints::Aperiodic { priority } => priority,
            Constraints::Sporadic {
                aperiodic_priority, ..
            } => aperiodic_priority,
            Constraints::Periodic { .. } => u64::MAX,
        }
    }
}

/// Outcome of a completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed by the deadline.
    Met,
    /// Completed `late_ns` after the deadline.
    Missed {
        /// Lateness in nanoseconds.
        late_ns: Nanos,
    },
    /// The thread blocked during the job and forfeited the guarantee.
    Forfeited,
}

/// What the node must do after an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The thread to run (the idle thread when nothing else is runnable).
    pub next: ThreadId,
    /// Whether this differs from the previously running thread.
    pub switched: bool,
    /// Timer request relative to the dispatched thread's *execution*: fire
    /// once it has run this many more cycles (slice budget, quantum). The
    /// node adds the kernel-path backlog before the thread resumes.
    pub timer_exec_cycles: Option<Cycles>,
    /// Timer request at an absolute wall-clock instant (pending arrivals,
    /// lazy latest-start points, deadline backstops).
    pub timer_wall_ns: Option<Nanos>,
    /// Whether the chosen thread is hard real-time (drives the TPR).
    pub next_is_rt: bool,
}

impl Decision {
    /// Whether any timer was requested.
    pub fn timer_armed(&self) -> bool {
        self.timer_exec_cycles.is_some() || self.timer_wall_ns.is_some()
    }
}

/// The per-CPU scheduler.
pub struct LocalScheduler {
    /// This scheduler's CPU.
    pub cpu: CpuId,
    cfg: SchedConfig,
    freq: Freq,
    /// Admitted-load ledger for admission control.
    pub load: CpuLoad,
    /// Threads whose next arrival is in the future, keyed by arrival time.
    pending: FixedHeap<Nanos, ThreadId>,
    /// Arrived real-time jobs, keyed by absolute deadline.
    rt_run: FixedHeap<Nanos, ThreadId>,
    /// Aperiodic threads, round-robin within priority.
    nonrt: RrQueue<ThreadId>,
    /// The running thread (the idle thread counts).
    pub current: ThreadId,
    /// This CPU's idle thread.
    pub idle: ThreadId,
    /// Counters and samples.
    pub stats: CpuSchedStats,
    /// Jobs completed on this invocation (for harnesses).
    pub last_outcome: Option<JobOutcome>,
    /// Whether layer accounting runs at all. False for the exact default
    /// [`LayerTable`], which keeps the unlayered hot path byte-identical:
    /// no bucket arithmetic, no extra timers, no layer records.
    layers_active: bool,
    /// Remaining wall-time tokens per layer for the current replenish
    /// window. Signed: the final span before a throttle may overdraw by up
    /// to the timer quantization.
    layer_buckets: [i64; MAX_LAYERS],
    /// Honest wall time charged per layer since the last replenish. Kept
    /// independent of the buckets so a corrupted refill (sabotage) still
    /// reports true consumption for the oracle to catch.
    layer_spent: [u64; MAX_LAYERS],
    /// Whether a `LayerThrottle` was already recorded this window.
    layer_throttle_mark: [bool; MAX_LAYERS],
    /// Replenish window index (`now_ns / replenish_ns`) last refilled.
    layer_epoch: u64,
    /// Wall clock of the previous scheduling pass (span charging).
    last_invoke_ns: Nanos,
    /// Layer of the thread dispatched by the previous pass, or
    /// [`LAYER_IDLE`]; the span until the next pass is charged to it.
    current_layer: u8,
    /// Whether the last selection skipped a throttled-layer thread (arms
    /// the window-boundary wake-up timer).
    throttle_skipped: bool,
    trace: Option<TraceHandle>,
    /// Deliberately broken dispatch for oracle regression tests: pick the
    /// lowest-numbered runnable RT thread (creation order) instead of the
    /// earliest deadline. Never set outside tests.
    sabotage_fifo: bool,
    /// Deliberately broken replenish for layer-oracle regression tests:
    /// refill every bucket to four times its cap. Never set outside tests.
    sabotage_layer: bool,
}

/// Initial bucket fill: every configured layer starts window 0 with a full
/// cap of tokens.
fn boot_buckets(layers: &LayerTable) -> [i64; MAX_LAYERS] {
    let mut buckets = [0i64; MAX_LAYERS];
    for (l, b) in buckets.iter_mut().enumerate().take(layers.count()) {
        *b = layers.cap_ns(l) as i64;
    }
    buckets
}

impl LocalScheduler {
    /// A scheduler for `cpu` whose idle thread is `idle`: empty queues of
    /// the right capacity, then [`LocalScheduler::reset`] — the one place
    /// boot state is derived from `cfg`.
    pub fn new(cpu: CpuId, idle: ThreadId, cfg: SchedConfig, freq: Freq, capacity: usize) -> Self {
        let mut s = LocalScheduler {
            cpu,
            cfg,
            freq,
            load: CpuLoad::new(),
            pending: FixedHeap::new(capacity),
            rt_run: FixedHeap::new(capacity),
            nonrt: RrQueue::new(capacity),
            current: idle,
            idle,
            stats: CpuSchedStats::default(),
            last_outcome: None,
            layers_active: false,
            layer_buckets: [0; MAX_LAYERS],
            layer_spent: [0; MAX_LAYERS],
            layer_throttle_mark: [false; MAX_LAYERS],
            layer_epoch: 0,
            last_invoke_ns: 0,
            current_layer: LAYER_IDLE,
            throttle_skipped: false,
            trace: None,
            sabotage_fifo: false,
            sabotage_layer: false,
        };
        s.reset(cpu, idle, cfg, freq, capacity);
        s
    }

    /// The boot-time configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Install (or remove) the trace sink fed by this scheduler's queue
    /// transitions, dispatches, and admission verdicts.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Enable the deliberately broken FIFO dispatch (regression tests for
    /// the EDF oracle only).
    pub fn set_sabotage_fifo(&mut self, on: bool) {
        self.sabotage_fifo = on;
    }

    /// Enable the deliberately broken over-replenish (regression tests for
    /// the layer-isolation oracle only): each refill grants four caps of
    /// tokens, letting a layer overdraw its bandwidth while the honest
    /// spent counter still tells the truth.
    pub fn set_sabotage_layer(&mut self, on: bool) {
        self.sabotage_layer = on;
    }

    /// Threads resident on this CPU (for the per-thread pass cost).
    pub fn resident(&self) -> usize {
        self.pending.len() + self.rt_run.len() + self.nonrt.len() + 1
    }

    /// Enqueue a ready thread according to its class and job state.
    pub fn enqueue(&mut self, tid: ThreadId, st: &mut SchedThread, now_ns: Nanos) {
        debug_assert!(tid != self.idle, "the idle thread is never queued");
        if st.is_rt() {
            if st.job_active && st.deadline_ns > now_ns && st.remaining_cycles > 0 {
                self.push_rt_run(tid, st.deadline_ns);
            } else {
                // (Re)synchronize to the next arrival strictly after now.
                if st.job_active {
                    // The job lapsed while blocked; forfeit it.
                    st.job_active = false;
                }
                self.resync_arrival(st, now_ns);
                self.push_pending(tid, st.next_arrival_ns);
            }
        } else {
            self.enqueue_nonrt(tid, st.aperiodic_priority());
        }
    }

    /// A job with work left joins the EDF run queue at its deadline.
    #[inline]
    fn push_rt_run(&mut self, tid: ThreadId, deadline_ns: Nanos) {
        self.rt_run
            .push(deadline_ns, tid)
            .expect("rt_run overflow: capacity misconfigured");
        if let Some(t) = self.trace.wants(Kind::RtQueued) {
            t.emit(Record::RtQueued {
                cpu: self.cpu as u32,
                tid: tid as u32,
                deadline_ns,
            });
        }
    }

    /// A real-time thread between jobs waits for its next arrival.
    #[inline]
    fn push_pending(&mut self, tid: ThreadId, arrival_ns: Nanos) {
        self.pending
            .push(arrival_ns, tid)
            .expect("pending overflow: capacity misconfigured");
        if let Some(t) = self.trace.wants(Kind::PendingQueued) {
            t.emit(Record::PendingQueued {
                cpu: self.cpu as u32,
                tid: tid as u32,
                arrival_ns,
            });
        }
    }

    /// Advance `next_arrival_ns` to the first arrival at or after `now_ns`.
    fn resync_arrival(&self, st: &mut SchedThread, now_ns: Nanos) {
        match st.constraints {
            Constraints::Periodic { phase, period, .. } => {
                let first = st.admit_ns + phase;
                if st.next_arrival_ns < first {
                    st.next_arrival_ns = first;
                }
                if st.next_arrival_ns < now_ns {
                    let behind = now_ns - st.next_arrival_ns;
                    let k = behind / period + 1;
                    st.next_arrival_ns += k * period;
                }
            }
            Constraints::Sporadic { phase, .. } => {
                let first = st.admit_ns + phase;
                st.next_arrival_ns = first.max(st.next_arrival_ns);
            }
            Constraints::Aperiodic { .. } => {}
        }
    }

    /// Enqueue a thread directly on the non-RT queue regardless of its
    /// constraint class. Used for threads executing inside group admission
    /// control, which "runs in the context of the thread, and the thread is
    /// aperiodic (not real-time)" until the phase-corrected anchor (§4.4).
    pub fn enqueue_nonrt(&mut self, tid: ThreadId, priority: u64) {
        debug_assert!(tid != self.idle);
        self.nonrt
            .push(priority, tid)
            .expect("nonrt overflow: capacity misconfigured");
    }

    /// Remove a thread from every queue (exit, migration, class change).
    pub fn dequeue(&mut self, tid: ThreadId) {
        self.pending.remove(tid);
        self.rt_run.remove(tid);
        self.nonrt.remove(tid);
        if let Some(t) = self.trace.wants(Kind::Dequeued) {
            t.emit(Record::Dequeued {
                cpu: self.cpu as u32,
                tid: tid as u32,
            });
        }
    }

    /// Number of queued aperiodic threads (work-steal victim load probe).
    pub fn nonrt_len(&self) -> usize {
        self.nonrt.len()
    }

    /// The queued aperiodic threads, front to back (steal-candidate
    /// inspection). Borrows the ring directly — the steal path probes
    /// victims on every idle pass and must not allocate a snapshot.
    pub fn nonrt_iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.nonrt.iter().map(|(_, t)| t)
    }

    /// (Re)initialize for a new trial, keeping the queues' backing storage
    /// when the capacity is unchanged (the common case in a sweep). The
    /// trace handle and the sabotage hooks are dropped: arming is per trial.
    pub fn reset(
        &mut self,
        cpu: CpuId,
        idle: ThreadId,
        cfg: SchedConfig,
        freq: Freq,
        capacity: usize,
    ) {
        self.cpu = cpu;
        self.cfg = cfg;
        self.freq = freq;
        self.load = CpuLoad::new();
        if self.pending.capacity() == capacity {
            self.pending.clear();
            self.rt_run.clear();
            self.nonrt.clear();
        } else {
            self.pending = FixedHeap::new(capacity);
            self.rt_run = FixedHeap::new(capacity);
            self.nonrt = RrQueue::new(capacity);
        }
        self.current = idle;
        self.idle = idle;
        self.stats = CpuSchedStats::default();
        self.last_outcome = None;
        self.layers_active = self.cfg.layers != LayerTable::default();
        self.layer_buckets = boot_buckets(&self.cfg.layers);
        self.layer_spent = [0; MAX_LAYERS];
        self.layer_throttle_mark = [false; MAX_LAYERS];
        self.layer_epoch = 0;
        self.last_invoke_ns = 0;
        self.current_layer = LAYER_IDLE;
        self.throttle_skipped = false;
        self.trace = None;
        self.sabotage_fifo = false;
        self.sabotage_layer = false;
    }

    /// Individual admission control: `nk_sched_thread_change_constraints`.
    /// On success the thread's class changes and its job state is reset;
    /// the *caller* must re-queue it (it is typically the running thread).
    pub fn change_constraints(
        &mut self,
        tid: ThreadId,
        st: &mut SchedThread,
        new: Constraints,
        now_ns: Nanos,
        anchor: bool,
    ) -> Result<(), AdmissionError> {
        self.swap_reservation(tid, &st.constraints, &new)?;
        st.constraints = new;
        st.job_active = false;
        st.job_started = false;
        st.job_blocked = false;
        st.remaining_cycles = 0;
        // A fresh contract restarts the overload bookkeeping.
        st.consecutive_misses = 0;
        st.widen_rounds = 0;
        if anchor {
            self.anchor(st, now_ns);
        }
        Ok(())
    }

    /// The one ledger step under every admission path (individual,
    /// Algorithm 1's local step, each member of a team transaction): swap
    /// `tid`'s reservation `old` for `new`, and on rejection put `old`
    /// back, counting a rollback when `old` was real-time. Ledger and
    /// records only — the caller owns the thread's state and anchoring.
    /// Into an armed trace it emits `[ConstraintsReleased] [SimCacheProbe]
    /// AdmitVerdict [AdmitRollback]`: the release on success, the rollback
    /// on rejection, both only for a real-time `old`; the probe whenever
    /// `HyperperiodSim` judged the candidate.
    pub(crate) fn swap_reservation(
        &mut self,
        tid: ThreadId,
        old: &Constraints,
        new: &Constraints,
    ) -> Result<(), AdmissionError> {
        self.load.release(old);
        let verdict = self.load.admit(&self.cfg, new);
        // The probe (when `HyperperiodSim` judged) belongs to the candidate's
        // verdict; take it before a rollback re-admission can overwrite it.
        let probe = self.load.take_probe();
        if verdict.is_err() {
            self.load
                .admit(&self.cfg, old)
                .expect("re-admitting previously admitted constraints");
            // The rollback's own probe pairs with no verdict: drop it.
            let _ = self.load.take_probe();
            if old.is_realtime() {
                self.load.note_rollback();
            }
        }
        if let Some(t) = &self.trace {
            if verdict.is_ok() && old.is_realtime() && t.wants(Kind::ConstraintsReleased) {
                t.emit(Record::ConstraintsReleased {
                    cpu: self.cpu as u32,
                    tid: tid as u32,
                });
            }
            self.emit_probe(t, probe);
            self.emit_verdict(t, tid, new, verdict.is_ok());
            if verdict.is_err() && old.is_realtime() {
                self.emit_rollback(t, tid, old);
            }
        }
        verdict
    }

    /// Unwind one already-swapped member of a failed team transaction: give
    /// back the `new` reservation [`Self::swap_reservation`] granted and
    /// restore `old`. Unlike a rejected swap this always counts a
    /// rollback, and the record says so whenever either side was
    /// real-time.
    pub(crate) fn restore_reservation(
        &mut self,
        tid: ThreadId,
        new: &Constraints,
        old: &Constraints,
    ) {
        self.load.release(new);
        self.load
            .admit(&self.cfg, old)
            .expect("re-admitting previously admitted constraints");
        let _ = self.load.take_probe();
        self.load.note_rollback();
        if let Some(t) = &self.trace {
            if new.is_realtime() || old.is_realtime() {
                self.emit_rollback(t, tid, old);
            }
        }
    }

    /// Record an admission verdict for `tid` into an armed trace. Like its
    /// two siblings it takes the handle, so a caller has tested for one,
    /// and tests its own kind before any record is built.
    fn emit_verdict(&self, t: &TraceHandle, tid: ThreadId, c: &Constraints, accepted: bool) {
        if !t.wants(Kind::AdmitVerdict) {
            return;
        }
        let (class, period_ns, slice_ns) = trace_shape(c);
        t.emit(Record::AdmitVerdict {
            cpu: self.cpu as u32,
            tid: tid as u32,
            accepted,
            enforced: self.cfg.admission_enabled,
            class,
            period_ns,
            slice_ns,
        });
    }

    /// Record the `HyperperiodSim` probe backing the next admission
    /// verdict on this CPU. No-op when the policy left no probe (the
    /// common closed-form case). Must precede the paired
    /// `emit_verdict` on the same CPU.
    fn emit_probe(&self, t: &TraceHandle, probe: Option<crate::admission::SimProbe>) {
        if let Some(p) = probe.filter(|_| t.wants(Kind::SimCacheProbe)) {
            t.emit(Record::SimCacheProbe {
                cpu: self.cpu as u32,
                hit: p.hit,
                feasible: p.feasible,
                sig: p.sig,
                overhead_ns: p.overhead_ns,
                window_cap_ns: p.window_cap_ns,
            });
        }
    }

    /// Record a rollback re-admission: a rejected verdict cleared `tid`'s
    /// mirror entry, but the ledger restored its previous constraints `c`.
    fn emit_rollback(&self, t: &TraceHandle, tid: ThreadId, c: &Constraints) {
        if !t.wants(Kind::AdmitRollback) {
            return;
        }
        let (class, period_ns, slice_ns) = trace_shape(c);
        t.emit(Record::AdmitRollback {
            cpu: self.cpu as u32,
            tid: tid as u32,
            enforced: self.cfg.admission_enabled,
            class,
            period_ns,
            slice_ns,
        });
    }

    /// Anchor the admission time Λ at `now_ns` and compute the first
    /// arrival. Used immediately for individual admission; group admission
    /// anchors at phase-correction time instead (§4.4).
    pub fn anchor(&self, st: &mut SchedThread, now_ns: Nanos) {
        st.admit_ns = now_ns;
        st.next_arrival_ns = match st.constraints {
            Constraints::Periodic { phase, .. } | Constraints::Sporadic { phase, .. } => {
                now_ns + phase
            }
            Constraints::Aperiodic { .. } => 0,
        };
    }

    /// Finalize a thread that is leaving the scheduler for good (exit):
    /// if its current job just completed, record the outcome that the next
    /// scheduling pass would have recorded.
    pub fn finalize_exit(&mut self, tid: ThreadId, st: &mut SchedThread, now_ns: Nanos) {
        if st.is_rt() && st.job_active && st.remaining_cycles == 0 {
            self.complete_job(tid, st, now_ns);
        }
    }

    /// Account `cycles` of execution by `tid` against its current job.
    pub fn account(&mut self, st: &mut SchedThread, cycles: Cycles) {
        st.stats.executed_cycles += cycles;
        if st.is_rt() && st.job_active {
            st.remaining_cycles = st.remaining_cycles.saturating_sub(cycles);
        } else if !st.is_rt() {
            st.quantum_left = st.quantum_left.saturating_sub(cycles);
        }
    }

    /// The core scheduling pass. `now_ns` is this CPU's wall-clock
    /// estimate; `threads` the global per-thread scheduling states; the
    /// current thread's execution must already be accounted.
    ///
    /// `current_runnable` tells the pass whether the current thread can
    /// keep the CPU (false when it blocked or exited).
    ///
    /// The machine pump batches same-timestamp events, but the node still
    /// invokes this pass once per kernel-visible interrupt, never once per
    /// batch: two same-instant interrupts on one CPU are separated by the
    /// first pass's busy window, so the second defers past it — collapsing
    /// them into one pass would erase that deferral and change every
    /// downstream timestamp. Batching stops at the hardware layer.
    pub fn invoke(
        &mut self,
        now_ns: Nanos,
        threads: &mut [SchedThread],
        reason: InvokeReason,
        current_runnable: bool,
    ) -> Decision {
        self.stats.invocations += 1;
        match reason {
            InvokeReason::Timer => self.stats.timer_invocations += 1,
            InvokeReason::Kick => self.stats.kick_invocations += 1,
            _ => {}
        }
        self.last_outcome = None;

        let prev = self.current;

        // 0. Layer bandwidth accounting: replenish buckets at deterministic
        // machine-time boundaries, then charge the wall span since the
        // previous pass to the layer that was dispatched then. Skipped
        // entirely (and byte-identically) on the default single-layer
        // config.
        if self.layers_active {
            self.throttle_skipped = false;
            self.layer_account(now_ns);
        }

        // 1. Handle the current thread's state.
        if prev != self.idle {
            let st = &mut threads[prev];
            if !current_runnable {
                // Blocked or exited: the node moved it out already; note a
                // forfeited job if one was active.
                if st.is_rt() && st.job_active {
                    st.job_blocked = true;
                }
            } else {
                if self.cfg.degrade.enabled
                    && st.job_active
                    && st.remaining_cycles > 0
                    && now_ns > st.deadline_ns
                    && matches!(st.constraints, Constraints::Sporadic { .. })
                {
                    // Overrun: a blown sporadic burst would outrank every
                    // periodic deadline in EDF order forever. Demote it.
                    self.demote(prev, st);
                    self.stats.degrade.sporadic_demotions += 1;
                    G_SPORADIC_DEMOTIONS.fetch_add(1, Ordering::Relaxed);
                }
                if st.is_rt() && st.job_active && st.remaining_cycles == 0 {
                    // Job complete: classify and schedule the next arrival.
                    self.complete_job(prev, st, now_ns);
                }
                // Re-queue below after pumping (so selection sees it).
            }
        }

        // 2. Pump arrivals from pending into the RT run queue.
        while let Some((arrival, tid)) = self.pending.peek() {
            if arrival > now_ns {
                break;
            }
            self.pending.pop();
            let st = &mut threads[tid];
            self.activate_job(st, arrival);
            self.rt_run
                .push(st.deadline_ns, tid)
                .expect("rt_run overflow");
            if let Some(t) = self.trace.wants(Kind::JobArrive) {
                t.emit(Record::JobArrive {
                    cpu: self.cpu as u32,
                    tid: tid as u32,
                    arrival_ns: arrival,
                    deadline_ns: threads[tid].deadline_ns,
                });
            }
        }

        // Re-queue a still-runnable current thread so selection is uniform.
        if prev != self.idle && current_runnable {
            let st = &mut threads[prev];
            self.enqueue_current(prev, st, now_ns);
        }

        // 3. Select.
        let next = self.select(now_ns, threads);
        let switched = next != prev;
        if switched {
            self.stats.switches += 1;
        }
        // The chosen thread leaves the queues while it runs.
        if next != self.idle {
            self.dequeue_running(next);
            let st = &mut threads[next];
            if st.is_rt() && st.job_active {
                st.job_started = true;
            } else if !st.is_rt() && st.quantum_left == 0 {
                st.quantum_left = self.freq.ns_to_cycles_ceil(self.cfg.aperiodic_quantum_ns);
            }
            if switched {
                st.stats.dispatches += 1;
            }
        }
        self.current = next;
        if self.layers_active {
            // The span until the next pass is charged to this layer; the
            // class is read at dispatch time, so a later demotion cannot
            // desynchronize the charge from the trace mirror.
            self.current_layer = if next == self.idle {
                LAYER_IDLE
            } else {
                self.cfg.layers.layer_of(&threads[next].constraints) as u8
            };
        }

        // 4. Choose the next timer.
        let (timer_exec_cycles, timer_wall_ns) = self.next_timer(now_ns, threads, next);
        let next_is_rt = next != self.idle && threads[next].is_rt();
        if let Some(t) = &self.trace {
            if switched && prev != self.idle && current_runnable && t.wants(Kind::Preempt) {
                t.emit(Record::Preempt {
                    cpu: self.cpu as u32,
                    tid: prev as u32,
                    now_ns,
                });
            }
        }
        if let Some(t) = self.trace.wants(Kind::Dispatch) {
            let st = &threads[next];
            let in_job_rt = next != self.idle && st.is_rt() && st.job_active;
            t.emit(Record::Dispatch {
                cpu: self.cpu as u32,
                tid: next as u32,
                now_ns,
                deadline_ns: if in_job_rt {
                    st.deadline_ns
                } else {
                    Nanos::MAX
                },
                is_rt: in_job_rt,
                is_idle: next == self.idle,
                switched,
                layer: if next == self.idle {
                    nautix_trace::TRACE_LAYER_IDLE
                } else {
                    self.cfg.layers.layer_of(&st.constraints) as u32
                },
            });
        }
        Decision {
            next,
            switched,
            timer_exec_cycles,
            timer_wall_ns,
            next_is_rt,
        }
    }

    fn activate_job(&self, st: &mut SchedThread, arrival_ns: Nanos) {
        match st.constraints {
            Constraints::Periodic { period, slice, .. } => {
                st.job_active = true;
                st.job_started = false;
                st.job_blocked = false;
                st.deadline_ns = arrival_ns + period;
                st.next_arrival_ns = arrival_ns + period;
                st.remaining_cycles = self.freq.ns_to_cycles_ceil(slice);
                st.stats.arrivals += 1;
            }
            Constraints::Sporadic { size, deadline, .. } => {
                st.job_active = true;
                st.job_started = false;
                st.job_blocked = false;
                st.deadline_ns = st.admit_ns + deadline;
                st.remaining_cycles = self.freq.ns_to_cycles_ceil(size);
                st.stats.arrivals += 1;
            }
            Constraints::Aperiodic { .. } => unreachable!("aperiodic threads never pend"),
        }
    }

    fn complete_job(&mut self, tid: ThreadId, st: &mut SchedThread, now_ns: Nanos) {
        let outcome = if st.job_blocked {
            JobOutcome::Forfeited
        } else if now_ns <= st.deadline_ns {
            st.stats.met += 1;
            JobOutcome::Met
        } else {
            st.stats.missed += 1;
            let late = now_ns - st.deadline_ns;
            st.stats.miss_times.push(late);
            JobOutcome::Missed { late_ns: late }
        };
        self.last_outcome = Some(outcome);
        match outcome {
            JobOutcome::Met => st.consecutive_misses = 0,
            JobOutcome::Missed { .. } => st.consecutive_misses += 1,
            JobOutcome::Forfeited => {}
        }
        st.job_active = false;
        if let Some(t) = self.trace.wants(Kind::JobComplete) {
            t.emit(Record::JobComplete {
                cpu: self.cpu as u32,
                tid: tid as u32,
                now_ns,
                deadline_ns: st.deadline_ns,
                outcome: match outcome {
                    JobOutcome::Met => TraceOutcome::Met,
                    JobOutcome::Missed { .. } => TraceOutcome::Missed,
                    JobOutcome::Forfeited => TraceOutcome::Forfeited,
                },
            });
        }
        // A sporadic burst decays to the aperiodic class.
        if let Constraints::Sporadic {
            aperiodic_priority, ..
        } = st.constraints
        {
            self.load.release(&st.constraints);
            st.constraints = Constraints::Aperiodic {
                priority: aperiodic_priority,
            };
            if let Some(t) = self.trace.wants(Kind::ConstraintsReleased) {
                t.emit(Record::ConstraintsReleased {
                    cpu: self.cpu as u32,
                    tid: tid as u32,
                });
            }
        }
        // Sustained interference on a periodic thread: widen or demote.
        if self.cfg.degrade.enabled && st.consecutive_misses >= self.cfg.degrade.miss_threshold {
            if let Constraints::Periodic {
                phase,
                period,
                slice,
            } = st.constraints
            {
                self.widen_or_demote(tid, st, phase, period, slice);
            }
        }
    }

    /// Demote a thread to the aperiodic class, releasing its reservation
    /// and abandoning any active job.
    fn demote(&mut self, tid: ThreadId, st: &mut SchedThread) {
        self.load.release(&st.constraints);
        self.become_aperiodic(tid, st);
    }

    /// The class change of a demotion, for a thread whose reservation is
    /// already released.
    fn become_aperiodic(&mut self, tid: ThreadId, st: &mut SchedThread) {
        let priority = match st.constraints {
            Constraints::Sporadic {
                aperiodic_priority, ..
            } => aperiodic_priority,
            _ => 1,
        };
        st.constraints = Constraints::Aperiodic { priority };
        st.job_active = false;
        st.job_started = false;
        st.remaining_cycles = 0;
        st.consecutive_misses = 0;
        st.widen_rounds = 0;
        if let Some(t) = self.trace.wants(Kind::ConstraintsReleased) {
            t.emit(Record::ConstraintsReleased {
                cpu: self.cpu as u32,
                tid: tid as u32,
            });
        }
    }

    /// Degradation response for a periodic thread past the miss threshold:
    /// revoke the admission and resubmit with the period widened by the
    /// policy's percentage (same slice — lower utilization, more slack per
    /// job). Once the widening rounds are exhausted, or if the widened
    /// reservation is rejected, fall back to aperiodic demotion.
    fn widen_or_demote(
        &mut self,
        tid: ThreadId,
        st: &mut SchedThread,
        phase: Nanos,
        period: Nanos,
        slice: Nanos,
    ) {
        if st.widen_rounds >= self.cfg.degrade.max_widen {
            self.demote(tid, st);
            self.stats.degrade.periodic_demotions += 1;
            G_PERIODIC_DEMOTIONS.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Widen the period, keeping it on the granularity grid.
        let g = self.cfg.granularity_ns.max(1);
        let mut widened = period + period * self.cfg.degrade.widen_pct as u64 / 100;
        widened = widened.div_ceil(g) * g;
        if widened <= period {
            widened = period + g;
        }
        self.load.release(&st.constraints);
        let new = Constraints::Periodic {
            phase,
            period: widened,
            slice,
        };
        let widened_verdict = self.load.admit(&self.cfg, &new);
        let probe = self.load.take_probe();
        match widened_verdict {
            Ok(()) => {
                st.constraints = new;
                st.widen_rounds += 1;
                st.consecutive_misses = 0;
                self.stats.degrade.periodic_widenings += 1;
                G_PERIODIC_WIDENINGS.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = self.trace.wants(Kind::ConstraintsReleased) {
                    t.emit(Record::ConstraintsReleased {
                        cpu: self.cpu as u32,
                        tid: tid as u32,
                    });
                    self.emit_probe(t, probe);
                    self.emit_verdict(t, tid, &new, true);
                }
            }
            Err(_) => {
                // The reservation is already released (demote() would
                // double-release). No verdict is emitted here, so the
                // widened admit's probe is dropped with it — probes pair
                // only with emitted verdicts.
                self.become_aperiodic(tid, st);
                self.stats.degrade.periodic_demotions += 1;
                G_PERIODIC_DEMOTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Put the (runnable) outgoing current thread back in a queue.
    fn enqueue_current(&mut self, tid: ThreadId, st: &mut SchedThread, now_ns: Nanos) {
        if st.is_rt() {
            if st.job_active && st.remaining_cycles > 0 {
                self.push_rt_run(tid, st.deadline_ns);
            } else {
                // For a completed periodic job next_arrival is already the
                // deadline of the finished job; if that instant has passed
                // (a miss), resynchronize to a strictly future arrival.
                if st.next_arrival_ns <= now_ns {
                    self.resync_arrival(st, now_ns);
                    if st.next_arrival_ns <= now_ns {
                        st.next_arrival_ns = now_ns + 1;
                    }
                }
                self.push_pending(tid, st.next_arrival_ns);
            }
        } else {
            self.enqueue_nonrt(tid, st.aperiodic_priority());
        }
    }

    fn dequeue_running(&mut self, tid: ThreadId) {
        self.rt_run.remove(tid);
        self.nonrt.remove(tid);
    }

    /// Replenish the layer buckets when a window boundary has passed, then
    /// charge the wall span since the previous pass. Called only when
    /// `layers_active`.
    fn layer_account(&mut self, now_ns: Nanos) {
        let layers = self.cfg.layers;
        let epoch = now_ns / layers.replenish_ns;
        if epoch > self.layer_epoch {
            // One refill per pass even if several windows elapsed: the
            // flushed `spent` covers everything charged since the previous
            // refill, which is what the oracle's bandwidth bound checks.
            for l in 0..layers.count() {
                if let Some(t) = self.trace.wants(Kind::LayerReplenish) {
                    t.emit(Record::LayerReplenish {
                        cpu: self.cpu as u32,
                        layer: l as u32,
                        spent_ns: self.layer_spent[l],
                        cap_ns: layers.cap_ns(l),
                    });
                }
                let mut cap = layers.cap_ns(l) as i64;
                if self.sabotage_layer {
                    cap *= 4;
                }
                self.layer_buckets[l] = cap;
                self.layer_spent[l] = 0;
                self.layer_throttle_mark[l] = false;
                self.stats.layer_replenishes += 1;
            }
            self.layer_epoch = epoch;
        }
        let span = now_ns.saturating_sub(self.last_invoke_ns);
        self.last_invoke_ns = now_ns;
        if span == 0 || self.current_layer == LAYER_IDLE {
            return;
        }
        let l = self.current_layer as usize;
        self.layer_spent[l] += span;
        if !layers.spec(l).exempt() {
            self.layer_buckets[l] -= span as i64;
            if self.layer_buckets[l] <= 0 && !self.layer_throttle_mark[l] {
                self.layer_throttle_mark[l] = true;
                self.stats.layer_throttles += 1;
                if let Some(t) = self.trace.wants(Kind::LayerThrottle) {
                    t.emit(Record::LayerThrottle {
                        cpu: self.cpu as u32,
                        layer: l as u32,
                        now_ns,
                    });
                }
            }
        }
    }

    /// Which layers are currently throttled (finite guarantee, exhausted
    /// bucket). Exempt layers (guarantee + burst covering the whole CPU)
    /// never throttle.
    fn throttled_mask(&self) -> [bool; MAX_LAYERS] {
        let mut mask = [false; MAX_LAYERS];
        for (l, m) in mask.iter_mut().enumerate().take(self.cfg.layers.count()) {
            *m = !self.cfg.layers.spec(l).exempt() && self.layer_buckets[l] <= 0;
        }
        mask
    }

    /// The layer the thread's current class maps to.
    fn layer_of_thread(&self, st: &SchedThread) -> usize {
        self.cfg.layers.layer_of(&st.constraints)
    }

    /// Lazy mode's latest feasible start of a job: its remaining work
    /// (rounded up) and the configured margin before its deadline.
    #[inline]
    fn latest_start(&self, st: &SchedThread) -> Nanos {
        let remaining_ns =
            self.freq.cycles_to_ns(st.remaining_cycles) + 1 + self.cfg.lazy_margin_ns;
        st.deadline_ns.saturating_sub(remaining_ns)
    }

    /// Selection with one or more layers throttled: the same EDF (or lazy)
    /// order restricted to eligible layers, background yielding to batch
    /// yielding to RT by construction — a throttled layer's threads are
    /// simply invisible until the next replenish. Runs a deterministic
    /// `(deadline, tid)` min-scan instead of the heap peek; this path is
    /// never reached on the default config.
    fn select_throttled(
        &mut self,
        now_ns: Nanos,
        threads: &[SchedThread],
        throttled: &[bool; MAX_LAYERS],
    ) -> ThreadId {
        let mut skipped = false;
        let mut best: Option<(Nanos, ThreadId)> = None;
        for (deadline, tid) in self.rt_run.iter() {
            if throttled[self.layer_of_thread(&threads[tid])] {
                skipped = true;
                continue;
            }
            if self.cfg.mode == SchedMode::Lazy {
                let st = &threads[tid];
                if !st.job_started && now_ns < self.latest_start(st) {
                    continue;
                }
            }
            match best {
                Some((d, t)) if (d, t) <= (deadline, tid) => {}
                _ => best = Some((deadline, tid)),
            }
        }
        let mut pick = best.map(|(_, tid)| tid);
        if pick.is_none() {
            for tid in self.nonrt.iter().map(|(_, t)| t) {
                if throttled[self.layer_of_thread(&threads[tid])] {
                    skipped = true;
                    continue;
                }
                pick = Some(tid);
                break;
            }
        }
        if skipped {
            self.throttle_skipped = true;
        }
        pick.unwrap_or(self.idle)
    }

    /// EDF selection with eagerness (or the lazy variant).
    fn select(&mut self, now_ns: Nanos, threads: &[SchedThread]) -> ThreadId {
        if self.layers_active {
            let throttled = self.throttled_mask();
            if throttled.iter().any(|&t| t) {
                return self.select_throttled(now_ns, threads, &throttled);
            }
        }
        match self.cfg.mode {
            SchedMode::Eager => {
                if self.sabotage_fifo {
                    let mut first: Option<ThreadId> = None;
                    for (_, tid) in self.rt_run.iter() {
                        first = Some(first.map_or(tid, |f| f.min(tid)));
                    }
                    if let Some(tid) = first {
                        return tid;
                    }
                }
                if let Some((_, tid)) = self.rt_run.peek() {
                    return tid;
                }
            }
            SchedMode::Lazy => {
                // Run an RT job only if it already started or its latest
                // feasible start has been reached.
                let mut best: Option<(Nanos, ThreadId)> = None;
                for (deadline, tid) in self.rt_run.iter() {
                    let st = &threads[tid];
                    if st.job_started || now_ns >= self.latest_start(st) {
                        match best {
                            Some((d, _)) if d <= deadline => {}
                            _ => best = Some((deadline, tid)),
                        }
                    }
                }
                if let Some((_, tid)) = best {
                    return tid;
                }
            }
        }
        if let Some((_, tid)) = self.nonrt.peek() {
            return tid;
        }
        self.idle
    }

    /// Next one-shot request: the earliest of pending arrivals, the
    /// running RT job's slice end, the aperiodic quantum end, and (lazy)
    /// the latest-start instants of delayed jobs. Execution-relative and
    /// wall-clock requests are kept apart: only the former starts counting
    /// when the dispatched thread actually resumes.
    fn next_timer(
        &self,
        now_ns: Nanos,
        threads: &[SchedThread],
        next: ThreadId,
    ) -> (Option<Cycles>, Option<Nanos>) {
        let mut wall: Option<Nanos> = None;
        let mut consider_wall = |at: Nanos| {
            wall = Some(wall.map_or(at, |b: Nanos| b.min(at)));
        };
        let mut exec: Option<Cycles> = None;
        if let Some((arrival, _)) = self.pending.peek() {
            consider_wall(arrival);
        }
        if next != self.idle {
            let st = &threads[next];
            if st.is_rt() && st.job_active {
                exec = Some(st.remaining_cycles.max(1));
            } else if !st.is_rt() && !self.nonrt.is_empty() {
                // Round-robin preemption only matters with competition.
                exec = Some(st.quantum_left.max(1));
            }
        }
        if self.cfg.mode == SchedMode::Lazy {
            for (_, tid) in self.rt_run.iter() {
                let st = &threads[tid];
                if !st.job_started {
                    consider_wall(self.latest_start(st).max(now_ns + 1));
                }
            }
        }
        // A preempted-but-queued RT thread whose deadline could pass
        // unnoticed: wake at the earliest queued deadline as a backstop.
        if let Some((deadline, _)) = self.rt_run.peek() {
            if next == self.idle || !threads[next].is_rt() {
                consider_wall(deadline.max(now_ns + 1));
            }
        }
        if self.layers_active {
            let layers = &self.cfg.layers;
            // A finite-layer thread must be re-evaluated no later than its
            // bucket exhaustion, bounding the overdraft to one timer
            // quantum.
            if next != self.idle {
                let l = layers.layer_of(&threads[next].constraints);
                if !layers.spec(l).exempt() {
                    consider_wall(now_ns + self.layer_buckets[l].max(1) as u64);
                }
            }
            // A skipped (throttled) thread becomes eligible again at the
            // next replenish boundary; without this wake-up an otherwise
            // idle CPU would sleep through it.
            if self.throttle_skipped {
                consider_wall((now_ns / layers.replenish_ns + 1) * layers.replenish_ns);
            }
        }
        (exec, wall)
    }

    /// Budget (cycles) available for inline size-tagged tasks: the gap
    /// until the next RT arrival when no RT job is runnable (§3.1). The
    /// currently dispatched thread counts as runnable RT work.
    pub fn inline_task_budget(&self, now_ns: Nanos, threads: &[SchedThread]) -> Cycles {
        if !self.rt_run.is_empty() {
            return 0;
        }
        if self.current != self.idle {
            let st = &threads[self.current];
            if st.is_rt() && st.job_active {
                return 0;
            }
        }
        match self.pending.peek() {
            Some((arrival, _)) => self.freq.ns_to_cycles(arrival.saturating_sub(now_ns)),
            None => Cycles::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 64;

    fn mk() -> (LocalScheduler, Vec<SchedThread>) {
        let cfg = SchedConfig::default();
        // tid 0 is the idle thread by convention in these tests.
        let sched = LocalScheduler::new(0, 0, cfg, Freq::phi(), CAP);
        let threads: Vec<SchedThread> = (0..8).map(|_| SchedThread::new_aperiodic()).collect();
        (sched, threads)
    }

    /// Admit a periodic thread at wall time `now` and queue it.
    fn admit_periodic(
        s: &mut LocalScheduler,
        ts: &mut [SchedThread],
        tid: ThreadId,
        now: Nanos,
        phase: Nanos,
        period: Nanos,
        slice: Nanos,
    ) {
        let c = Constraints::Periodic {
            phase,
            period,
            slice,
        };
        s.change_constraints(tid, &mut ts[tid], c, now, true)
            .unwrap();
        s.enqueue(tid, &mut ts[tid], now);
    }

    #[test]
    fn idle_when_nothing_ready() {
        let (mut s, mut ts) = mk();
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 0);
        assert!(!d.next_is_rt);
    }

    #[test]
    fn periodic_thread_waits_for_phase_then_runs() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        // Before the first arrival (phase 100 us): idle, timer at arrival.
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 0);
        assert_eq!(d.timer_wall_ns, Some(100_000));
        assert_eq!(d.timer_exec_cycles, None);
        // At the arrival: runs, timer at slice end.
        let d = s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 1);
        assert!(d.next_is_rt);
        assert!(d.switched);
        assert_eq!(
            d.timer_exec_cycles.unwrap(),
            Freq::phi().ns_to_cycles_ceil(50_000)
        );
    }

    #[test]
    fn slice_exhaustion_completes_job_and_reschedules() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        s.invoke(100_000, &mut ts, InvokeReason::Timer, false); // dispatch
                                                                // Burn the whole slice; completion lands before the 200 us deadline.
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        let d = s.invoke(150_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(s.last_outcome, Some(JobOutcome::Met));
        assert_eq!(d.next, 0, "back to idle after the slice");
        assert_eq!(ts[1].stats.met, 1);
        // Next arrival at 200_000.
        assert_eq!(d.timer_wall_ns, Some(200_000));
    }

    #[test]
    fn late_completion_counts_a_miss() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        // Completion observed 5 us after the 200_000 deadline.
        s.invoke(205_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(s.last_outcome, Some(JobOutcome::Missed { late_ns: 5_000 }));
        assert_eq!(ts[1].stats.missed, 1);
        assert!((ts[1].stats.miss_rate() - 1.0).abs() < 1e-12);
        // The thread resynchronizes to a future arrival.
        assert!(ts[1].next_arrival_ns > 205_000);
    }

    #[test]
    fn edf_order_among_two_rt_threads() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 0, 200_000, 20_000); // deadline 200k
        admit_periodic(&mut s, &mut ts, 2, 0, 0, 100_000, 20_000); // deadline 100k
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 2, "earlier deadline must win");
        // Thread 2's job completes; thread 1 takes over.
        let c = ts[2].remaining_cycles;
        s.account(&mut ts[2], c);
        let d = s.invoke(20_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(d.next, 1);
    }

    #[test]
    fn rt_preempts_aperiodic() {
        let (mut s, mut ts) = mk();
        // Aperiodic thread 3 running.
        s.enqueue(3, &mut ts[3], 0);
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 3);
        // Now an RT thread arrives (phase 50 us).
        admit_periodic(&mut s, &mut ts, 1, 0, 50_000, 100_000, 50_000);
        let d = s.invoke(50_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(d.next, 1);
        assert!(d.switched);
    }

    #[test]
    fn aperiodic_round_robin_rotates_on_quantum() {
        let (mut s, mut ts) = mk();
        for tid in [3, 4] {
            s.enqueue(tid, &mut ts[tid], 0);
        }
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 3);
        // Quantum: 100 ms at 10 Hz.
        assert_eq!(
            d.timer_exec_cycles.unwrap(),
            Freq::phi().ns_to_cycles_ceil(100_000_000)
        );
        // Burn the quantum; the other thread takes over.
        let c = ts[3].quantum_left;
        s.account(&mut ts[3], c);
        let d = s.invoke(100_000_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(d.next, 4);
    }

    #[test]
    fn sporadic_decays_to_aperiodic_after_burst() {
        let (mut s, mut ts) = mk();
        let c = Constraints::sporadic(5_000, 50_000).build();
        s.change_constraints(1, &mut ts[1], c, 0, true).unwrap();
        s.enqueue(1, &mut ts[1], 0);
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 1);
        assert!(d.next_is_rt);
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        let d = s.invoke(5_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(s.last_outcome, Some(JobOutcome::Met));
        assert!(!ts[1].is_rt(), "burst done: aperiodic now");
        assert_eq!(d.next, 1, "still the only runnable thread");
        assert!(!d.next_is_rt);
    }

    #[test]
    fn blocking_forfeits_the_job() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        // The thread blocks mid-job.
        let d = s.invoke(120_000, &mut ts, InvokeReason::Block, false);
        assert_eq!(d.next, 0);
        assert!(ts[1].job_blocked);
        // It wakes later in the same period and is re-queued.
        s.enqueue(1, &mut ts[1], 150_000);
        let d = s.invoke(150_000, &mut ts, InvokeReason::Wake, false);
        assert_eq!(d.next, 1);
        // Completing now records a forfeit, not a met/miss.
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        s.invoke(199_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(s.last_outcome, Some(JobOutcome::Forfeited));
        assert_eq!(ts[1].stats.met, 0);
        assert_eq!(ts[1].stats.missed, 0);
    }

    #[test]
    fn lazy_mode_delays_dispatch_to_latest_start() {
        let (mut s, mut ts) = mk();
        s.cfg.mode = SchedMode::Lazy;
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 20_000);
        // At the arrival, lazy does NOT dispatch: the latest start for a
        // 20 us slice due at 200 us is ~180 us minus the 15 us margin.
        let d = s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 0, "lazy must idle until the latest start");
        let timer_ns = d.timer_wall_ns.unwrap();
        assert!(
            (163_000..=165_100).contains(&timer_ns),
            "timer at {timer_ns}"
        );
        // Past the latest start it dispatches.
        let d = s.invoke(165_200, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 1);
    }

    #[test]
    fn eager_mode_dispatches_immediately() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 20_000);
        let d = s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 1, "eager runs a runnable RT job at once");
    }

    #[test]
    fn inline_task_budget_is_gap_to_next_arrival() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 0, 1_000_000, 100_000);
        s.invoke(0, &mut ts, InvokeReason::Timer, false);
        // Job active: no inline budget.
        assert_eq!(s.inline_task_budget(0, &ts), 0);
        // Complete the job; budget is the gap to the next arrival.
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        s.invoke(100_000, &mut ts, InvokeReason::Timer, true);
        let budget = s.inline_task_budget(100_000, &ts);
        assert_eq!(budget, Freq::phi().ns_to_cycles(900_000));
    }

    #[test]
    fn dequeue_removes_everywhere() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 0, 100_000, 10_000);
        assert!(s.resident() > 1);
        s.dequeue(1);
        let d = s.invoke(200_000, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 0);
        assert!(!d.timer_armed());
    }

    #[test]
    fn change_constraints_failure_keeps_old_class() {
        let (mut s, mut ts) = mk();
        let big = Constraints::periodic(100_000, 70_000).build();
        s.change_constraints(1, &mut ts[1], big, 0, true).unwrap();
        let too_big = Constraints::periodic(100_000, 90_000).build();
        let err = s.change_constraints(2, &mut ts[2], too_big, 0, true);
        assert!(err.is_err());
        assert!(!ts[2].is_rt());
        assert_eq!(ts[1].constraints, big);
        // The ledger still reflects only the first admission.
        assert_eq!(s.load.periodic_count(), 1);
    }

    #[test]
    fn sporadic_overrun_demotes_when_policy_enabled() {
        use crate::admission::DegradePolicy;
        let (mut s, mut ts) = mk();
        s.cfg.degrade = DegradePolicy::enabled();
        let c = Constraints::sporadic(5_000, 50_000).build();
        s.change_constraints(1, &mut ts[1], c, 0, true).unwrap();
        s.enqueue(1, &mut ts[1], 0);
        let d = s.invoke(0, &mut ts, InvokeReason::Timer, false);
        assert_eq!(d.next, 1);
        // Burn only part of the burst; the deadline (50 us) passes with
        // work outstanding — interference stretched the burst.
        let c = ts[1].remaining_cycles / 2;
        s.account(&mut ts[1], c);
        let d = s.invoke(60_000, &mut ts, InvokeReason::Timer, true);
        assert!(!ts[1].is_rt(), "blown burst must stop being RT");
        assert_eq!(s.stats.degrade.sporadic_demotions, 1);
        assert_eq!(s.load.sporadic_util_ppm(), 0, "reservation released");
        assert_eq!(d.next, 1, "still runnable, now aperiodic");
        assert!(!d.next_is_rt);
    }

    #[test]
    fn consecutive_misses_widen_then_demote_periodic() {
        use crate::admission::DegradePolicy;
        let (mut s, mut ts) = mk();
        s.cfg.degrade = DegradePolicy {
            enabled: true,
            miss_threshold: 1,
            widen_pct: 25,
            max_widen: 1,
        };
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        // First job misses: completion 5 us past the 200 us deadline.
        s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        s.invoke(205_000, &mut ts, InvokeReason::Timer, true);
        assert_eq!(s.last_outcome, Some(JobOutcome::Missed { late_ns: 5_000 }));
        // Degradation widened the period by 25%.
        assert_eq!(
            ts[1].constraints,
            Constraints::Periodic {
                phase: 100_000,
                period: 125_000,
                slice: 50_000,
            }
        );
        assert_eq!(ts[1].widen_rounds, 1);
        assert_eq!(s.stats.degrade.periodic_widenings, 1);
        // The next job misses too; the single widening round is spent, so
        // the thread is demoted to aperiodic and the ledger is emptied.
        let next = ts[1].next_arrival_ns;
        s.invoke(next, &mut ts, InvokeReason::Timer, false);
        let c = ts[1].remaining_cycles;
        s.account(&mut ts[1], c);
        s.invoke(next + 130_000, &mut ts, InvokeReason::Timer, true);
        assert!(!ts[1].is_rt());
        assert_eq!(s.stats.degrade.periodic_demotions, 1);
        assert_eq!(s.load.periodic_count(), 0);
    }

    #[test]
    fn degradation_disabled_by_default_leaves_classes_alone() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        for k in 1..=5u64 {
            let now = ts[1].next_arrival_ns;
            s.invoke(now, &mut ts, InvokeReason::Timer, false);
            let c = ts[1].remaining_cycles;
            s.account(&mut ts[1], c);
            // Complete every job late.
            s.invoke(now + 105_000, &mut ts, InvokeReason::Timer, true);
            assert_eq!(ts[1].stats.missed, k);
        }
        assert!(ts[1].is_rt(), "no demotion without the policy");
        assert_eq!(s.stats.degrade.total(), 0);
        assert_eq!(ts[1].consecutive_misses, 5);
    }

    #[test]
    fn dispatch_counter_increments_on_switch_in() {
        let (mut s, mut ts) = mk();
        admit_periodic(&mut s, &mut ts, 1, 0, 100_000, 100_000, 50_000);
        s.invoke(100_000, &mut ts, InvokeReason::Timer, false);
        assert_eq!(ts[1].stats.dispatches, 1);
        // Staying on the CPU across an invocation is not a new dispatch.
        s.invoke(110_000, &mut ts, InvokeReason::Kick, true);
        assert_eq!(ts[1].stats.dispatches, 1);
    }
}

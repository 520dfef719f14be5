//! The global scheduler: a full node running the hard real-time stack.
//!
//! "The global scheduler is the distributed system comprising the local
//! schedulers and their interactions" (§3). [`Node`] owns the machine
//! model, the kernel substrate (thread table, task queues, interrupt
//! steering) and one [`LocalScheduler`] per CPU, and drives them from the
//! machine's event stream:
//!
//! * timer interrupts and kick IPIs invoke the local scheduler,
//! * operation completions resume thread programs,
//! * device interrupts run bounded handlers on the interrupt-laden
//!   partition,
//! * wakeups deliver sleeps, barrier releases, and collective departures.
//!
//! This file is construction, that event pump (interrupt, op-completion
//! and wakeup paths, timer programming, `dispatch`) and the syscall
//! switch. The interactions that tie CPUs together live beside it:
//! boot-time time synchronization (§3.4) is [`crate::timesync`]; hard
//! real-time groups — the group syscalls, group admission control
//! (Algorithm 1, §4.3) and phase correction (§4.4) — are `gang.rs`, which
//! the pump enters at one `handle_syscall` arm, at the "is this thread
//! inside Algorithm 1" test of `dispatch` and `make_ready`, at boot, and
//! through [`Node::admit`]'s team target; the idle loop with its work
//! stealer, the reaper and the backlog bitmap (§3.4) are `global.rs`,
//! entered at `dispatch`'s idle test, the steal-poll wakeup, `thread_exit`
//! and `spawn_inner`'s reap under table pressure.
//!
//! ## Modeling notes (documented substitutions)
//!
//! * Threads blocked in barriers/collectives yield the CPU rather than
//!   spin. Every experiment in the paper binds one thread per CPU, where
//!   the two are indistinguishable from the measurement's point of view.
//! * Unsized lightweight tasks are executed from the idle loop (the
//!   "task-exec helper thread" folded into the idle thread); size-tagged
//!   tasks run inline in the scheduler when the gap to the next real-time
//!   arrival allows, exactly as in §3.1.
//! * The idle-loop work stealer (`global.rs`) arms a retry poll only while
//!   stealable work exists somewhere, keeping the simulation event-driven;
//!   the steal itself uses power-of-two-random-choices victim selection
//!   (§3.4).

use crate::admission::{SchedConfig, SimCache};
use crate::config::HarnessConfig;
use crate::gang::Gangs;
use crate::global::Global;
use crate::local::{InvokeReason, LocalScheduler, SchedThread};
use crate::oracle::{OracleConfig, OracleSuite};
use crate::request::{AdmissionOutcome, AdmissionRequest, AdmissionTarget};
use crate::timesync::{self, TimeSync};
use nautix_des::{Cycles, Freq, Nanos};
use nautix_groups::GroupRegistry;
use nautix_hw::{CostModel, CpuId, Machine, MachineConfig, MachineEvent, TopoMap};
use nautix_kernel::{
    Action, AdmissionError, Constraints, GroupId, Program, ResumeCx, Steering, SysCall, SysResult,
    TaskQueues, Thread, ThreadId, ThreadState, ThreadTable, WaitKind,
};
use nautix_trace::{
    narrow, Kind, Observer, Record, TraceHandle, Tracing, DEFAULT_RING_CAPACITY, TRACE_TID_IDLE,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Node-wide configuration: one of the three constructors below, these
/// seven public fields adjusted, then [`Node::new`] or [`Node::reset`] is
/// the construction path. What a run records is armed on the booted node,
/// per trial: [`Node::enable_oracles`] / [`Node::enable_oracles_with`], the
/// observers [`Node::observe`] registers on its trace stream (a figure's
/// dispatch stamps, timeline, scope, overhead or group-admission
/// timings), and for the oracle regression tests
/// [`Node::set_sabotage_fifo`] / [`Node::set_sabotage_layer`]. `boot`
/// hands `phase_correction` to gang coordination (`gang.rs`) and
/// `steal_poll_ns` to the idle path (`global.rs`); the rest configure the
/// pump itself.
pub struct NodeConfig {
    /// The machine to model.
    pub machine: MachineConfig,
    /// Boot-time local-scheduler configuration (identical on every CPU —
    /// a prerequisite of communication-free gang scheduling, §4.1).
    pub sched: SchedConfig,
    /// CPUs receiving external device interrupts (§3.5).
    pub laden: Vec<CpuId>,
    /// Rounds of the boot-time TSC calibration (0 skips calibration and
    /// leaves the raw boot skew in place).
    pub calib_rounds: u32,
    /// System-wide thread bound.
    pub max_threads: usize,
    /// Idle work-steal poll interval: how long an idle CPU that saw
    /// stealable work elsewhere, but did not get any, waits to retry.
    pub steal_poll_ns: Nanos,
    /// Apply the §4.4 phase correction during group admission. Figures 11
    /// and 12 are measured with it disabled to expose the release-order
    /// bias it exists to remove.
    pub phase_correction: bool,
}

impl NodeConfig {
    /// The paper's primary testbed configuration.
    pub fn phi() -> Self {
        Self::for_machine(MachineConfig::phi())
    }

    /// The secondary testbed.
    pub fn r415() -> Self {
        Self::for_machine(MachineConfig::r415())
    }

    /// Defaults around a machine config.
    pub fn for_machine(machine: MachineConfig) -> Self {
        NodeConfig {
            machine,
            sched: SchedConfig::default(),
            laden: vec![0],
            calib_rounds: 16,
            max_threads: nautix_kernel::MAX_THREADS,
            steal_poll_ns: 1_000_000,
            phase_correction: true,
        }
    }
}

/// A pending one-shot request produced by a scheduling pass.
#[derive(Debug, Clone, Copy)]
struct TimerReq {
    exec_cycles: Option<Cycles>,
    wall_ns: Option<Nanos>,
}

const TK_SLEEP: u64 = 1;
pub(crate) const TK_RELEASE: u64 = 2;
const TK_POKE: u64 = 3;
pub(crate) const TK_STEAL_POLL: u64 = 4;

/// Device-interrupt vector space (the machine asserts `irq < 0x40`).
const IRQ_LINES: usize = 64;

pub(crate) fn tok(kind: u64, payload: u64) -> u64 {
    (kind << 56) | payload
}
fn tok_kind(t: u64) -> u64 {
    t >> 56
}
fn tok_payload(t: u64) -> u64 {
    t & ((1u64 << 56) - 1)
}

/// The assembled node.
pub struct Node {
    /// The machine model (public for harness-side ground-truth access).
    pub machine: Machine,
    pub(crate) cfg_sched: SchedConfig,
    pub(crate) freq: Freq,
    /// The machine's cost model, cached by value at boot (`CostModel` is
    /// `Copy`). The event path reads costs on every interrupt; caching
    /// avoids re-reading through the machine — and the per-event clone the
    /// hot paths used to pay — while keeping disjoint-field borrows with
    /// `&mut self.machine`. The model is fixed per machine; `reset`
    /// refreshes the cache along with everything else.
    pub(crate) cm: CostModel,
    /// The machine's resolved topology map, cached by value like `cm`
    /// (`TopoMap` is `Copy`): the steal path classifies thief→victim
    /// distance on every probe. Refreshed by `reset`.
    pub(crate) topo: TopoMap,
    pub(crate) threads: ThreadTable,
    pub(crate) ts: Vec<SchedThread>,
    pub(crate) sched: Vec<LocalScheduler>,
    sync: TimeSync,
    /// Groups and Algorithm 1 continuations: all of gang coordination's
    /// state ([`crate::gang`]).
    pub(crate) gangs: Gangs,
    /// The idle path's state — steal polls, exited threads awaiting the
    /// reaper, the backlog bitmap ([`crate::global`]).
    pub(crate) global: Global,
    steering: Steering,
    pub(crate) tasks: Vec<TaskQueues>,
    pub(crate) pending_result: Vec<SysResult>,
    cur_op: Vec<Option<(ThreadId, Cycles)>>,
    /// The node's shared hyperperiod-simulation memo, installed into every
    /// CPU's ledger. Owned here so `Node::reset` can re-install it: the
    /// cache is a pure memo keyed on the full simulation input, so entries
    /// learned in earlier pooled trials stay valid across resets.
    sim_cache: Rc<RefCell<SimCache>>,
    /// Threads blocked in WaitIrq, per irq line (FIFO), indexed by vector.
    irq_waiters: Vec<VecDeque<ThreadId>>,
    live_programs: usize,
    /// Operations in flight (`Some` entries of `cur_op`) and tasks queued
    /// across all CPUs, so the quiescence test is two reads, not two
    /// machine-wide scans per step.
    ops_in_flight: usize,
    pub(crate) queued_tasks: usize,
    /// Device interrupts handled, per CPU.
    pub device_irqs_handled: Vec<u64>,
    pub(crate) trace: Option<TraceHandle>,
    oracles: Option<Rc<RefCell<OracleSuite>>>,
}

impl Node {
    /// Boot a node: build the machine, calibrate time, start the per-CPU
    /// schedulers and idle threads. A powered-on machine and the kernel
    /// state that is rebuilt rather than recycled, inside an otherwise
    /// empty shell, then `Node::boot` — the body [`Node::reset`] runs
    /// too, so a pooled node and a fresh one cannot drift apart.
    pub fn new(cfg: NodeConfig) -> Self {
        let machine = Machine::new(cfg.machine.clone());
        let topo = machine.topology();
        let mut node = Node {
            cfg_sched: cfg.sched,
            freq: machine.freq(),
            cm: *machine.cost_model(),
            topo,
            machine,
            threads: ThreadTable::new(0),
            ts: Vec::new(),
            sched: Vec::new(),
            sync: TimeSync::perfect(0),
            gangs: Gangs::default(),
            global: Global::default(),
            steering: Steering::with_topology(cfg.laden.clone(), topo),
            tasks: Vec::new(),
            pending_result: Vec::new(),
            cur_op: Vec::new(),
            sim_cache: Rc::new(RefCell::new(SimCache::new())),
            irq_waiters: (0..IRQ_LINES).map(|_| VecDeque::new()).collect(),
            live_programs: 0,
            ops_in_flight: 0,
            queued_tasks: 0,
            device_irqs_handled: Vec::new(),
            trace: None,
            oracles: None,
        };
        node.boot(&cfg);
        node
    }

    /// Reboot this node in place for a new trial, reusing every large
    /// allocation: the thread table's slot vector, the per-thread sched
    /// states, the per-CPU scheduler and task queues, and the event heap
    /// keep their capacity instead of being freed and re-grown. Power-cycles
    /// the machine, rebuilds what [`Node::new`] builds, and runs the same
    /// `Node::boot`: the pooled determinism test asserts byte-for-byte
    /// that the result is a fresh node. A reset costs O(CPUs + the previous
    /// trial's thread high-water mark), never O(`max_threads`): per-thread
    /// tables are emptied and regrow as the new trial spawns.
    pub fn reset(&mut self, cfg: NodeConfig) {
        self.machine.reset(cfg.machine.clone());
        self.steering = Steering::with_topology(cfg.laden.clone(), self.machine.topology());
        self.boot(&cfg);
    }

    /// The one boot body, on a machine just powered on for `cfg.machine`:
    /// calibration runs against the machine's freshly seeded RNG, and idle
    /// threads and boot pokes are spawned in CPU order, so idle
    /// `ThreadId`s and every subsequent event land the same on a pooled
    /// node as on a fresh one.
    fn boot(&mut self, cfg: &NodeConfig) {
        let sched = cfg.sched;
        let n = self.machine.n_cpus();
        self.freq = self.machine.freq();
        self.cm = *self.machine.cost_model();
        self.topo = self.machine.topology();
        self.sync = if cfg.calib_rounds > 0 {
            timesync::calibrate(&mut self.machine, cfg.calib_rounds)
        } else {
            TimeSync::perfect(n)
        };
        self.cfg_sched = sched;
        self.threads.reset(cfg.max_threads);
        self.ts.clear();
        self.ts.reserve(cfg.max_threads);
        self.sched.truncate(n);
        for cpu in 0..n {
            // The idle thread: a real table entry, never queued.
            let idle_tid = self
                .threads
                .spawn(Thread {
                    name: format!("idle{cpu}"),
                    cpu,
                    bound: true,
                    state: ThreadState::Running,
                    program: Box::new(nautix_kernel::IdleLoop::new(1)),
                    is_idle: true,
                })
                .unwrap_or_else(|_| panic!("thread table too small for idle threads"));
            if cpu < self.sched.len() {
                self.sched[cpu].reset(cpu, idle_tid, sched, self.freq, cfg.max_threads);
            } else {
                self.sched.push(LocalScheduler::new(
                    cpu,
                    idle_tid,
                    sched,
                    self.freq,
                    cfg.max_threads,
                ));
            }
            // Each scheduler's ledger starts from scratch; install the
            // node's memo so pooled trials keep reusing cached verdicts.
            self.sched[cpu]
                .load
                .install_sim_cache(Rc::clone(&self.sim_cache));
        }
        self.tasks.truncate(n);
        for q in &mut self.tasks {
            q.reset();
        }
        let pooled = self.tasks.len();
        self.tasks.extend((pooled..n).map(|_| TaskQueues::new(256)));
        self.gangs.reset(cfg.max_threads, cfg.phase_correction);
        self.global.reset(n, cfg.steal_poll_ns);
        self.pending_result.clear();
        self.pending_result.reserve(cfg.max_threads);
        // `ga` and `pending_result` are reserved after the per-CPU queues,
        // not before: on a wide node the allocation order decides how many
        // fresh heap pages a boot faults in (reserved first, a 1024-CPU
        // node's boots cost 9 MB more peak RSS). So the idle threads are
        // tracked here, once all three tables have their storage.
        for cpu in 0..n {
            let idle = self.sched[cpu].idle;
            self.track_thread(idle);
        }
        self.cur_op.clear();
        self.cur_op.resize(n, None);
        for q in &mut self.irq_waiters {
            q.clear();
        }
        self.live_programs = 0;
        self.ops_in_flight = 0;
        self.queued_tasks = 0;
        self.device_irqs_handled.clear();
        self.device_irqs_handled.resize(n, 0);
        // Machine/scheduler/task-queue resets dropped their handles; start
        // every trial with no sink: no observer, fresh oracle state.
        self.trace = None;
        self.oracles = None;
        if HarnessConfig::oracles_from_env() {
            self.enable_oracles();
        }
        // Kick every CPU once at boot so each local scheduler runs its
        // first pass (and each idle loop gets a chance to start stealing).
        for cpu in 0..n {
            let at = self.machine.now();
            self.machine
                .schedule_wakeup(at, tok(TK_POKE, cpu as u64), Some(cpu));
        }
        debug_assert_eq!(self.ts.len(), self.threads.high_water());
    }

    /// Extend the per-thread tables (`ts`, `pending_result`, the Algorithm 1
    /// contexts) to cover `tid`, handed out by the thread table. They grow
    /// with the table's high-water mark, never past the storage `boot`
    /// reserved, so a reset costs the threads the last trial spawned, not
    /// `max_threads`. A reused (reaped) id is already covered.
    fn track_thread(&mut self, tid: ThreadId) {
        if tid == self.ts.len() {
            self.ts.push(SchedThread::new_aperiodic());
            self.pending_result.push(SysResult::None);
            self.gangs.ga.push(None);
        }
    }

    /// Attach a trace sink with the online invariant oracles as its
    /// observer (panicking on the first violation). Returns a handle to
    /// the suite for inspection; tests use [`Node::enable_oracles_with`]
    /// to collect violations instead. Tracing never perturbs the
    /// simulation — the event stream is byte-identical with or without it.
    pub fn enable_oracles(&mut self) -> Rc<RefCell<OracleSuite>> {
        self.enable_oracles_with(OracleConfig::for_node(
            self.freq,
            &self.cfg_sched,
            &self.cm,
            self.machine.config(),
        ))
    }

    /// Attach the oracles with an explicit configuration. Arming starts a
    /// fresh trace stream, so observers are registered after it.
    pub fn enable_oracles_with(&mut self, cfg: OracleConfig) -> Rc<RefCell<OracleSuite>> {
        let suite = Rc::new(RefCell::new(OracleSuite::new(cfg)));
        let boxed = Box::new(Rc::clone(&suite));
        self.install_trace(TraceHandle::new(DEFAULT_RING_CAPACITY, boxed));
        self.oracles = Some(Rc::clone(&suite));
        suite
    }

    /// Register `observer` on this node's trace stream, after the oracles
    /// when they are armed, and hand back a handle to read it by. It
    /// receives the record kinds it subscribes to until [`Node::reset`],
    /// which drops every observer: like arming, observing is per trial.
    pub fn observe<O: Observer + 'static>(&mut self, observer: O) -> Rc<RefCell<O>> {
        let o = Rc::new(RefCell::new(observer));
        let boxed = Box::new(Rc::clone(&o));
        match &self.trace {
            Some(t) => t.subscribe(boxed),
            None => self.install_trace(TraceHandle::new(DEFAULT_RING_CAPACITY, boxed)),
        }
        o
    }

    /// The attached oracle suite, if any.
    pub fn oracles(&self) -> Option<&Rc<RefCell<OracleSuite>>> {
        self.oracles.as_ref()
    }

    /// Degradation activations across this node's CPUs (all zero unless
    /// [`crate::admission::DegradePolicy`] is enabled and interference
    /// actually forced a response).
    pub fn degrade_stats(&self) -> crate::stats::DegradeStats {
        let mut d = crate::stats::DegradeStats::default();
        for s in &self.sched {
            d.merge(&s.stats.degrade);
        }
        d
    }

    /// Admission-engine counters across this node's CPUs: `HyperperiodSim`
    /// verdict memo hits/misses and ledger rollbacks. All zero under
    /// closed-form admission policies (no verdict is memoized).
    pub fn admission_stats(&self) -> crate::stats::AdmissionStats {
        let mut a = crate::stats::AdmissionStats::default();
        for s in &self.sched {
            a.merge(&s.load.admission_stats());
        }
        a
    }

    /// Entries currently held by the node's shared simulation memo.
    pub fn sim_cache_len(&self) -> usize {
        self.sim_cache.borrow().len()
    }

    /// Empty the shared simulation memo. [`Node::reset`] deliberately
    /// preserves the memo so pooled trials keep reusing verdicts; callers
    /// whose runs must be pure functions of their configuration (the
    /// cluster engine boots shards from a pool, then mutates them) clear
    /// it explicitly instead.
    pub fn clear_sim_cache(&mut self) {
        self.sim_cache.borrow_mut().clear();
    }

    /// Everything the evaluation counts about this node, flattened into
    /// one additive [`nautix_stats::StatsSnapshot`] (`trials = 1`).
    /// Per-node counters reset with the node, so per-trial snapshots are
    /// true deltas: harness workers stream them to a
    /// [`nautix_stats::StatsHub`] and the merged totals are independent of
    /// worker scheduling. The `oracle_*` fields stay zero here — oracle
    /// tallies are process-global (they survive `reset`), so the hub
    /// overlays them via its sampler instead of summing them per trial.
    pub fn stats_snapshot(&self) -> nautix_stats::StatsSnapshot {
        let mut s = nautix_stats::StatsSnapshot {
            trials: 1,
            events: self.machine.events_processed(),
            ..nautix_stats::StatsSnapshot::default()
        };
        for t in &self.ts {
            s.arrivals += t.stats.arrivals;
            s.met += t.stats.met;
            s.missed += t.stats.missed;
            s.dispatches += t.stats.dispatches;
        }
        for c in &self.sched {
            s.invocations += c.stats.invocations;
            s.timer_invocations += c.stats.timer_invocations;
            s.kick_invocations += c.stats.kick_invocations;
            s.switches += c.stats.switches;
            s.steals += c.stats.steals;
            s.steals_llc += c.stats.steals_by_distance[0];
            s.steals_pkg += c.stats.steals_by_distance[1];
            s.steals_xpkg += c.stats.steals_by_distance[2];
            s.inline_tasks += c.stats.inline_tasks;
            s.layer_throttles += c.stats.layer_throttles;
            s.layer_replenishes += c.stats.layer_replenishes;
        }
        let d = self.degrade_stats();
        s.sporadic_demotions = d.sporadic_demotions;
        s.periodic_widenings = d.periodic_widenings;
        s.periodic_demotions = d.periodic_demotions;
        let a = self.admission_stats();
        s.sim_hits = a.sim_hits;
        s.sim_misses = a.sim_misses;
        s.rollbacks = a.rollbacks;
        s.ipis = self.machine.ipis_sent();
        let ipis = self.machine.ipis_by_distance();
        s.ipis_llc = ipis[0];
        s.ipis_pkg = ipis[1];
        s.ipis_xpkg = ipis[2];
        s.device_irqs = self.machine.device_irqs();
        s.timer_programmings = self.machine.timer_programmings();
        s.smis = self.machine.smi_stats().count;
        let f = self.machine.fault_stats();
        s.kicks_dropped = f.kicks_dropped;
        s.kicks_delayed = f.kicks_delayed;
        s.timer_overshoots = f.timer_overshoots;
        s.freq_dips = f.freq_dips;
        s.spurious_irqs = f.spurious_irqs;
        s.cpu_stalls = f.cpu_stalls;
        s
    }

    /// Thread a trace handle through every emitting layer of this node.
    fn install_trace(&mut self, handle: TraceHandle) {
        self.machine.set_trace(Some(handle.clone()));
        for s in &mut self.sched {
            s.set_trace(Some(handle.clone()));
        }
        for (cpu, q) in self.tasks.iter_mut().enumerate() {
            q.set_trace(Some((handle.clone(), cpu as u32)));
        }
        self.trace = Some(handle);
    }

    /// Enable the deliberately broken FIFO dispatch on `cpu` (EDF-oracle
    /// regression tests only).
    pub fn set_sabotage_fifo(&mut self, cpu: CpuId, on: bool) {
        self.sched[cpu].set_sabotage_fifo(on);
    }

    /// Enable the deliberately over-generous layer-bucket refill on `cpu`
    /// (layer-isolation-oracle regression tests only).
    pub fn set_sabotage_layer(&mut self, cpu: CpuId, on: bool) {
        self.sched[cpu].set_sabotage_layer(on);
    }

    // ------------------------------------------------------------------
    // Public surface
    // ------------------------------------------------------------------

    /// Core frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The boot-time calibration result.
    pub fn time_sync(&self) -> &TimeSync {
        &self.sync
    }

    /// `cpu`'s wall-clock estimate in nanoseconds.
    pub fn wall_ns(&self, cpu: CpuId) -> Nanos {
        self.freq
            .cycles_to_ns(timesync::wall_cycles(&self.machine, &self.sync, cpu))
    }

    /// `cpu`'s wall-clock estimate at the end of its current kernel-path
    /// busy window: the instant code running *after* already-charged work
    /// actually executes and would read its TSC.
    pub(crate) fn wall_ns_busy(&self, cpu: CpuId) -> Nanos {
        let backlog = self
            .machine
            .busy_until(cpu)
            .saturating_sub(self.machine.now());
        self.wall_ns(cpu) + self.freq.cycles_to_ns(backlog)
    }

    /// Spawn a thread **bound** to `cpu` with the default aperiodic
    /// constraints (all threads begin life aperiodic, §3.1). Bound threads
    /// are never migrated by the work stealer.
    pub fn spawn_on(
        &mut self,
        cpu: CpuId,
        name: &str,
        program: Box<dyn Program>,
    ) -> Result<ThreadId, AdmissionError> {
        self.spawn_inner(cpu, name, program, true)
    }

    /// Spawn an **unbound** thread starting on `cpu`: while aperiodic it
    /// may be migrated by the idle-thread work stealer (§3.4).
    pub fn spawn_unbound(
        &mut self,
        cpu: CpuId,
        name: &str,
        program: Box<dyn Program>,
    ) -> Result<ThreadId, AdmissionError> {
        self.spawn_inner(cpu, name, program, false)
    }

    fn spawn_inner(
        &mut self,
        cpu: CpuId,
        name: &str,
        program: Box<dyn Program>,
        bound: bool,
    ) -> Result<ThreadId, AdmissionError> {
        assert!(cpu < self.sched.len(), "no such cpu {cpu}");
        // Under table pressure, reap exited threads first (reanimation:
        // thread creation reuses pooled slots, §3.4).
        if self.threads.live() >= self.threads.capacity() {
            for c in 0..self.sched.len() {
                while self.reap(c) > 0 {}
            }
        }
        let tid = self
            .threads
            .spawn(Thread {
                name: name.to_string(),
                cpu,
                bound,
                state: ThreadState::Ready,
                program,
                is_idle: false,
            })
            .map_err(|_| AdmissionError::CapacityExceeded)?;
        self.track_thread(tid);
        self.ts[tid] = SchedThread::new_aperiodic();
        self.pending_result[tid] = SysResult::None;
        self.live_programs += 1;
        let now = self.wall_ns(cpu);
        self.enqueue_on(cpu, tid, now);
        // Nudge the target CPU to schedule (a kick in spirit; at boot the
        // machine is idle and this is the first event).
        self.machine
            .schedule_wakeup(self.machine.now(), tok(TK_POKE, cpu as u64), Some(cpu));
        debug_assert_eq!(self.ts.len(), self.threads.high_water());
        Ok(tid)
    }

    /// Number of spawned, unfinished (non-idle) programs.
    pub fn live_programs(&self) -> usize {
        self.live_programs
    }

    /// A thread's scheduling state (stats, constraints).
    /// Panics for a `tid` the thread table never handed out.
    pub fn thread_state(&self, tid: ThreadId) -> &SchedThread {
        &self.ts[tid]
    }

    /// A CPU's local scheduler (stats, queues).
    pub fn scheduler(&self, cpu: CpuId) -> &LocalScheduler {
        &self.sched[cpu]
    }

    /// The group registry (inspection).
    pub fn groups(&self) -> &GroupRegistry {
        &self.gangs.groups
    }

    /// Create a named group from host context (boot-time setup). Threads
    /// can also create groups themselves via [`SysCall::GroupCreate`];
    /// pre-creating avoids creation-order races when several gangs boot
    /// concurrently.
    pub fn create_group(&mut self, name: &'static str) -> GroupId {
        self.gangs.groups.create(name).expect("group registry full")
    }

    /// Per-CPU task queues (inspection).
    pub fn tasks(&self, cpu: CpuId) -> &TaskQueues {
        &self.tasks[cpu]
    }

    /// Pin a device interrupt to a CPU (§3.5).
    pub fn steer_irq(&mut self, irq: u8, cpu: CpuId) {
        self.steering.steer(irq, cpu);
    }

    /// Pin a device interrupt to the laden CPU topologically nearest its
    /// consumer, returning the chosen CPU. Under a flat topology every
    /// laden CPU is equidistant and the lowest-id one is chosen.
    pub fn steer_irq_near(&mut self, irq: u8, consumer: CpuId) -> CpuId {
        self.steering.steer_near(irq, consumer)
    }

    /// Raise device interrupt `irq` now, routed by the steering table.
    pub fn raise_device_irq(&mut self, irq: u8) {
        let cpu = self.steering.cpu_for_irq(irq);
        self.machine.raise_irq(cpu, irq);
    }

    /// Process one machine event. Returns false when the machine is
    /// quiescent (no events left).
    ///
    /// One call still surfaces exactly one kernel-visible event: the
    /// machine's batched same-timestamp drain is invisible here apart from
    /// its speed — interleaving a `step` with any node API between two
    /// same-instant events behaves as it did when the machine popped one
    /// event at a time.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.machine.advance() else {
            return false;
        };
        match ev {
            MachineEvent::TimerInterrupt { cpu } => self.interrupt_path(cpu, InvokeReason::Timer),
            MachineEvent::Ipi { cpu, .. } => self.interrupt_path(cpu, InvokeReason::Kick),
            MachineEvent::DeviceInterrupt { cpu, irq } => self.device_interrupt(cpu, irq),
            MachineEvent::OpComplete { cpu, token } => self.op_complete(cpu, token),
            MachineEvent::Wakeup { token } => self.wakeup(token),
        }
        true
    }

    /// Run until the node is quiescent: every spawned program has exited
    /// and no operations or queued tasks remain. (The machine itself may
    /// still carry environmental events — an SMI generator never stops —
    /// so "no events left" alone is not a usable criterion.)
    pub fn run_until_quiescent(&mut self) {
        loop {
            if self.live_programs == 0 && self.ops_in_flight == 0 && self.queued_tasks == 0 {
                debug_assert!(self.cur_op.iter().all(|o| o.is_none()));
                debug_assert!(self.tasks.iter().all(|t| t.is_empty()));
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Run until true machine time reaches `horizon` cycles (or quiescence).
    pub fn run_until_cycles(&mut self, horizon: Cycles) {
        while self.machine.now() < horizon && self.step() {}
    }

    /// Run until true machine time reaches `ns` nanoseconds.
    pub fn run_for_ns(&mut self, ns: Nanos) {
        let horizon = self.machine.now() + self.freq.ns_to_cycles(ns);
        self.run_until_cycles(horizon);
    }

    // ------------------------------------------------------------------
    // Interrupt and event paths
    // ------------------------------------------------------------------

    /// Preempt the in-flight operation on `cpu` (if any) and account it.
    fn preempt(&mut self, cpu: CpuId) {
        if let Some((token, remaining)) = self.machine.cancel_op(cpu) {
            let tid = token as usize;
            let (_, total) = self.take_op(cpu).expect("op bookkeeping lost");
            let executed = total - remaining;
            self.sched[cpu].account(&mut self.ts[tid], executed);
            if !self.threads.expect(tid).is_idle {
                self.ts[tid].pending_compute = Some(remaining);
            }
        } else {
            self.take_op(cpu);
        }
    }

    /// The timer/kick interrupt path: preempt, charge, invoke, dispatch.
    fn interrupt_path(&mut self, cpu: CpuId, reason: InvokeReason) {
        self.preempt(cpu);
        let t_irq_start = self.machine.now();
        let c_entry = self.machine.charge(cpu, self.cm.irq_entry);
        let c_other = self.machine.charge(cpu, self.cm.sched_other);
        let t_pass_start = self.machine.busy_until(cpu);
        let mut c_pass = self.machine.charge(cpu, self.cm.sched_pass);
        let resident = self.sched[cpu].resident() as u64;
        let per = self.machine.draw(self.cm.sched_pass_per_thread) * resident;
        self.machine.charge_raw(cpu, per);
        c_pass += per;
        if let Some(t) = self.trace.wants(Kind::IrqEnter) {
            t.emit(Record::IrqEnter {
                cpu: cpu as u32,
                irq_start_cycles: t_irq_start,
                pass_start_cycles: t_pass_start,
                pass_end_cycles: self.machine.busy_until(cpu),
            });
        }
        let (c_switch, timer) = self.local_invoke_raw(cpu, reason, true);
        let c_exit = self.machine.charge(cpu, self.cm.irq_exit);
        self.program_timer(cpu, timer);
        if let Some(t) = self.trace.wants(Kind::IrqExit) {
            t.emit(Record::IrqExit {
                cpu: cpu as u32,
                irq_end_cycles: self.machine.busy_until(cpu),
                irq_cycles: narrow(c_entry + c_exit),
                other_cycles: narrow(c_other),
                resched_cycles: narrow(c_pass),
                switch_cycles: narrow(c_switch),
            });
        }
        self.dispatch(cpu);
    }

    /// A device interrupt. Two processing modes (§3.5):
    ///
    /// * with a registered **interrupt thread** waiting on the line, the
    ///   handler only acknowledges the device and wakes the thread, which
    ///   does the real work in schedulable thread context;
    /// * otherwise a bounded in-handler path runs to completion
    ///   ("the allowed starting time of an interrupt is controlled,
    ///   however the ending time is not").
    fn device_interrupt(&mut self, cpu: CpuId, irq: u8) {
        self.preempt(cpu);
        self.machine.charge(cpu, self.cm.irq_entry);
        let waiter = self.irq_waiters[irq as usize].pop_front();
        if let Some(tid) = waiter {
            // Acknowledge only; the interrupt thread does the processing.
            self.machine.charge(cpu, self.cm.atomic_rmw);
            self.machine.charge(cpu, self.cm.irq_exit);
            self.device_irqs_handled[cpu] += 1;
            let target_cpu = self.threads.expect(tid).cpu;
            self.make_ready(tid);
            if target_cpu == cpu {
                self.local_invoke(cpu, InvokeReason::Wake, true);
            } else {
                self.machine.send_kick(cpu, target_cpu);
            }
        } else {
            self.machine.charge(cpu, self.cm.device_handler);
            self.machine.charge(cpu, self.cm.irq_exit);
            self.device_irqs_handled[cpu] += 1;
        }
        self.dispatch(cpu);
    }

    /// A thread operation ran to completion.
    fn op_complete(&mut self, cpu: CpuId, token: u64) {
        let tid = token as usize;
        let (op_tid, total) = self.take_op(cpu).expect("op bookkeeping lost");
        debug_assert_eq!(op_tid, tid);
        self.sched[cpu].account(&mut self.ts[tid], total);
        self.dispatch(cpu);
    }

    /// Node-level wakeups: sleep expiries, collective releases, pokes.
    fn wakeup(&mut self, token: u64) {
        match tok_kind(token) {
            TK_POKE => {
                let cpu = tok_payload(token) as usize;
                self.interrupt_path(cpu, InvokeReason::Kick);
            }
            TK_STEAL_POLL => {
                let cpu = tok_payload(token) as usize;
                self.global.poll_fired(cpu);
                self.interrupt_path(cpu, InvokeReason::Kick);
            }
            TK_SLEEP | TK_RELEASE => {
                let tid = tok_payload(token) as usize;
                let cpu = self.threads.expect(tid).cpu;
                self.preempt(cpu);
                // Ready the thread before the scheduling pass.
                self.make_ready(tid);
                self.machine.charge(cpu, self.cm.irq_entry);
                self.machine.charge(cpu, self.cm.sched_pass);
                let (_, timer) = self.local_invoke_raw(cpu, InvokeReason::Wake, true);
                self.machine.charge(cpu, self.cm.irq_exit);
                self.program_timer(cpu, timer);
                self.dispatch(cpu);
            }
            other => panic!("unknown wakeup kind {other}"),
        }
    }

    /// Transition a blocked thread to ready and queue it.
    fn make_ready(&mut self, tid: ThreadId) {
        let cpu = self.threads.expect(tid).cpu;
        self.threads.expect_mut(tid).state = ThreadState::Ready;
        let now = self.wall_ns(cpu);
        if self.gangs.in_admission(tid) {
            // Group-admission continuations run as aperiodic work.
            self.sched[cpu].enqueue_nonrt(tid, 0);
            self.note_backlog(cpu);
        } else {
            self.enqueue_on(cpu, tid, now);
        }
    }

    /// Invoke the local scheduler and program its timer in one go (for
    /// thread-context invocations with no trailing kernel-path charges).
    pub(crate) fn local_invoke(
        &mut self,
        cpu: CpuId,
        reason: InvokeReason,
        runnable: bool,
    ) -> Cycles {
        let (c_switch, timer) = self.local_invoke_raw(cpu, reason, runnable);
        self.program_timer(cpu, timer);
        c_switch
    }

    /// Invoke the local scheduler. Returns the drawn context-switch cost
    /// (0 when not switching) and the timer request, which the caller
    /// programs via [`Node::program_timer`] *after* its final charges.
    fn local_invoke_raw(
        &mut self,
        cpu: CpuId,
        reason: InvokeReason,
        runnable: bool,
    ) -> (Cycles, TimerReq) {
        let now = self.wall_ns(cpu);
        let prev = self.sched[cpu].current;
        let d = self.sched[cpu].invoke(now, &mut self.ts, reason, runnable);
        self.note_backlog(cpu);
        let mut c_switch = 0;
        if d.switched {
            c_switch = self.machine.charge(cpu, self.cm.ctx_switch);
            self.machine
                .set_tpr(cpu, self.steering.tpr_for(d.next_is_rt));
            let prev_running = self.threads.expect(d.next).state;
            if prev_running != ThreadState::Running {
                self.threads.expect_mut(d.next).state = ThreadState::Running;
            }
            // Stamp the switch where the paper does: when it actually
            // happens, path costs (and their jitter) included.
            if let Some(t) = self.trace.wants(Kind::Switch) {
                let idle = self.sched[cpu].idle;
                let id = |tid| {
                    if tid == idle {
                        TRACE_TID_IDLE
                    } else {
                        tid as u32
                    }
                };
                t.emit(Record::Switch {
                    cpu: cpu as u32,
                    prev: id(prev),
                    next: id(d.next),
                    at_cycles: self.machine.busy_until(cpu),
                    wall_ns: self.wall_ns_busy(cpu),
                });
            }
        }
        // Inline size-tagged tasks (§3.1): only when no RT job is runnable.
        let budget = self.sched[cpu].inline_task_budget(now, &self.ts);
        if budget > 0 && !self.tasks[cpu].is_empty() {
            let mut spent = 0;
            while let Some(task) = self.tasks[cpu].pop_sized_fitting(budget - spent) {
                self.queued_tasks -= 1;
                self.machine.charge_raw(cpu, task.work);
                if let Some(t) = self.trace.wants(Kind::TaskExec) {
                    t.emit(Record::TaskExec {
                        cpu: cpu as u32,
                        now_ns: now,
                        size_cycles: task.size.unwrap_or(task.work),
                        budget_cycles: budget,
                    });
                }
                spent += task.size.unwrap_or(task.work);
                self.tasks[cpu].inline_completed += 1;
                self.sched[cpu].stats.inline_tasks += 1;
                if spent >= budget {
                    break;
                }
            }
        }
        (
            c_switch,
            TimerReq {
                exec_cycles: d.timer_exec_cycles,
                wall_ns: d.timer_wall_ns,
            },
        )
    }

    /// Program (or disarm) the one-shot timer from a scheduler request.
    ///
    /// Execution-relative requests (slice budgets, quanta) start counting
    /// when the dispatched thread actually resumes — after the CPU's
    /// current kernel-path busy window — so the backlog is added, exactly
    /// as a real kernel programs the countdown on its way out of the
    /// handler. Wall-clock requests (arrivals, latest-start points) are
    /// absolute and get no such adjustment. Callers invoke this *after*
    /// their final charges.
    fn program_timer(&mut self, cpu: CpuId, req: TimerReq) {
        if let Some(t) = self.trace.wants(Kind::TimerReq) {
            t.emit(Record::TimerReq {
                cpu: cpu as u32,
                now_ns: self.wall_ns(cpu),
                wall_ns: req.wall_ns.unwrap_or(Nanos::MAX),
                exec_cycles: req.exec_cycles.unwrap_or(Cycles::MAX),
                armed: req.exec_cycles.is_some() || req.wall_ns.is_some(),
            });
        }
        if req.exec_cycles.is_none() && req.wall_ns.is_none() {
            self.machine.cancel_timer(cpu);
            return;
        }
        self.machine.charge(cpu, self.cm.timer_program);
        let backlog = self
            .machine
            .busy_until(cpu)
            .saturating_sub(self.machine.now());
        let mut delay: Option<Cycles> = req.exec_cycles.map(|c| c + backlog);
        if let Some(at) = req.wall_ns {
            let d = self
                .freq
                .ns_to_cycles(at.saturating_sub(self.wall_ns(cpu)))
                .max(1);
            delay = Some(delay.map_or(d, |b| b.min(d)));
        }
        self.machine.set_timer_cycles(cpu, delay.unwrap());
    }

    // ------------------------------------------------------------------
    // Dispatch: run the current thread until it computes, blocks, or exits
    // ------------------------------------------------------------------

    pub(crate) fn dispatch(&mut self, cpu: CpuId) {
        loop {
            let tid = self.sched[cpu].current;
            if tid == self.sched[cpu].idle {
                self.idle_behavior(cpu);
                return;
            }
            // Group-admission continuation takes precedence over the
            // program: the thread is still inside the call.
            if self.gangs.in_admission(tid) {
                if self.ga_step(cpu, tid) {
                    // Blocked inside the algorithm (or left the CPU).
                    self.local_invoke(cpu, InvokeReason::Block, false);
                    continue;
                }
                // Finished: fall through. The thread may now be RT-pending
                // (not runnable); let the scheduler decide.
                if self.sched[cpu].current != tid {
                    continue;
                }
                let st = &self.ts[tid];
                if st.is_rt() {
                    // Anchored periodic/sporadic: wait for the arrival.
                    self.enqueue_on(cpu, tid, 0);
                    // enqueue used pending queue keyed on next_arrival.
                    self.threads.expect_mut(tid).state = ThreadState::Ready;
                    self.local_invoke(cpu, InvokeReason::ConstraintChange, false);
                    continue;
                }
            }
            if let Some(rem) = self.ts[tid].pending_compute.take() {
                self.begin_op(cpu, tid, rem);
                return;
            }
            // Resume the program.
            let result = std::mem::replace(&mut self.pending_result[tid], SysResult::None);
            let mut cx = ResumeCx {
                tid,
                cpu,
                now_ns: self.wall_ns(cpu),
                result,
            };
            let action = self.threads.expect_mut(tid).program.resume(&mut cx);
            match action {
                Action::Compute(c) => {
                    self.begin_op(cpu, tid, c);
                    return;
                }
                Action::Exit => {
                    self.thread_exit(tid);
                    self.local_invoke(cpu, InvokeReason::Exit, false);
                    continue;
                }
                Action::Call(sys) => {
                    if self.handle_syscall(cpu, tid, sys) {
                        // Blocked.
                        self.local_invoke(cpu, InvokeReason::Block, false);
                        continue;
                    }
                    // Not blocked; the scheduler may still have moved the
                    // thread (yield / constraint change). Loop re-reads
                    // `current`.
                    continue;
                }
            }
        }
    }

    pub(crate) fn begin_op(&mut self, cpu: CpuId, tid: ThreadId, cycles: Cycles) {
        debug_assert!(self.cur_op[cpu].is_none());
        self.cur_op[cpu] = Some((tid, cycles));
        self.ops_in_flight += 1;
        self.machine.begin_op(cpu, cycles, tid as u64);
    }

    /// Clear `cpu`'s in-flight operation record, if any.
    fn take_op(&mut self, cpu: CpuId) -> Option<(ThreadId, Cycles)> {
        let op = self.cur_op[cpu].take();
        if op.is_some() {
            self.ops_in_flight -= 1;
        }
        op
    }

    fn thread_exit(&mut self, tid: ThreadId) {
        let cpu = self.threads.expect(tid).cpu;
        // A job that completed in the thread's final instants still counts.
        let now = self.wall_ns(cpu);
        {
            let st = &mut self.ts[tid];
            self.sched[cpu].finalize_exit(tid, st, now);
        }
        // Release any admitted constraints.
        if let Some(t) = self.trace.wants(Kind::ConstraintsReleased) {
            if self.ts[tid].constraints.is_realtime() {
                t.emit(Record::ConstraintsReleased {
                    cpu: cpu as u32,
                    tid: tid as u32,
                });
            }
        }
        self.sched[cpu].load.release(&self.ts[tid].constraints);
        self.dequeue_from(cpu, tid);
        self.threads.expect_mut(tid).state = ThreadState::Exited;
        self.global.await_reap(cpu, tid);
        self.live_programs -= 1;
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// Handle a syscall; returns true if the thread blocked.
    fn handle_syscall(&mut self, cpu: CpuId, tid: ThreadId, sys: SysCall) -> bool {
        match sys {
            SysCall::Yield => {
                self.pending_result[tid] = SysResult::None;
                self.local_invoke(cpu, InvokeReason::Yield, true);
                false
            }
            SysCall::WaitNextPeriod => {
                self.pending_result[tid] = SysResult::None;
                {
                    let st = &mut self.ts[tid];
                    if st.is_rt() && st.job_active {
                        // The job is done for this period; the scheduling
                        // pass below records it complete and re-pends the
                        // thread at its next arrival.
                        st.remaining_cycles = 0;
                    }
                }
                self.local_invoke(cpu, InvokeReason::Yield, true);
                false
            }
            SysCall::SleepNs(ns) => {
                self.block(tid, WaitKind::Sleep);
                let at = self.machine.now() + self.freq.ns_to_cycles(ns);
                self.machine
                    .schedule_wakeup(at, tok(TK_SLEEP, tid as u64), Some(cpu));
                true
            }
            SysCall::ReadClock => {
                self.machine.charge(cpu, self.cm.spin_check);
                self.pending_result[tid] = SysResult::Clock(self.wall_ns(cpu));
                false
            }
            SysCall::ChangeConstraints(c) => {
                self.machine.charge(cpu, self.cm.admission_local);
                let now = self.wall_ns(cpu);
                let res = self.change_constraints_now(tid, c, now);
                self.pending_result[tid] = SysResult::Admission(res);
                self.local_invoke(cpu, InvokeReason::ConstraintChange, true);
                false
            }
            SysCall::GroupCreate { .. }
            | SysCall::GroupJoin(_)
            | SysCall::GroupLeave(_)
            | SysCall::GroupSize(_)
            | SysCall::GroupBarrier(_)
            | SysCall::GroupElect(_)
            | SysCall::GroupReduceMax { .. }
            | SysCall::GroupBroadcast { .. }
            | SysCall::GroupChangeConstraints { .. }
            | SysCall::GroupAdmitTeam { .. } => {
                let team = matches!(sys, SysCall::GroupAdmitTeam { .. });
                let blocked = self.gang_syscall(cpu, tid, sys);
                if team && !blocked {
                    // The completer ran the whole transaction inline; its
                    // own schedule may have changed class. Re-invoke
                    // exactly as ChangeConstraints does.
                    self.local_invoke(cpu, InvokeReason::ConstraintChange, true);
                }
                blocked
            }
            SysCall::WaitIrq(irq) => {
                assert!((irq as usize) < IRQ_LINES, "irq vector out of range");
                self.machine.charge(cpu, self.cm.atomic_rmw);
                self.block(tid, WaitKind::Idle);
                self.irq_waiters[irq as usize].push_back(tid);
                true
            }
            SysCall::TaskSpawn { size, work } => {
                self.machine.charge(cpu, self.cm.atomic_rmw);
                let id = match self.tasks[cpu].spawn(size, work) {
                    Ok(t) => {
                        self.queued_tasks += 1;
                        t.0
                    }
                    Err(_) => u64::MAX,
                };
                self.pending_result[tid] = SysResult::Value(id);
                false
            }
        }
    }

    pub(crate) fn block(&mut self, tid: ThreadId, wait: WaitKind) {
        self.threads.expect_mut(tid).state = ThreadState::Waiting(wait);
    }

    /// The unified typed admission entry point: submit an
    /// [`AdmissionRequest`] (built in the `ConstraintsBuilder` style) and
    /// get an [`AdmissionOutcome`] back.
    ///
    /// * A [`AdmissionTarget::Thread`] target is the host-context face of
    ///   the `ChangeConstraints` syscall: release the old reservation,
    ///   admit the new one, roll back on rejection.
    /// * A [`AdmissionTarget::Team`] target is one all-or-nothing ledger
    ///   transaction over every member (the `GroupAdmitTeam` engine): on
    ///   success each member holds the constraints phase-corrected by its
    ///   slot and anchored at one common instant; on failure every ledger
    ///   is back exactly as it was and the outcome carries the first
    ///   rejection. A partially admitted team is never observable.
    ///
    /// The schedule anchors at the target CPU's current wall clock unless
    /// the request pins an explicit [`AdmissionRequest::anchor_at`].
    pub fn admit(&mut self, req: AdmissionRequest) -> AdmissionOutcome {
        let members = req.members();
        let constraints = req.requested();
        let res = match req.target() {
            AdmissionTarget::Thread(tid) => {
                let tid = *tid;
                let now = req
                    .anchor()
                    .unwrap_or_else(|| self.wall_ns(self.threads.expect(tid).cpu));
                self.change_constraints_now(tid, constraints, now)
            }
            AdmissionTarget::Team(team) => {
                if team.is_empty() {
                    Ok(())
                } else {
                    let anchor = req
                        .anchor()
                        .unwrap_or_else(|| self.wall_ns(self.threads.expect(team[0]).cpu));
                    self.admit_team_txn(team, constraints, anchor, req.delta_ns())
                }
            }
        };
        match res {
            Ok(()) => AdmissionOutcome::Admitted { members },
            Err(error) => AdmissionOutcome::Rejected { members, error },
        }
    }

    /// Single-thread admission against the thread's current CPU ledger,
    /// shared by [`Node::admit`] and the `ChangeConstraints` syscall.
    fn change_constraints_now(
        &mut self,
        tid: ThreadId,
        constraints: Constraints,
        now: Nanos,
    ) -> Result<(), AdmissionError> {
        let cpu = self.threads.expect(tid).cpu;
        let st = &mut self.ts[tid];
        self.sched[cpu].change_constraints(tid, st, constraints, now, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_kernel::IdleLoop;

    fn cfg(cpus: usize) -> NodeConfig {
        let mut cfg = NodeConfig::for_machine(MachineConfig::phi().with_cpus(cpus));
        cfg.calib_rounds = 0;
        cfg
    }

    /// Every per-thread table, as long as the thread table's high-water mark.
    fn per_thread_lens(node: &Node) -> [usize; 4] {
        [
            node.ts.len(),
            node.pending_result.len(),
            node.gangs.ga.len(),
            node.threads.high_water(),
        ]
    }

    /// Boot and reset touch what was handed out — the idle threads plus
    /// the threads spawned since — never the `max_threads` bound.
    #[test]
    fn per_thread_tables_follow_the_high_water_mark() {
        let mut node = Node::new(cfg(2));
        assert_eq!(per_thread_lens(&node), [2; 4]);
        for k in 1..=3 {
            node.spawn_on(k % 2, "w", Box::new(IdleLoop::new(1)))
                .unwrap();
            assert_eq!(per_thread_lens(&node), [2 + k; 4]);
        }

        node.reset(cfg(64));
        for i in 0..300 {
            node.spawn_unbound(i % 64, "w", Box::new(IdleLoop::new(1)))
                .unwrap();
        }
        assert_eq!(per_thread_lens(&node), [64 + 300; 4]);
        node.reset(cfg(2));
        assert_eq!(per_thread_lens(&node), [2; 4]);
        assert_eq!(node.tasks.len(), 2);
    }
}

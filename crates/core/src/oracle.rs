//! Online invariant oracles over the scheduler trace stream.
//!
//! The paper's evaluation argues four behavioral claims; each gets an
//! oracle that re-derives the scheduler's state *independently* from the
//! queue-transition records and fails loudly the moment the stream
//! contradicts the claim:
//!
//! * **EDF** — in eager mode, every dispatch of an in-job RT thread picks
//!   the earliest absolute deadline among runnable RT threads, and a
//!   non-RT thread is never dispatched while an RT thread is runnable
//!   (§3.6). Skipped in lazy mode, which legitimately delays newly
//!   arrived jobs past earlier-deadline competitors.
//! * **Admission soundness** — an admitted (and enforced) periodic or
//!   sporadic thread never misses σ by its deadline. A miss is cross-
//!   checked against both admission policies: if the overhead-aware
//!   hyperperiod simulation also calls the admitted set feasible, the
//!   miss is a genuine scheduler violation; if only the closed-form
//!   utilization test passed, the miss is counted as a (non-fatal)
//!   policy divergence — the known gap the `HyperperiodSim` policy
//!   exists to close (§3.2).
//! * **RT isolation** — a size-tagged task executes inline only when no
//!   RT thread is runnable and the declared size fits before the next
//!   pending arrival (§3.1); work stealing never migrates an RT-admitted
//!   thread (§3.4).
//! * **Tickless correctness** — whenever arrivals are pending, the pass's
//!   one-shot request is armed no later than the earliest pending
//!   arrival, and a dispatched in-job RT thread always carries a
//!   slice-end request (§3.3). Checked in the scheduler's own wall-clock
//!   domain, before hardware quantization.
//! * **Layer isolation** — on a layered config, no layer consumes more
//!   wall time than its bandwidth cap over any replenish window (within
//!   timer-quantization slack), a throttled layer's threads never
//!   dispatch until the next replenish, and every `LayerReplenish`
//!   record's reported consumption matches the wall spans the dispatch
//!   stream itself implies — so a scheduler that over-replenishes its
//!   buckets cannot hide behind its own counters.
//!
//! The suite is an [`Observer`]: it sees every record online, in emission
//! order, with the ring available for post-mortem context. In
//! [`OracleMode::Panic`] (the default, used by `NAUTIX_ORACLES=1` runs) a
//! violation aborts the process with the recent trace window; in
//! [`OracleMode::Collect`] violations accumulate for inspection — the
//! sabotage regression test uses this to prove the oracles *would* fire.

use crate::admission::{
    simulate_edf_feasible, LayerTable, SchedConfig, SchedMode, SimProbe, MAX_LAYERS,
};
use nautix_des::{Cycles, Freq, Nanos};
use nautix_hw::{CostModel, MachineConfig, TimerMode};
use nautix_trace::{
    FaultLane, Kind, Kinds, Observer, Record, TraceClass, TraceOutcome, TraceRing, TraceTid,
    TRACE_LAYER_IDLE,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// How the suite reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Abort the process with the violation and recent trace context.
    Panic,
    /// Record the violation and keep consuming the stream.
    Collect,
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle family fired: `"edf"`, `"admission"`, `"isolation"`,
    /// `"steal"`, `"tickless"`, `"fire-order"`, or `"layer"`.
    pub oracle: &'static str,
    /// Human-readable account of the contradiction.
    pub message: String,
}

/// Check counters, for run summaries and sanity ("did the oracles
/// actually see anything?").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Records consumed.
    pub records: u64,
    /// EDF dispatch checks performed.
    pub edf_checks: u64,
    /// Deadline-outcome checks on admitted threads.
    pub miss_checks: u64,
    /// Inline-task isolation checks.
    pub task_checks: u64,
    /// One-shot timer-request checks.
    pub timer_checks: u64,
    /// Timer-fire emission-order checks (batch-dispatch boundary guard:
    /// the machine pump must emit fires in simulation-time order whether
    /// it pops events one at a time or drains whole instants).
    pub fire_order_checks: u64,
    /// Misses on enforced-admitted threads where the closed-form test
    /// admitted a set the overhead-aware simulation calls infeasible
    /// (policy divergence, not a scheduler bug).
    pub divergences: u64,
    /// Admission verdicts (`HyperperiodSim` probes, cached or computed
    /// fresh) re-checked against the reference simulation of the mirrored
    /// admitted set.
    pub cache_checks: u64,
    /// Probes whose reference simulation disagreed with the ledger's
    /// verdict (each is also a violation: the demand criterion erred, the
    /// memo cache served a stale or colliding entry, or the ledger and the
    /// trace mirror drifted).
    pub cache_divergences: u64,
    /// Misses on enforced-admitted threads attributed to modeled hardware
    /// effects outside the admission model (SMIs, injected fault lanes,
    /// timer quantization).
    pub environment_misses: u64,
    /// Layer-isolation checks: dispatch-eligibility checks against the
    /// throttled mirror plus per-window bandwidth/honesty checks at each
    /// `LayerReplenish`. Zero on unlayered configs.
    pub layer_checks: u64,
    /// Fault-injection records seen, per lane ([`FaultLane::idx`] order).
    pub fault_records: [u64; FaultLane::COUNT],
    /// Environment-attributed misses broken down by the fault lane whose
    /// injection most recently preceded each miss ([`FaultLane::idx`]
    /// order). Misses with no preceding fault record (pure SMI or
    /// quantization effects) stay in the aggregate count only.
    pub env_miss_by_lane: [u64; FaultLane::COUNT],
}

impl OracleStats {
    /// Environment-attributed misses that a fault-lane injection preceded.
    pub fn env_misses_lane_attributed(&self) -> u64 {
        self.env_miss_by_lane.iter().sum()
    }
}

/// Process-wide accumulators, flushed from each suite as it drops (node
/// teardown or pooled reset), so a whole trial matrix can report one
/// oracle summary regardless of how its nodes were constructed.
static G_SUITES: AtomicU64 = AtomicU64::new(0);
static G_RECORDS: AtomicU64 = AtomicU64::new(0);
static G_EDF: AtomicU64 = AtomicU64::new(0);
static G_MISS: AtomicU64 = AtomicU64::new(0);
static G_TASK: AtomicU64 = AtomicU64::new(0);
static G_TIMER: AtomicU64 = AtomicU64::new(0);
static G_FIRE_ORDER: AtomicU64 = AtomicU64::new(0);
static G_DIVERGE: AtomicU64 = AtomicU64::new(0);
static G_CACHE_CHECKS: AtomicU64 = AtomicU64::new(0);
static G_CACHE_DIVERGE: AtomicU64 = AtomicU64::new(0);
static G_ENV_MISS: AtomicU64 = AtomicU64::new(0);
static G_LAYER: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ATOMIC_ZERO: AtomicU64 = AtomicU64::new(0);
static G_FAULT_RECORDS: [AtomicU64; FaultLane::COUNT] = [ATOMIC_ZERO; FaultLane::COUNT];
static G_ENV_BY_LANE: [AtomicU64; FaultLane::COUNT] = [ATOMIC_ZERO; FaultLane::COUNT];

/// Totals flushed from every dropped suite so far: `(suites, stats)`.
/// Suites still alive have not flushed yet.
pub fn global_stats() -> (u64, OracleStats) {
    let mut fault_records = [0u64; FaultLane::COUNT];
    let mut env_miss_by_lane = [0u64; FaultLane::COUNT];
    for i in 0..FaultLane::COUNT {
        fault_records[i] = G_FAULT_RECORDS[i].load(Ordering::Relaxed);
        env_miss_by_lane[i] = G_ENV_BY_LANE[i].load(Ordering::Relaxed);
    }
    (
        G_SUITES.load(Ordering::Relaxed),
        OracleStats {
            records: G_RECORDS.load(Ordering::Relaxed),
            edf_checks: G_EDF.load(Ordering::Relaxed),
            miss_checks: G_MISS.load(Ordering::Relaxed),
            task_checks: G_TASK.load(Ordering::Relaxed),
            timer_checks: G_TIMER.load(Ordering::Relaxed),
            fire_order_checks: G_FIRE_ORDER.load(Ordering::Relaxed),
            divergences: G_DIVERGE.load(Ordering::Relaxed),
            cache_checks: G_CACHE_CHECKS.load(Ordering::Relaxed),
            cache_divergences: G_CACHE_DIVERGE.load(Ordering::Relaxed),
            environment_misses: G_ENV_MISS.load(Ordering::Relaxed),
            layer_checks: G_LAYER.load(Ordering::Relaxed),
            fault_records,
            env_miss_by_lane,
        },
    )
}

/// Oracle configuration, normally derived from the node's own scheduler
/// config and cost model via [`OracleConfig::for_node`].
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Panic or collect.
    pub mode: OracleMode,
    /// Eager or lazy dispatch: the EDF oracle only applies to eager.
    pub sched_mode: SchedMode,
    /// Cycle/ns conversion for task sizes.
    pub freq: Freq,
    /// Modeled per-job scheduler overhead for the feasibility cross-check
    /// (two interrupt passes at worst-case cost).
    pub overhead_ns: Nanos,
    /// Window cap for the feasibility simulation.
    pub window_cap_ns: Nanos,
    /// Slack allowed on the inline-task fit check: the scheduler measures
    /// the gap at pass time and the wall clock advances slightly before
    /// each task is charged, so a strict comparison would false-positive
    /// on backlog jitter.
    pub task_slop_ns: Nanos,
    /// The layer bandwidth contracts the layer-isolation family checks
    /// against (the scheduler's own table).
    pub layers: LayerTable,
    /// Slack on the per-window bandwidth bound: the final span before a
    /// throttle may overdraw the bucket by one timer quantum plus the
    /// kernel path's busy window, and a window-straddling span is charged
    /// whole to the window it ends in.
    pub layer_slack_ns: Nanos,
    /// Whether the environment upholds the admission model at all: false
    /// when SMIs or any `FaultPlan` lane are injected, or when the timer
    /// is quantized (coarse one-shot ticks) — hardware effects the paper
    /// shows *do* cause misses on admitted sets (§4–§5). Admitted-set
    /// misses then count in [`OracleStats::environment_misses`] instead
    /// of failing, attributed per lane via the `Record::Fault` stream.
    pub admission_guarantee: bool,
}

impl OracleConfig {
    /// Derive the oracle configuration for a node: its TSC frequency, its
    /// scheduler mode, a per-job overhead bound of two worst-case
    /// scheduler interrupts under its cost model, and whether the modeled
    /// hardware (SMIs, timer quantization) upholds the admission model.
    pub fn for_node(freq: Freq, sched: &SchedConfig, cm: &CostModel, mc: &MachineConfig) -> Self {
        let pass_cycles = cm.irq_entry.worst()
            + cm.irq_exit.worst()
            + cm.sched_pass.worst()
            + cm.sched_other.worst()
            + cm.ctx_switch.worst()
            + cm.timer_program.worst();
        // A quantized one-shot voids the guarantee only when its tick is
        // coarser than the granularity the admission test accepts
        // constraints at: a slice remainder below one tick then grinds
        // through interrupt passes without progress (the §3.3 pathology
        // the `abl_timer_mode` ablation demonstrates).
        let tick_ok = match mc.timer_mode {
            TimerMode::TscDeadline => true,
            TimerMode::OneShot { tick_cycles } => {
                freq.cycles_to_ns(tick_cycles) <= sched.granularity_ns
            }
        };
        let tick_ns = match mc.timer_mode {
            TimerMode::TscDeadline => 0,
            TimerMode::OneShot { tick_cycles } => freq.cycles_to_ns(tick_cycles),
        };
        OracleConfig {
            mode: OracleMode::Panic,
            sched_mode: sched.mode,
            freq,
            overhead_ns: freq.cycles_to_ns(2 * pass_cycles),
            window_cap_ns: 1_000_000_000,
            task_slop_ns: 100_000,
            layers: sched.layers,
            layer_slack_ns: freq.cycles_to_ns(2 * pass_cycles) + tick_ns + 500_000,
            admission_guarantee: !mc.smi.enabled() && !mc.faults.enabled() && tick_ok,
        }
    }

    /// Switch to collect mode (tests).
    pub fn collecting(mut self) -> Self {
        self.mode = OracleMode::Collect;
        self
    }
}

/// A thread holding an enforced, admitted RT reservation.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    tid: TraceTid,
    class: TraceClass,
    /// Period τ (periodic) or deadline window δ−φ context (sporadic), ns.
    period_ns: Nanos,
    /// Slice σ (periodic) or burst size (sporadic), ns.
    slice_ns: Nanos,
}

/// Per-CPU mirror of the scheduler's queues, rebuilt from the stream.
#[derive(Debug, Default)]
struct CpuState {
    /// Runnable RT threads with active jobs: `(tid, absolute deadline)`.
    queued_rt: Vec<(TraceTid, Nanos)>,
    /// Threads waiting for their next arrival: `(tid, absolute arrival)`.
    pending: Vec<(TraceTid, Nanos)>,
    /// Enforced-admitted RT reservations on this CPU's ledger.
    admitted: Vec<Admitted>,
    /// Whether the last dispatch on this CPU was an in-job RT thread.
    running_rt: bool,
    /// A `SimCacheProbe` awaiting its `AdmitVerdict` on this CPU.
    probe: Option<SimProbe>,
    /// The last dispatch on this CPU: `(layer, wall ns)`. The span until
    /// the next dispatch is charged to that layer, mirroring the
    /// scheduler's own span accounting exactly ([`TRACE_LAYER_IDLE`]
    /// spans are charged to nothing).
    last_dispatch: Option<(u32, Nanos)>,
    /// Mirrored per-layer wall-time consumption since the last replenish,
    /// re-derived purely from the dispatch stream.
    layer_spent: [u64; MAX_LAYERS],
    /// Layers throttled by a `LayerThrottle` with no replenish since.
    layer_throttled: [bool; MAX_LAYERS],
    /// Last accepted RT class per thread (from `AdmitVerdict`), for
    /// mapping queued threads to their layer on layered configs.
    rt_class: Vec<(TraceTid, TraceClass)>,
}

impl CpuState {
    fn set_class(&mut self, tid: TraceTid, class: TraceClass) {
        if class == TraceClass::Aperiodic {
            self.rt_class.retain(|(t, _)| *t != tid);
        } else {
            match self.rt_class.iter_mut().find(|(t, _)| *t == tid) {
                Some(slot) => slot.1 = class,
                None => self.rt_class.push((tid, class)),
            }
        }
    }

    /// Earliest-deadline queued RT thread the scheduler is actually
    /// allowed to run: threads whose layer is throttled are excluded,
    /// mirroring dispatch's own layer skip. On an unlayered config
    /// nothing is ever throttled and this is exactly [`set_min`].
    fn min_dispatchable(&self, layers: &LayerTable) -> Option<(TraceTid, Nanos)> {
        self.queued_rt
            .iter()
            .copied()
            .filter(|&(tid, _)| {
                let layer = match self.rt_class.iter().find(|(t, _)| *t == tid) {
                    Some((_, TraceClass::Sporadic)) => layers.map_sporadic(),
                    _ => layers.map_periodic(),
                };
                !self.layer_throttled[layer]
            })
            .min_by_key(|&(_, k)| k)
    }
}

fn set_insert(set: &mut Vec<(TraceTid, Nanos)>, tid: TraceTid, key: Nanos) {
    match set.iter_mut().find(|(t, _)| *t == tid) {
        Some(slot) => slot.1 = key,
        None => set.push((tid, key)),
    }
}

fn set_remove(set: &mut Vec<(TraceTid, Nanos)>, tid: TraceTid) {
    set.retain(|(t, _)| *t != tid);
}

fn set_min(set: &[(TraceTid, Nanos)]) -> Option<(TraceTid, Nanos)> {
    set.iter().copied().min_by_key(|&(_, k)| k)
}

/// The five oracle families plus the steal check, as one stream observer.
#[derive(Debug)]
pub struct OracleSuite {
    cfg: OracleConfig,
    cpus: Vec<CpuState>,
    violations: Vec<Violation>,
    stats: OracleStats,
    /// Most recent injected fault seen in the stream, for attributing
    /// environment misses to the lane that induced them.
    last_fault: Option<FaultLane>,
    /// True time of the most recent timer fire, for the emission-order
    /// check across batch-dispatch boundaries.
    last_fire_cycles: Option<Cycles>,
}

impl OracleSuite {
    /// An empty suite; per-CPU state grows on first sight of each CPU.
    pub fn new(cfg: OracleConfig) -> Self {
        OracleSuite {
            cfg,
            cpus: Vec::new(),
            violations: Vec::new(),
            stats: OracleStats::default(),
            last_fault: None,
            last_fire_cycles: None,
        }
    }

    /// Violations collected so far (always empty in panic mode — the
    /// first one aborts).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Check counters.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Panic unless the stream was violation-free (and actually checked
    /// something, guarding against silently-disconnected wiring).
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "oracle violations: {:?}",
            self.violations
        );
    }

    fn cpu(&mut self, cpu: u32) -> &mut CpuState {
        let idx = cpu as usize;
        if self.cpus.len() <= idx {
            self.cpus.resize_with(idx + 1, CpuState::default);
        }
        &mut self.cpus[idx]
    }

    fn violate(&mut self, oracle: &'static str, message: String, recent: &TraceRing) {
        match self.cfg.mode {
            OracleMode::Panic => {
                let tail = 24usize;
                let skip = recent.len().saturating_sub(tail);
                let mut ctx = String::new();
                for r in recent.iter().skip(skip) {
                    ctx.push_str(&format!("  {r:?}\n"));
                }
                panic!(
                    "ORACLE VIOLATION [{oracle}]: {message}\n\
                     last {n} trace records (oldest first):\n{ctx}",
                    n = recent.len().min(tail),
                );
            }
            OracleMode::Collect => self.violations.push(Violation { oracle, message }),
        }
    }

    /// Oracle (a): the dispatched thread against the remaining runnable
    /// RT set. Eager mode only.
    fn check_dispatch(
        &mut self,
        cpu: u32,
        tid: TraceTid,
        now_ns: Nanos,
        deadline_ns: Nanos,
        is_rt: bool,
        recent: &TraceRing,
    ) {
        if self.cfg.sched_mode != SchedMode::Eager {
            return;
        }
        self.stats.edf_checks += 1;
        let layers = self.cfg.layers;
        let queued = self.cpu(cpu).min_dispatchable(&layers);
        if is_rt {
            if let Some((qtid, qdl)) = queued {
                if qdl < deadline_ns {
                    self.violate(
                        "edf",
                        format!(
                            "cpu {cpu} dispatched tid {tid} (deadline {deadline_ns}) while \
                             tid {qtid} with earlier deadline {qdl} was runnable (now {now_ns})"
                        ),
                        recent,
                    );
                }
            }
        } else if let Some((qtid, qdl)) = queued {
            self.violate(
                "edf",
                format!(
                    "cpu {cpu} dispatched non-RT tid {tid} while RT tid {qtid} \
                     (deadline {qdl}) was runnable (now {now_ns})"
                ),
                recent,
            );
        }
    }

    /// Oracle (b): a deadline miss on an enforced-admitted thread,
    /// cross-checked against the overhead-aware feasibility simulation.
    fn check_miss(
        &mut self,
        cpu: u32,
        tid: TraceTid,
        now_ns: Nanos,
        deadline_ns: Nanos,
        recent: &TraceRing,
    ) {
        let (overhead, cap) = (self.cfg.overhead_ns, self.cfg.window_cap_ns);
        let state = self.cpu(cpu);
        let Some(hit) = state.admitted.iter().find(|a| a.tid == tid).copied() else {
            return;
        };
        // The admitted set as the ledger saw it: every enforced periodic
        // reservation on this CPU, plus the missing thread itself if
        // sporadic (modeled as one pseudo-period of its window).
        let set: Vec<(Nanos, Nanos)> = state
            .admitted
            .iter()
            .filter(|a| a.class == TraceClass::Periodic || a.tid == tid)
            .map(|a| (a.period_ns, a.slice_ns))
            .collect();
        self.stats.miss_checks += 1;
        if !self.cfg.admission_guarantee {
            self.stats.environment_misses += 1;
            if let Some(lane) = self.last_fault {
                self.stats.env_miss_by_lane[lane.idx()] += 1;
            }
            return;
        }
        if simulate_edf_feasible(&set, overhead, cap) {
            self.violate(
                "admission",
                format!(
                    "cpu {cpu} admitted {class:?} tid {tid} missed its deadline \
                     {deadline_ns} ns at {now_ns} ns (+{late} ns), yet the admitted \
                     set {set:?} is EDF-feasible even with {overhead} ns/job modeled \
                     overhead",
                    class = hit.class,
                    late = now_ns.saturating_sub(deadline_ns),
                ),
                recent,
            );
        } else {
            // The closed-form test admitted a set whose granularity the
            // overhead-aware simulation rejects: a policy divergence the
            // HyperperiodSim policy exists to close, not a scheduler bug.
            self.stats.divergences += 1;
        }
    }

    /// Oracle (c): inline task execution against RT runnability and the
    /// next pending arrival.
    fn check_task(&mut self, cpu: u32, now_ns: Nanos, size_cycles: Cycles, recent: &TraceRing) {
        self.stats.task_checks += 1;
        let size_ns = self.cfg.freq.cycles_to_ns(size_cycles);
        let slop = self.cfg.task_slop_ns;
        let layers = self.cfg.layers;
        let state = self.cpu(cpu);
        if state.running_rt || state.min_dispatchable(&layers).is_some() {
            let msg = format!(
                "cpu {cpu} executed a size-tagged task ({size_ns} ns) at {now_ns} ns \
                 while an RT thread was {} (queued_rt: {:?})",
                if state.running_rt {
                    "dispatched"
                } else {
                    "runnable"
                },
                state.queued_rt,
            );
            self.violate("isolation", msg, recent);
            return;
        }
        if let Some((ptid, arrival)) = set_min(&state.pending) {
            if now_ns + size_ns > arrival + slop {
                self.violate(
                    "isolation",
                    format!(
                        "cpu {cpu} executed a {size_ns} ns size-tagged task at {now_ns} ns \
                         overlapping tid {ptid}'s arrival at {arrival} ns (+{slop} ns slop)"
                    ),
                    recent,
                );
            }
        }
    }

    /// Oracle (d): the pass's one-shot request against the pending set,
    /// in the scheduler's wall-clock domain.
    fn check_timer(
        &mut self,
        cpu: u32,
        now_ns: Nanos,
        wall_ns: Nanos,
        exec_cycles: Cycles,
        armed: bool,
        recent: &TraceRing,
    ) {
        self.stats.timer_checks += 1;
        let state = self.cpu(cpu);
        if let Some((ptid, arrival)) = set_min(&state.pending) {
            if !armed {
                self.violate(
                    "tickless",
                    format!(
                        "cpu {cpu} cancelled its one-shot at {now_ns} ns with tid {ptid} \
                         pending at {arrival} ns"
                    ),
                    recent,
                );
            } else if wall_ns > arrival {
                self.violate(
                    "tickless",
                    format!(
                        "cpu {cpu} armed its one-shot for {wall_ns} ns, past tid {ptid}'s \
                         pending arrival at {arrival} ns (now {now_ns})"
                    ),
                    recent,
                );
            }
        }
        if self.cpu(cpu).running_rt && exec_cycles == Cycles::MAX {
            self.violate(
                "tickless",
                format!(
                    "cpu {cpu} dispatched an in-job RT thread but requested no slice-end \
                     one-shot (now {now_ns} ns)"
                ),
                recent,
            );
        }
    }

    /// Admission-verdict oracle: a [`Record::SimCacheProbe`] preceding a
    /// periodic admission verdict is re-checked against the reference
    /// overhead-aware simulation ([`simulate_edf_feasible`]) of the
    /// mirrored admitted set plus the candidate. The ledger computes its
    /// verdicts by the processor-demand criterion, so a miss (a verdict
    /// computed fresh) is checked against an independent method; a
    /// divergence means the criterion is wrong, the memo cache served a
    /// stale or colliding entry, or the ledger and the trace mirror
    /// drifted apart — a violation either way.
    fn check_probe(
        &mut self,
        cpu: u32,
        tid: TraceTid,
        probe: SimProbe,
        period_ns: Nanos,
        slice_ns: Nanos,
        recent: &TraceRing,
    ) {
        self.stats.cache_checks += 1;
        // The set as the ledger saw it at verdict time: every mirrored
        // periodic reservation except the requesting thread's own (its old
        // reservation is released before the candidate is tested), plus
        // the candidate itself.
        let set: Vec<(Nanos, Nanos)> = self
            .cpu(cpu)
            .admitted
            .iter()
            .filter(|a| a.class == TraceClass::Periodic && a.tid != tid)
            .map(|a| (a.period_ns, a.slice_ns))
            .chain(std::iter::once((period_ns, slice_ns)))
            .collect();
        let fresh = simulate_edf_feasible(&set, probe.overhead_ns, probe.window_cap_ns);
        if fresh != probe.feasible {
            self.stats.cache_divergences += 1;
            self.violate(
                "admission-cache",
                format!(
                    "cpu {cpu} tid {tid}: {src} verdict said feasible={cached} for set \
                     {set:?} (sig {sig:#x}, {overhead} ns/job overhead), but the \
                     reference simulation says feasible={fresh}",
                    src = if probe.hit { "cached" } else { "computed" },
                    cached = probe.feasible,
                    sig = probe.sig,
                    overhead = probe.overhead_ns,
                ),
                recent,
            );
        }
    }

    /// Fire-order check: the machine pump emits `TimerFire` records in
    /// nondecreasing true-time order. Batched same-timestamp dispatch
    /// must be invisible in the stream; a fire stepping backwards means
    /// the pump reordered hardware events across a batch boundary.
    fn check_fire_order(&mut self, cpu: u32, at_cycles: Cycles, recent: &TraceRing) {
        self.stats.fire_order_checks += 1;
        if let Some(last) = self.last_fire_cycles {
            if at_cycles < last {
                self.violate(
                    "fire-order",
                    format!(
                        "cpu {cpu} timer fired at {at_cycles} cycles after a fire at \
                         {last}: the event pump emitted records out of time order"
                    ),
                    recent,
                );
            }
        }
        self.last_fire_cycles = Some(at_cycles);
    }

    /// Layer oracle, dispatch side: charge the elapsed span to the layer
    /// the previous dispatch stamped, then reject a dispatch in a layer
    /// that is still throttled (no replenish since its `LayerThrottle`).
    fn check_layer_dispatch(
        &mut self,
        cpu: u32,
        tid: TraceTid,
        now_ns: Nanos,
        layer: u32,
        recent: &TraceRing,
    ) {
        let state = self.cpu(cpu);
        if let Some((prev_layer, prev_ns)) = state.last_dispatch {
            if prev_layer != TRACE_LAYER_IDLE && (prev_layer as usize) < MAX_LAYERS {
                state.layer_spent[prev_layer as usize] += now_ns.saturating_sub(prev_ns);
            }
        }
        state.last_dispatch = Some((layer, now_ns));
        if layer == TRACE_LAYER_IDLE {
            return;
        }
        self.stats.layer_checks += 1;
        if (layer as usize) >= self.cfg.layers.count() {
            self.violate(
                "layer",
                format!("cpu {cpu} dispatched tid {tid} stamped with unconfigured layer {layer}"),
                recent,
            );
            return;
        }
        if self.cpu(cpu).layer_throttled[layer as usize] {
            self.violate(
                "layer",
                format!(
                    "cpu {cpu} dispatched tid {tid} at {now_ns} ns in layer {layer}, which \
                     is throttled until the next replenish"
                ),
                recent,
            );
        }
    }

    /// Layer oracle, replenish side: the record's reported consumption
    /// must equal what the dispatch stream implies (a scheduler cannot
    /// launder an over-replenish through its own counters), a finite
    /// layer must stay within its bandwidth cap over the window, and the
    /// cap itself must match the configured contract.
    fn check_layer_replenish(
        &mut self,
        cpu: u32,
        layer: u32,
        spent_ns: Nanos,
        cap_ns: Nanos,
        recent: &TraceRing,
    ) {
        self.stats.layer_checks += 1;
        let l = layer as usize;
        if l >= self.cfg.layers.count() {
            self.violate(
                "layer",
                format!("cpu {cpu} replenished unconfigured layer {layer}"),
                recent,
            );
            return;
        }
        let mirrored = self.cpu(cpu).layer_spent[l];
        if spent_ns != mirrored {
            self.violate(
                "layer",
                format!(
                    "cpu {cpu} layer {layer} replenish reports {spent_ns} ns consumed, but \
                     the dispatch stream implies {mirrored} ns"
                ),
                recent,
            );
        }
        let derived = self.cfg.layers.cap_ns(l);
        if cap_ns != derived {
            self.violate(
                "layer",
                format!(
                    "cpu {cpu} layer {layer} replenish carries cap {cap_ns} ns; the \
                     configured contract derives {derived} ns"
                ),
                recent,
            );
        }
        if !self.cfg.layers.spec(l).exempt() && spent_ns > derived + self.cfg.layer_slack_ns {
            self.violate(
                "layer",
                format!(
                    "cpu {cpu} layer {layer} consumed {spent_ns} ns in one replenish \
                     window, over its {derived} ns bandwidth cap (+{slack} ns slack)",
                    slack = self.cfg.layer_slack_ns,
                ),
                recent,
            );
        }
        let state = self.cpu(cpu);
        state.layer_spent[l] = 0;
        state.layer_throttled[l] = false;
    }

    /// Layer oracle, throttle side: only a configured, finite layer can
    /// legitimately exhaust its bucket.
    fn check_layer_throttle(&mut self, cpu: u32, layer: u32, now_ns: Nanos, recent: &TraceRing) {
        self.stats.layer_checks += 1;
        let l = layer as usize;
        if l >= self.cfg.layers.count() || self.cfg.layers.spec(l).exempt() {
            self.violate(
                "layer",
                format!(
                    "cpu {cpu} throttled layer {layer} at {now_ns} ns, which is \
                     unconfigured or exempt and can never exhaust a bucket"
                ),
                recent,
            );
            return;
        }
        self.cpu(cpu).layer_throttled[l] = true;
    }

    /// Steal check: work stealing must never migrate an RT reservation.
    fn check_steal(&mut self, thief: u32, victim: u32, tid: TraceTid, recent: &TraceRing) {
        let admitted_rt = self
            .cpus
            .iter()
            .flat_map(|c| c.admitted.iter())
            .any(|a| a.tid == tid);
        if admitted_rt {
            self.violate(
                "steal",
                format!("cpu {thief} stole RT-admitted tid {tid} from cpu {victim}"),
                recent,
            );
        }
    }
}

impl Drop for OracleSuite {
    fn drop(&mut self) {
        G_SUITES.fetch_add(1, Ordering::Relaxed);
        G_RECORDS.fetch_add(self.stats.records, Ordering::Relaxed);
        G_EDF.fetch_add(self.stats.edf_checks, Ordering::Relaxed);
        G_MISS.fetch_add(self.stats.miss_checks, Ordering::Relaxed);
        G_TASK.fetch_add(self.stats.task_checks, Ordering::Relaxed);
        G_TIMER.fetch_add(self.stats.timer_checks, Ordering::Relaxed);
        G_FIRE_ORDER.fetch_add(self.stats.fire_order_checks, Ordering::Relaxed);
        G_DIVERGE.fetch_add(self.stats.divergences, Ordering::Relaxed);
        G_CACHE_CHECKS.fetch_add(self.stats.cache_checks, Ordering::Relaxed);
        G_CACHE_DIVERGE.fetch_add(self.stats.cache_divergences, Ordering::Relaxed);
        G_ENV_MISS.fetch_add(self.stats.environment_misses, Ordering::Relaxed);
        G_LAYER.fetch_add(self.stats.layer_checks, Ordering::Relaxed);
        for i in 0..FaultLane::COUNT {
            G_FAULT_RECORDS[i].fetch_add(self.stats.fault_records[i], Ordering::Relaxed);
            G_ENV_BY_LANE[i].fetch_add(self.stats.env_miss_by_lane[i], Ordering::Relaxed);
        }
    }
}

/// What the suite subscribes to: every kind but the figure observers'.
const ORACLE_KINDS: Kinds = {
    use Kind::*;
    Kinds::ALL.without(Kinds::of(&[Switch, IrqEnter, IrqExit, GroupJoin, GaSteps]))
};

impl Observer for OracleSuite {
    fn kinds(&self) -> Kinds {
        ORACLE_KINDS
    }

    fn on_record(&mut self, r: &Record, recent: &TraceRing) {
        self.stats.records += 1;
        match *r {
            Record::RtQueued {
                cpu,
                tid,
                deadline_ns,
            } => {
                let state = self.cpu(cpu);
                set_insert(&mut state.queued_rt, tid, deadline_ns);
                set_remove(&mut state.pending, tid);
            }
            Record::PendingQueued {
                cpu,
                tid,
                arrival_ns,
            } => {
                let state = self.cpu(cpu);
                set_insert(&mut state.pending, tid, arrival_ns);
                set_remove(&mut state.queued_rt, tid);
            }
            Record::JobArrive {
                cpu,
                tid,
                deadline_ns,
                ..
            } => {
                let state = self.cpu(cpu);
                set_remove(&mut state.pending, tid);
                set_insert(&mut state.queued_rt, tid, deadline_ns);
            }
            Record::Dequeued { cpu, tid } => {
                let state = self.cpu(cpu);
                set_remove(&mut state.queued_rt, tid);
                set_remove(&mut state.pending, tid);
            }
            Record::Dispatch {
                cpu,
                tid,
                now_ns,
                deadline_ns,
                is_rt,
                is_idle,
                layer,
                ..
            } => {
                let state = self.cpu(cpu);
                set_remove(&mut state.queued_rt, tid);
                state.running_rt = is_rt && !is_idle;
                self.check_layer_dispatch(cpu, tid, now_ns, layer, recent);
                self.check_dispatch(cpu, tid, now_ns, deadline_ns, is_rt, recent);
            }
            Record::JobComplete {
                cpu,
                tid,
                now_ns,
                deadline_ns,
                outcome: TraceOutcome::Missed,
            } => self.check_miss(cpu, tid, now_ns, deadline_ns, recent),
            Record::AdmitVerdict {
                cpu,
                tid,
                accepted,
                enforced,
                class,
                period_ns,
                slice_ns,
            } => {
                // Re-check a preceding simulation probe against the mirror
                // *before* the verdict mutates it. Any stashed probe is
                // consumed here: probes pair with the next verdict.
                if let Some(probe) = self.cpu(cpu).probe.take() {
                    if class == TraceClass::Periodic {
                        self.check_probe(cpu, tid, probe, period_ns, slice_ns, recent);
                    }
                }
                let state = self.cpu(cpu);
                state.admitted.retain(|a| a.tid != tid);
                if accepted {
                    state.set_class(tid, class);
                }
                if accepted && enforced && class != TraceClass::Aperiodic {
                    state.admitted.push(Admitted {
                        tid,
                        class,
                        period_ns,
                        slice_ns,
                    });
                }
            }
            Record::SimCacheProbe {
                cpu,
                hit,
                feasible,
                sig,
                overhead_ns,
                window_cap_ns,
            } => {
                self.cpu(cpu).probe = Some(SimProbe {
                    hit,
                    feasible,
                    sig,
                    overhead_ns,
                    window_cap_ns,
                });
            }
            Record::AdmitRollback {
                cpu,
                tid,
                enforced,
                class,
                period_ns,
                slice_ns,
            } => {
                // A failed re-admission restored the thread's previous
                // reservation after its rejected `AdmitVerdict` cleared
                // the mirror entry: put it back.
                let state = self.cpu(cpu);
                state.admitted.retain(|a| a.tid != tid);
                state.set_class(tid, class);
                if enforced && class != TraceClass::Aperiodic {
                    state.admitted.push(Admitted {
                        tid,
                        class,
                        period_ns,
                        slice_ns,
                    });
                }
            }
            Record::ConstraintsReleased { cpu, tid } => {
                let state = self.cpu(cpu);
                state.admitted.retain(|a| a.tid != tid);
                state.rt_class.retain(|(t, _)| *t != tid);
            }
            Record::TimerReq {
                cpu,
                now_ns,
                wall_ns,
                exec_cycles,
                armed,
            } => {
                self.check_timer(cpu, now_ns, wall_ns, exec_cycles, armed, recent);
            }
            Record::TaskExec {
                cpu,
                now_ns,
                size_cycles,
                ..
            } => {
                self.check_task(cpu, now_ns, size_cycles, recent);
            }
            Record::Steal { thief, victim, tid } => {
                self.check_steal(thief, victim, tid, recent);
            }
            Record::Fault { lane, .. } => {
                self.stats.fault_records[lane.idx()] += 1;
                self.last_fault = Some(lane);
            }
            Record::TimerFire { cpu, at_cycles } => {
                self.check_fire_order(cpu, at_cycles, recent);
            }
            Record::LayerThrottle { cpu, layer, now_ns } => {
                self.check_layer_throttle(cpu, layer, now_ns, recent);
            }
            Record::LayerReplenish {
                cpu,
                layer,
                spent_ns,
                cap_ns,
            } => {
                self.check_layer_replenish(cpu, layer, spent_ns, cap_ns, recent);
            }
            // Context-only records, and jobs that met their deadline or
            // forfeited it: no oracle state.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OracleConfig {
        OracleConfig::for_node(
            Freq::phi(),
            &SchedConfig::default(),
            &CostModel::phi(),
            &MachineConfig::phi(),
        )
        .collecting()
    }

    fn feed(suite: &mut OracleSuite, records: &[Record]) {
        let mut ring = TraceRing::new(64);
        for &r in records {
            ring.push(r);
            suite.on_record(&r, &ring);
        }
    }

    #[test]
    fn edf_oracle_accepts_earliest_deadline_dispatch() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::RtQueued {
                    cpu: 0,
                    tid: 2,
                    deadline_ns: 5_000,
                },
                Record::RtQueued {
                    cpu: 0,
                    tid: 3,
                    deadline_ns: 9_000,
                },
                Record::Dispatch {
                    cpu: 0,
                    tid: 2,
                    now_ns: 1_000,
                    deadline_ns: 5_000,
                    is_rt: true,
                    is_idle: false,
                    switched: true,
                    layer: 0,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().edf_checks, 1);
    }

    #[test]
    fn edf_oracle_flags_later_deadline_dispatch() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::RtQueued {
                    cpu: 0,
                    tid: 2,
                    deadline_ns: 5_000,
                },
                Record::RtQueued {
                    cpu: 0,
                    tid: 3,
                    deadline_ns: 9_000,
                },
                Record::Dispatch {
                    cpu: 0,
                    tid: 3,
                    now_ns: 1_000,
                    deadline_ns: 9_000,
                    is_rt: true,
                    is_idle: false,
                    switched: true,
                    layer: 0,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "edf");
    }

    #[test]
    fn edf_oracle_flags_nonrt_dispatch_over_runnable_rt() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::RtQueued {
                    cpu: 0,
                    tid: 2,
                    deadline_ns: 5_000,
                },
                Record::Dispatch {
                    cpu: 0,
                    tid: 7,
                    now_ns: 1_000,
                    deadline_ns: Nanos::MAX,
                    is_rt: false,
                    is_idle: false,
                    switched: true,
                    layer: 0,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "edf");
    }

    #[test]
    fn isolation_oracle_flags_task_over_runnable_rt() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::RtQueued {
                    cpu: 0,
                    tid: 2,
                    deadline_ns: 5_000,
                },
                Record::TaskExec {
                    cpu: 0,
                    now_ns: 1_000,
                    size_cycles: 100,
                    budget_cycles: 1_000,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "isolation");
    }

    #[test]
    fn tickless_oracle_flags_late_one_shot() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::PendingQueued {
                    cpu: 0,
                    tid: 2,
                    arrival_ns: 10_000,
                },
                Record::TimerReq {
                    cpu: 0,
                    now_ns: 1_000,
                    wall_ns: 50_000,
                    exec_cycles: Cycles::MAX,
                    armed: true,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "tickless");
        // An on-time request is clean.
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::PendingQueued {
                    cpu: 0,
                    tid: 2,
                    arrival_ns: 10_000,
                },
                Record::TimerReq {
                    cpu: 0,
                    now_ns: 1_000,
                    wall_ns: 10_000,
                    exec_cycles: Cycles::MAX,
                    armed: true,
                },
            ],
        );
        s.assert_clean();
    }

    #[test]
    fn admission_oracle_flags_miss_of_feasible_set() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
                Record::JobComplete {
                    cpu: 0,
                    tid: 2,
                    now_ns: 1_100_000,
                    deadline_ns: 1_000_000,
                    outcome: TraceOutcome::Missed,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "admission");
        assert_eq!(s.stats().miss_checks, 1);
    }

    #[test]
    fn admission_oracle_ignores_unenforced_misses() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: false,
                    class: TraceClass::Periodic,
                    period_ns: 10_000,
                    slice_ns: 9_500,
                },
                Record::JobComplete {
                    cpu: 0,
                    tid: 2,
                    now_ns: 50_000,
                    deadline_ns: 10_000,
                    outcome: TraceOutcome::Missed,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().miss_checks, 0);
    }

    #[test]
    fn steal_oracle_flags_rt_migration() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 1,
                    tid: 4,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Sporadic,
                    period_ns: 1_000_000,
                    slice_ns: 50_000,
                },
                Record::Steal {
                    thief: 0,
                    victim: 1,
                    tid: 4,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "steal");
    }

    #[test]
    fn release_clears_admitted_state() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
                Record::ConstraintsReleased { cpu: 0, tid: 2 },
                Record::JobComplete {
                    cpu: 0,
                    tid: 2,
                    now_ns: 1_100_000,
                    deadline_ns: 1_000_000,
                    outcome: TraceOutcome::Missed,
                },
            ],
        );
        s.assert_clean();
    }

    #[test]
    fn fault_lane_miss_attribution() {
        // With faults enabled the guarantee is void; a miss after a fault
        // record is environment-attributed to that lane, not a violation.
        let mc = MachineConfig::phi().with_faults(nautix_hw::FaultPlan::noisy(Freq::phi(), 1.0));
        let cfg =
            OracleConfig::for_node(Freq::phi(), &SchedConfig::default(), &CostModel::phi(), &mc)
                .collecting();
        assert!(!cfg.admission_guarantee);
        let mut s = OracleSuite::new(cfg);
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
                Record::Fault {
                    cpu: 0,
                    lane: FaultLane::CpuStall,
                    now_cycles: 500,
                    magnitude_cycles: 65_000,
                },
                Record::JobComplete {
                    cpu: 0,
                    tid: 2,
                    now_ns: 1_100_000,
                    deadline_ns: 1_000_000,
                    outcome: TraceOutcome::Missed,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().environment_misses, 1);
        assert_eq!(s.stats().fault_records[FaultLane::CpuStall.idx()], 1);
        assert_eq!(s.stats().env_miss_by_lane[FaultLane::CpuStall.idx()], 1);
        assert_eq!(s.stats().env_misses_lane_attributed(), 1);
    }

    #[test]
    fn cache_oracle_accepts_agreeing_probe() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::SimCacheProbe {
                    cpu: 0,
                    hit: true,
                    feasible: true,
                    sig: 0xabcd,
                    overhead_ns: 1_000,
                    window_cap_ns: 1_000_000_000,
                },
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().cache_checks, 1);
        assert_eq!(s.stats().cache_divergences, 0);
    }

    #[test]
    fn cache_oracle_flags_divergent_cached_verdict() {
        let mut s = OracleSuite::new(cfg());
        // The probe claims feasible, but a 10 us period with a 5 us slice
        // under 9 us/job modeled overhead cannot fit: a fresh simulation
        // contradicts the cached verdict.
        feed(
            &mut s,
            &[
                Record::SimCacheProbe {
                    cpu: 0,
                    hit: true,
                    feasible: true,
                    sig: 0xbeef,
                    overhead_ns: 9_000,
                    window_cap_ns: 1_000_000_000,
                },
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 10_000,
                    slice_ns: 5_000,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "admission-cache");
        assert_eq!(s.stats().cache_checks, 1);
        assert_eq!(s.stats().cache_divergences, 1);
    }

    #[test]
    fn cache_recheck_excludes_the_requesting_threads_old_reservation() {
        // A re-admission releases the thread's old reservation before the
        // candidate is tested, but a *rejected* verdict never emits
        // `ConstraintsReleased` — the mirror still holds the old entry.
        // The re-check must exclude it, or every failed widening would
        // simulate the old and new reservations as coexisting.
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 100_000,
                    slice_ns: 60_000,
                },
                // Re-admission attempt at a wider period: simulated alone
                // (the old 60% entry must not be double-counted).
                Record::SimCacheProbe {
                    cpu: 0,
                    hit: false,
                    feasible: true,
                    sig: 0x77,
                    overhead_ns: 0,
                    window_cap_ns: 1_000_000_000,
                },
                Record::AdmitVerdict {
                    cpu: 0,
                    tid: 2,
                    accepted: false,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 125_000,
                    slice_ns: 60_000,
                },
                Record::AdmitRollback {
                    cpu: 0,
                    tid: 2,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 100_000,
                    slice_ns: 60_000,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().cache_checks, 1);
    }

    #[test]
    fn rollback_restores_the_admitted_mirror() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[
                Record::AdmitVerdict {
                    cpu: 1,
                    tid: 4,
                    accepted: true,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
                // A failed re-admission: the rejected verdict clears the
                // mirror entry, the rollback record restores it.
                Record::AdmitVerdict {
                    cpu: 1,
                    tid: 4,
                    accepted: false,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 500_000,
                    slice_ns: 400_000,
                },
                Record::AdmitRollback {
                    cpu: 1,
                    tid: 4,
                    enforced: true,
                    class: TraceClass::Periodic,
                    period_ns: 1_000_000,
                    slice_ns: 100_000,
                },
                // Stealing the thread now must still trip the steal oracle:
                // the reservation survived the failed re-admission.
                Record::Steal {
                    thief: 0,
                    victim: 1,
                    tid: 4,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "steal");
    }

    fn layered_cfg() -> OracleConfig {
        use crate::admission::LayerSpec;
        let sched = SchedConfig {
            layers: LayerTable::three_way(
                LayerSpec {
                    guarantee_ppm: 600_000,
                    burst_ppm: 50_000,
                },
                LayerSpec {
                    guarantee_ppm: 250_000,
                    burst_ppm: 0,
                },
                LayerSpec {
                    guarantee_ppm: 100_000,
                    burst_ppm: 0,
                },
                10_000_000,
            )
            .unwrap(),
            ..SchedConfig::default()
        };
        OracleConfig::for_node(
            Freq::phi(),
            &sched,
            &CostModel::phi(),
            &MachineConfig::phi(),
        )
        .collecting()
    }

    /// A non-RT dispatch in layer 2 (background, 1 ms cap per 10 ms
    /// window at 100_000 ppm).
    fn bg_dispatch(tid: TraceTid, now_ns: Nanos) -> Record {
        Record::Dispatch {
            cpu: 0,
            tid,
            now_ns,
            deadline_ns: Nanos::MAX,
            is_rt: false,
            is_idle: false,
            switched: true,
            layer: 2,
        }
    }

    fn idle_dispatch(now_ns: Nanos) -> Record {
        Record::Dispatch {
            cpu: 0,
            tid: 0,
            now_ns,
            deadline_ns: Nanos::MAX,
            is_rt: false,
            is_idle: true,
            switched: true,
            layer: TRACE_LAYER_IDLE,
        }
    }

    #[test]
    fn layer_oracle_accepts_in_budget_window() {
        let mut s = OracleSuite::new(layered_cfg());
        // 800 us of background execution in a 1 ms-cap window.
        feed(
            &mut s,
            &[
                bg_dispatch(7, 0),
                idle_dispatch(800_000),
                Record::LayerReplenish {
                    cpu: 0,
                    layer: 2,
                    spent_ns: 800_000,
                    cap_ns: 1_000_000,
                },
            ],
        );
        s.assert_clean();
        assert_eq!(s.stats().layer_checks, 2);
    }

    #[test]
    fn layer_oracle_flags_overspent_window() {
        let mut s = OracleSuite::new(layered_cfg());
        // 9 ms of background execution against a 1 ms cap: far past any
        // quantization slack. The replenish reports it honestly (as the
        // sabotaged over-replenish does) and must still be caught.
        feed(
            &mut s,
            &[
                bg_dispatch(7, 0),
                idle_dispatch(9_000_000),
                Record::LayerReplenish {
                    cpu: 0,
                    layer: 2,
                    spent_ns: 9_000_000,
                    cap_ns: 1_000_000,
                },
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "layer");
    }

    #[test]
    fn layer_oracle_flags_dishonest_spent_report() {
        let mut s = OracleSuite::new(layered_cfg());
        // The dispatch stream implies 5 ms of consumption but the
        // replenish claims 500 us: the mirror contradicts the counter.
        feed(
            &mut s,
            &[
                bg_dispatch(7, 0),
                idle_dispatch(5_000_000),
                Record::LayerReplenish {
                    cpu: 0,
                    layer: 2,
                    spent_ns: 500_000,
                    cap_ns: 1_000_000,
                },
            ],
        );
        assert!(!s.violations().is_empty());
        assert!(s.violations().iter().all(|v| v.oracle == "layer"));
    }

    #[test]
    fn layer_oracle_flags_wrong_cap() {
        let mut s = OracleSuite::new(layered_cfg());
        feed(
            &mut s,
            &[Record::LayerReplenish {
                cpu: 0,
                layer: 2,
                spent_ns: 0,
                cap_ns: 4_000_000, // contract derives 1 ms
            }],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "layer");
    }

    #[test]
    fn layer_oracle_flags_throttled_dispatch() {
        let mut s = OracleSuite::new(layered_cfg());
        feed(
            &mut s,
            &[
                Record::LayerThrottle {
                    cpu: 0,
                    layer: 2,
                    now_ns: 1_000_000,
                },
                bg_dispatch(7, 1_100_000),
            ],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "layer");
    }

    #[test]
    fn layer_replenish_clears_the_throttle() {
        let mut s = OracleSuite::new(layered_cfg());
        feed(
            &mut s,
            &[
                Record::LayerThrottle {
                    cpu: 0,
                    layer: 2,
                    now_ns: 1_000_000,
                },
                Record::LayerReplenish {
                    cpu: 0,
                    layer: 2,
                    spent_ns: 0,
                    cap_ns: 1_000_000,
                },
                bg_dispatch(7, 10_100_000),
            ],
        );
        s.assert_clean();
    }

    #[test]
    fn layer_oracle_flags_exempt_or_unconfigured_throttle() {
        // Layer 3 is unconfigured in the 3-way table.
        let mut s = OracleSuite::new(layered_cfg());
        feed(
            &mut s,
            &[Record::LayerThrottle {
                cpu: 0,
                layer: 3,
                now_ns: 1_000,
            }],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "layer");
        // The default table's single layer is exempt: it can never
        // legitimately throttle either.
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[Record::LayerThrottle {
                cpu: 0,
                layer: 0,
                now_ns: 1_000,
            }],
        );
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].oracle, "layer");
    }

    #[test]
    fn team_admit_is_context_only() {
        let mut s = OracleSuite::new(cfg());
        feed(
            &mut s,
            &[Record::TeamAdmit {
                cpu: 0,
                group: 3,
                members: 4,
                accepted: true,
            }],
        );
        s.assert_clean();
        assert_eq!(s.stats().records, 1);
    }
}

//! Admission control (§3.2).
//!
//! "Periodic and sporadic threads are admitted based on the classic single
//! CPU schemes for rate monotonic (RM) and earliest deadline first (EDF)
//! models. ... At boot time each local scheduler is configured with a
//! utilization limit as well as reservations for sporadic and aperiodic
//! threads, all expressed as percentages."
//!
//! Three policies are provided:
//!
//! * [`AdmissionPolicy::EdfBound`] — the Liu & Layland EDF test
//!   (ΣUᵢ ≤ limit − reservations); the default, matching the paper's
//!   default configuration (99% limit, 10% sporadic, 10% aperiodic).
//! * [`AdmissionPolicy::RmBound`] — the RM bound n(2^{1/n} − 1).
//! * [`AdmissionPolicy::HyperperiodSim`] — the paper's prototype that
//!   "did admission for a periodic thread-only model by simulating the
//!   local scheduler for a hyperperiod", here with per-job scheduler
//!   overhead included, so it catches constraint sets whose utilization
//!   passes the closed-form test but whose granularity cannot absorb the
//!   per-interrupt overhead. Its verdict is the one that simulation
//!   reaches, but it is computed by the processor-demand criterion
//!   ([`edf_demand_feasible`]); the event-by-event simulator
//!   ([`simulate_edf_feasible`]) is kept as the reference the armed
//!   oracles check every verdict against.
//!
//! Admission runs in the context of the requesting thread (its cost is
//! charged to the caller by the node), so "the cost of admission control
//! need not be separately accounted for in its effects on the already
//! admitted threads."
//!
//! The ledger is *incremental*: the periodic utilization sum is maintained
//! on every admit/release instead of rescanned, and `HyperperiodSim`
//! verdicts are memoized in a per-node [`SimCache`] keyed by
//! [`nautix_kernel::task_set_signature`]. The independent references are
//! [`CpuLoad::periodic_util_ppm_rescan`], a ledger with no cache installed
//! (every verdict computed fresh) and [`simulate_edf_feasible`]; the
//! differential and property suites pin the memoised ledger verdict- and
//! sum-identical to them.

use crate::stats::AdmissionStats;
use nautix_des::Nanos;
use nautix_kernel::{ppm_of, task_set_signature, AdmissionError, Constraints};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parts-per-million fixed point for utilizations.
pub const PPM: u64 = 1_000_000;

/// Maximum number of scheduling layers a node can be configured with.
/// Small and fixed so per-CPU token-bucket state lives in flat arrays on
/// the dispatch hot path (zero-alloc) and [`SchedConfig`] stays `Copy`.
pub const MAX_LAYERS: usize = 4;

/// One layer's bandwidth contract, in ppm of one CPU per replenish window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpec {
    /// Utilization guaranteed to this layer. Admission rejects RT requests
    /// that would push the layer's admitted sum past this, and dispatch
    /// refills the layer's token bucket from it every window.
    pub guarantee_ppm: u32,
    /// Extra bucket headroom above the guarantee: spendable within a
    /// window (soaking up transient overruns) but never admitted against.
    pub burst_ppm: u32,
}

impl LayerSpec {
    /// Guarantee plus burst, ppm.
    pub fn total_ppm(&self) -> u64 {
        self.guarantee_ppm as u64 + self.burst_ppm as u64
    }

    /// Whether the layer may consume a whole CPU per window. An exempt
    /// layer is never throttled and arms no bucket timers — this is what
    /// keeps the default single-layer table byte-identical to the
    /// unlayered scheduler.
    pub fn exempt(&self) -> bool {
        self.total_ppm() >= PPM
    }
}

/// Unused [`LayerTable`] spec slots hold this fixed filler so tables built
/// through any constructor compare equal field-for-field.
const LAYER_FILLER: LayerSpec = LayerSpec {
    guarantee_ppm: 0,
    burst_ppm: 0,
};

/// A rejected layer-table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerConfigError {
    /// Zero layers, or more than [`MAX_LAYERS`].
    BadCount,
    /// The guarantees sum past one full CPU (1_000_000 ppm).
    GuaranteeOvercommit,
    /// A class maps to a layer index at or beyond the spec count.
    BadMapping,
    /// A zero-length replenish window.
    BadReplenish,
}

impl std::fmt::Display for LayerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerConfigError::BadCount => {
                write!(f, "layer count must be 1..={MAX_LAYERS}")
            }
            LayerConfigError::GuaranteeOvercommit => {
                write!(f, "layer guarantees sum past {PPM} ppm")
            }
            LayerConfigError::BadMapping => write!(f, "class maps to a nonexistent layer"),
            LayerConfigError::BadReplenish => write!(f, "replenish window must be > 0 ns"),
        }
    }
}

/// The boot-time layer table: up to [`MAX_LAYERS`] bandwidth contracts
/// plus a thread-class→layer mapping (a layer's id is its index). Part of
/// [`SchedConfig`], so fixed-size and `Copy`. Only buildable through the
/// validating constructors; the default is a single exempt layer holding
/// the whole machine, which the scheduler special-cases to the exact
/// unlayered dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTable {
    specs: [LayerSpec; MAX_LAYERS],
    count: u8,
    /// Token buckets refill at multiples of this machine-time boundary
    /// (wall ns), making replenish deterministic at any host thread count.
    pub replenish_ns: Nanos,
    map_periodic: u8,
    map_sporadic: u8,
    map_aperiodic: u8,
}

impl Default for LayerTable {
    fn default() -> Self {
        LayerTable::single(PPM as u32, 0, 10_000_000).expect("default layer table is valid")
    }
}

impl LayerTable {
    /// Validate and build a table. `map` assigns the periodic, sporadic,
    /// and aperiodic classes (in that order) to layer indices.
    pub fn build(
        specs: &[LayerSpec],
        replenish_ns: Nanos,
        map: [u8; 3],
    ) -> Result<Self, LayerConfigError> {
        if specs.is_empty() || specs.len() > MAX_LAYERS {
            return Err(LayerConfigError::BadCount);
        }
        let sum: u64 = specs.iter().map(|s| s.guarantee_ppm as u64).sum();
        if sum > PPM {
            return Err(LayerConfigError::GuaranteeOvercommit);
        }
        if map.iter().any(|&m| m as usize >= specs.len()) {
            return Err(LayerConfigError::BadMapping);
        }
        if replenish_ns == 0 {
            return Err(LayerConfigError::BadReplenish);
        }
        let mut table = [LAYER_FILLER; MAX_LAYERS];
        table[..specs.len()].copy_from_slice(specs);
        Ok(LayerTable {
            specs: table,
            count: specs.len() as u8,
            replenish_ns,
            map_periodic: map[0],
            map_sporadic: map[1],
            map_aperiodic: map[2],
        })
    }

    /// A one-layer table holding every class.
    pub fn single(
        guarantee_ppm: u32,
        burst_ppm: u32,
        replenish_ns: Nanos,
    ) -> Result<Self, LayerConfigError> {
        LayerTable::build(
            &[LayerSpec {
                guarantee_ppm,
                burst_ppm,
            }],
            replenish_ns,
            [0, 0, 0],
        )
    }

    /// The canonical three-layer shape: periodic → `rt` (layer 0),
    /// sporadic → `batch` (layer 1), aperiodic → `bg` (layer 2).
    pub fn three_way(
        rt: LayerSpec,
        batch: LayerSpec,
        bg: LayerSpec,
        replenish_ns: Nanos,
    ) -> Result<Self, LayerConfigError> {
        LayerTable::build(&[rt, batch, bg], replenish_ns, [0, 1, 2])
    }

    /// Number of configured layers.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The spec of layer `layer` (must be `< count()`).
    pub fn spec(&self, layer: usize) -> LayerSpec {
        debug_assert!(layer < self.count());
        self.specs[layer]
    }

    /// Layer the periodic class maps to.
    pub fn map_periodic(&self) -> usize {
        self.map_periodic as usize
    }

    /// Layer the sporadic class maps to.
    pub fn map_sporadic(&self) -> usize {
        self.map_sporadic as usize
    }

    /// Layer the aperiodic class maps to.
    pub fn map_aperiodic(&self) -> usize {
        self.map_aperiodic as usize
    }

    /// Layer a constraint's class maps to.
    pub fn layer_of(&self, c: &Constraints) -> usize {
        match c {
            Constraints::Periodic { .. } => self.map_periodic(),
            Constraints::Sporadic { .. } => self.map_sporadic(),
            Constraints::Aperiodic { .. } => self.map_aperiodic(),
        }
    }

    /// Per-window, per-CPU bucket capacity of `layer` in wall ns
    /// (guarantee + burst share of the replenish window).
    pub fn cap_ns(&self, layer: usize) -> Nanos {
        (self.replenish_ns as u128 * self.spec(layer).total_ppm() as u128 / PPM as u128) as Nanos
    }
}

/// Process-wide admission-engine tallies, accumulated live from every
/// ledger (unlike per-[`CpuLoad`] stats, these survive `Node::reset`).
static G_SIM_HITS: AtomicU64 = AtomicU64::new(0);
static G_SIM_MISSES: AtomicU64 = AtomicU64::new(0);
static G_ROLLBACKS: AtomicU64 = AtomicU64::new(0);

/// Cumulative engine counters across every ledger in the process.
pub fn admission_global_stats() -> AdmissionStats {
    AdmissionStats {
        sim_hits: G_SIM_HITS.load(Ordering::Relaxed),
        sim_misses: G_SIM_MISSES.load(Ordering::Relaxed),
        rollbacks: G_ROLLBACKS.load(Ordering::Relaxed),
    }
}

/// What the most recent `HyperperiodSim` probe on a ledger concluded, and
/// how: consumed by the trace layer so an armed `OracleSuite` can re-check
/// every verdict, cached or computed fresh, against the reference
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimProbe {
    /// Whether the verdict came from the memo cache (otherwise it was
    /// computed fresh by [`edf_demand_feasible`]).
    pub hit: bool,
    /// The feasibility verdict itself.
    pub feasible: bool,
    /// Canonical signature of the probed set + overhead model.
    pub sig: u64,
    /// Overhead model the verdict was computed under.
    pub overhead_ns: Nanos,
    /// Window cap the verdict was computed under.
    pub window_cap_ns: Nanos,
}

/// Memoized `HyperperiodSim` verdicts, shared by every CPU ledger of
/// one node (single-threaded interior mutability: a `Node` never crosses
/// threads). Entries are keyed by canonical signature *and* the canonical
/// set itself — signature equality alone never decides, so colliding sets
/// cannot share a verdict. A small move-to-front LRU suffices: re-admission
/// churn (widening, group re-throttling) cycles among a handful of sets.
#[derive(Debug, Default)]
pub struct SimCache {
    entries: Vec<SimEntry>,
}

#[derive(Debug)]
struct SimEntry {
    sig: u64,
    set: Vec<(Nanos, Nanos)>,
    overhead_ns: Nanos,
    window_cap_ns: Nanos,
    feasible: bool,
}

/// Entries kept per node; beyond this the least recently used is evicted.
const SIM_CACHE_CAP: usize = 64;

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a verdict for the canonical `set` under the given overhead
    /// model; a hit moves the entry to the front.
    pub fn lookup(
        &mut self,
        sig: u64,
        set: &[(Nanos, Nanos)],
        overhead_ns: Nanos,
        window_cap_ns: Nanos,
    ) -> Option<bool> {
        let idx = self.entries.iter().position(|e| {
            e.sig == sig
                && e.overhead_ns == overhead_ns
                && e.window_cap_ns == window_cap_ns
                && e.set == set
        })?;
        self.entries[..=idx].rotate_right(1);
        Some(self.entries[0].feasible)
    }

    /// Insert a freshly computed verdict at the front, evicting the LRU
    /// entry past capacity.
    pub fn insert(
        &mut self,
        sig: u64,
        set: Vec<(Nanos, Nanos)>,
        overhead_ns: Nanos,
        window_cap_ns: Nanos,
        feasible: bool,
    ) {
        self.entries.insert(
            0,
            SimEntry {
                sig,
                set,
                overhead_ns,
                window_cap_ns,
                feasible,
            },
        );
        self.entries.truncate(SIM_CACHE_CAP);
    }

    /// Drop every cached verdict (hit/miss counters live in the per-CPU
    /// ledgers, not here, and are untouched). Owners that need a run to
    /// be a pure function of its configuration — the cluster engine's
    /// shard boot — clear the memo instead of relying on reset, which
    /// deliberately preserves it for cross-trial reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Which feasibility test admits real-time threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// EDF utilization bound.
    EdfBound,
    /// Rate-monotonic bound n(2^{1/n} − 1).
    RmBound,
    /// The utilization bound gates the reservations, then a set passes
    /// only if the synchronous EDF schedule, charging `overhead_ns` per
    /// job, meets every deadline in (a bounded prefix of) the hyperperiod.
    /// That is the verdict of simulating the schedule
    /// ([`simulate_edf_feasible`], the oracles' reference); the ledger
    /// computes it by the processor-demand criterion
    /// ([`edf_demand_feasible`]).
    HyperperiodSim {
        /// Modeled scheduler overhead charged per job (two interrupts).
        overhead_ns: Nanos,
        /// Window cap; hyperperiods beyond this are truncated to it.
        window_cap_ns: Nanos,
    },
}

/// Eager vs. lazy dispatch (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Work-conserving: "we never delay switching to a thread", so SMI
    /// missing time lands in slack instead of past the deadline.
    Eager,
    /// Classic non-work-conserving EDF that delays a newly arrived job
    /// until its latest feasible start. Ideal on SMI-free hardware;
    /// catastrophic with missing time. Kept for the ablation.
    Lazy,
}

/// Graceful-degradation policy: what the local scheduler does when
/// environmental interference (SMIs, fault lanes) pushes an admitted
/// reservation past its envelope. Disabled by default — the paper's
/// scheduler never alters an admitted constraint on its own, and the
/// deterministic reproduction depends on that.
///
/// When enabled:
///
/// * a **sporadic** job still holding unfinished work past its deadline is
///   demoted to the aperiodic class at once, so a blown burst stops
///   outranking every periodic thread in EDF order;
/// * a **periodic** thread that misses `miss_threshold` consecutive
///   deadlines has its admission revoked and is resubmitted with its
///   period widened by `widen_pct` percent (same slice, lower
///   utilization, more slack per job). After `max_widen` rounds — or if
///   the widened set is somehow rejected — the thread falls back to the
///   aperiodic class instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Consecutive misses before a periodic reservation is widened.
    pub miss_threshold: u32,
    /// Percent added to the period on each resubmission.
    pub widen_pct: u32,
    /// Widening rounds per thread before demotion to aperiodic.
    pub max_widen: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            enabled: false,
            miss_threshold: 3,
            widen_pct: 25,
            max_widen: 3,
        }
    }
}

impl DegradePolicy {
    /// The default thresholds with the master switch on.
    pub fn enabled() -> Self {
        DegradePolicy {
            enabled: true,
            ..DegradePolicy::default()
        }
    }
}

/// Victim-selection policy for the idle-thread work stealer (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPolicy {
    /// Power-of-two-choices biased by topology: probe two victims inside
    /// the thief's LLC first, widening to the package and then the whole
    /// machine only when the narrower domain has no stealable backlog.
    /// Under a flat topology there is exactly one domain (the machine),
    /// making this identical — draw for draw — to the original uniform
    /// picker. The default.
    LlcFirst,
    /// Machine-wide uniform power-of-two-choices regardless of topology
    /// (the A/B baseline for the locality study; probes and migrations
    /// still pay their distance-dependent costs).
    Uniform,
}

/// Boot-time local-scheduler configuration (§3.2, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Total admissible utilization, ppm. Default 99%: the remainder
    /// absorbs scheduler invocations and SMIs (the "knob" of §3.6).
    pub util_limit_ppm: u64,
    /// Reservation for spontaneously arriving sporadic threads, ppm.
    pub sporadic_reserve_ppm: u64,
    /// Reservation for aperiodic threads and admission processing, ppm.
    pub aperiodic_reserve_ppm: u64,
    /// Round-robin quantum for aperiodic threads. The evaluation uses a
    /// 10 Hz timer: 100 ms.
    pub aperiodic_quantum_ns: Nanos,
    /// Granularity bound on periods and slices (§3.3 limits the possible
    /// scheduler invocation rate).
    pub granularity_ns: Nanos,
    /// Minimum admissible period.
    pub min_period_ns: Nanos,
    /// Minimum admissible slice.
    pub min_slice_ns: Nanos,
    /// Feasibility test.
    pub policy: AdmissionPolicy,
    /// Eager or lazy dispatch.
    pub mode: SchedMode,
    /// Lazy mode only: safety margin subtracted from a job's latest
    /// feasible start so the *known* kernel-path overheads don't push it
    /// past its deadline. (What lazy mode cannot budget for is precisely
    /// the unknown missing time of SMIs — the paper's point.)
    pub lazy_margin_ns: Nanos,
    /// When false, real-time requests bypass the feasibility test (used by
    /// Figures 6–9 to map the infeasible region). Structural validation
    /// still applies.
    pub admission_enabled: bool,
    /// Enable the idle-thread work stealer (§3.4).
    pub work_stealing: bool,
    /// Victim-selection policy for the stealer (inert when
    /// `work_stealing` is false).
    pub steal: StealPolicy,
    /// Graceful degradation under sustained interference (off by default).
    pub degrade: DegradePolicy,
    /// Per-layer bandwidth contracts and class mapping. The default is a
    /// single exempt layer — byte-identical to the unlayered scheduler.
    pub layers: LayerTable,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            util_limit_ppm: 990_000,
            sporadic_reserve_ppm: 100_000,
            aperiodic_reserve_ppm: 100_000,
            aperiodic_quantum_ns: 100_000_000,
            granularity_ns: 100,
            min_period_ns: 1_000,
            min_slice_ns: 500,
            policy: AdmissionPolicy::EdfBound,
            mode: SchedMode::Eager,
            lazy_margin_ns: 15_000,
            admission_enabled: true,
            work_stealing: true,
            steal: StealPolicy::LlcFirst,
            degrade: DegradePolicy::default(),
            layers: LayerTable::default(),
        }
    }
}

impl SchedConfig {
    /// A throughput-study configuration: the full 99% limit is available
    /// to periodic threads (no sporadic/aperiodic reservations). The BSP
    /// evaluation of §6 sweeps slice/period up to ~90%, which requires
    /// this shape; the default reservations would cap periodic admission
    /// at 79%.
    pub fn throughput() -> Self {
        SchedConfig {
            sporadic_reserve_ppm: 0,
            aperiodic_reserve_ppm: 0,
            ..SchedConfig::default()
        }
    }

    /// Utilization available to periodic threads, ppm.
    pub fn periodic_budget_ppm(&self) -> u64 {
        self.util_limit_ppm
            .saturating_sub(self.sporadic_reserve_ppm)
            .saturating_sub(self.aperiodic_reserve_ppm)
    }

    /// The budget gate: whether `u_new` ppm more periodic utilization on a
    /// CPU whose ledger holds `ledger_ppm` exceeds
    /// [`SchedConfig::periodic_budget_ppm`]. Every [`AdmissionPolicy`]
    /// applies it before anything else, so a request it fails is refused
    /// with [`AdmissionError::UtilizationExceeded`] whatever the policy.
    pub fn over_budget(&self, ledger_ppm: u64, u_new: u64) -> bool {
        ledger_ppm.saturating_add(u_new) > self.periodic_budget_ppm()
    }

    /// Whether a team transaction of `c` is refused with
    /// [`AdmissionError::UtilizationExceeded`] when the most loaded of its
    /// seats holds `fullest_ppm`, whatever the other seats hold. The seats
    /// must be distinct CPUs whose members hold no periodic reservation
    /// yet. True when the ledgers enforce, `c` is a periodic descriptor
    /// every seat accepts in shape, the layer gate cannot refuse a seat the
    /// budget gate passed, and the fullest seat fails the budget gate.
    ///
    /// Sound because each member touches only its own seat's ledger, so
    /// the fullest seat holds `fullest_ppm` when its turn comes; it fails
    /// there unless an earlier member fails first, and an earlier member
    /// can fail only a policy test, with the same error. The transaction is
    /// all-or-nothing, so refusing it without running it leaves every
    /// ledger as running it would have.
    pub fn refuses_team_over_budget(&self, c: &Constraints, fullest_ppm: u64) -> bool {
        let Constraints::Periodic { period, slice, .. } = *c else {
            return false;
        };
        self.admission_enabled
            && c.validate().is_ok()
            && !self.too_fine(period, slice)
            && self.layers_follow_budget()
            && self.over_budget(fullest_ppm, c.utilization_ppm())
    }

    /// The granularity bounds a periodic descriptor must meet (§3.3).
    fn too_fine(&self, period: Nanos, slice: Nanos) -> bool {
        period < self.min_period_ns
            || slice < self.min_slice_ns
            || self.granularity_ns > 1 && !period.is_multiple_of(self.granularity_ns)
    }

    /// Whether the layer gate passes everything the budget gate passes:
    /// one layer (the default table) whose guarantee covers the periodic
    /// budget plus the whole sporadic reservation.
    fn layers_follow_budget(&self) -> bool {
        self.layers.count() == 1
            && self.layers.spec(0).guarantee_ppm as u64
                >= self.periodic_budget_ppm() + self.sporadic_reserve_ppm
    }
}

/// The per-CPU admitted-load ledger.
#[derive(Debug, Clone, Default)]
pub struct CpuLoad {
    /// Admitted periodic threads' `(period, slice)` in ns.
    periodic: Vec<(Nanos, Nanos)>,
    /// Maintained sum of the admitted periodic utilizations, ppm: the sum
    /// of each task's individually floored `slice·PPM/period` term, updated
    /// on every push/remove. Exact (not approximate): `release` removes a
    /// tuple equal to one that was pushed, whose term recomputes
    /// identically, so this always equals the from-scratch rescan.
    periodic_ppm: u64,
    /// Active sporadic utilization, ppm.
    sporadic_ppm: u64,
    /// Memo cache for `HyperperiodSim` verdicts, installed by the owning
    /// node (absent on standalone ledgers, which then compute every
    /// verdict fresh and count each one as a miss).
    sim_cache: Option<Rc<RefCell<SimCache>>>,
    /// Engine counters for this ledger's lifetime (reset with the ledger).
    stats: AdmissionStats,
    /// The most recent `HyperperiodSim` probe, left for the verdict
    /// emission site to [`CpuLoad::take_probe`] — and for rollback
    /// re-admissions to discard, so probes pair with emitted verdicts.
    last_probe: Option<SimProbe>,
}

impl CpuLoad {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the node's shared verdict memo cache. Re-installed after
    /// every `Node::reset`: the cache is a pure memo keyed on the full
    /// feasibility input, so entries learned in earlier trials stay valid.
    pub fn install_sim_cache(&mut self, cache: Rc<RefCell<SimCache>>) {
        self.sim_cache = Some(cache);
    }

    /// Engine counters accumulated by this ledger.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Take the probe left by the most recent `HyperperiodSim` verdict
    /// (None under closed-form policies).
    pub fn take_probe(&mut self) -> Option<SimProbe> {
        self.last_probe.take()
    }

    /// Count a ledger rollback: a failed re-admission or failed team
    /// transaction restored previously held reservations.
    pub fn note_rollback(&mut self) {
        self.stats.rollbacks += 1;
        G_ROLLBACKS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total admitted periodic utilization, ppm — O(1) from the maintained
    /// sum (identical to [`CpuLoad::periodic_util_ppm_rescan`] by
    /// construction; the differential suite asserts it at every step).
    pub fn periodic_util_ppm(&self) -> u64 {
        self.periodic_ppm
    }

    /// Total admitted periodic utilization recomputed from scratch: the
    /// reference the differential tests compare with the maintained sum.
    pub fn periodic_util_ppm_rescan(&self) -> u64 {
        self.periodic.iter().map(|&(p, s)| ppm_of(s, p)).sum()
    }

    /// Active sporadic utilization, ppm.
    pub fn sporadic_util_ppm(&self) -> u64 {
        self.sporadic_ppm
    }

    /// Admitted RT utilization charged to `layer`, ppm: the per-layer view
    /// of the ledger. Derived from the maintained class sums through the
    /// boot-time class→layer map rather than stored per layer, so it can
    /// never drift from the class ledger and `release` (which has no
    /// config in scope) stays exact. Aperiodic threads carry no admitted
    /// utilization; their layer is charged only at dispatch time.
    pub fn layer_util_ppm(&self, layers: &LayerTable, layer: usize) -> u64 {
        let mut sum = 0;
        if layers.map_periodic() == layer {
            sum += self.periodic_ppm;
        }
        if layers.map_sporadic() == layer {
            sum += self.sporadic_ppm;
        }
        sum
    }

    /// The layer-guarantee admission gate: would adding `u_new` ppm of
    /// class `c` overcommit the guarantee of the layer `c` maps to?
    /// Checked against the *guarantee* alone — burst is transient window
    /// headroom, never admitted against.
    fn test_layer(
        &self,
        cfg: &SchedConfig,
        c: &Constraints,
        u_new: u64,
    ) -> Result<(), AdmissionError> {
        let layer = cfg.layers.layer_of(c);
        let guarantee = cfg.layers.spec(layer).guarantee_ppm as u64;
        if self.layer_util_ppm(&cfg.layers, layer) + u_new > guarantee {
            return Err(AdmissionError::LayerOvercommit);
        }
        Ok(())
    }

    /// Number of admitted periodic threads.
    pub fn periodic_count(&self) -> usize {
        self.periodic.len()
    }

    /// Run the admission test; on success the ledger is updated.
    pub fn admit(&mut self, cfg: &SchedConfig, c: &Constraints) -> Result<(), AdmissionError> {
        c.validate().map_err(AdmissionError::Invalid)?;
        match *c {
            Constraints::Aperiodic { .. } => Ok(()),
            Constraints::Periodic { period, slice, .. } => {
                if cfg.too_fine(period, slice) {
                    return Err(AdmissionError::TooFine);
                }
                let u = ppm_of(slice, period);
                if cfg.admission_enabled {
                    self.test_periodic(cfg, (period, slice), u)?;
                    self.test_layer(cfg, c, u)?;
                }
                self.periodic.push((period, slice));
                self.periodic_ppm += u;
                Ok(())
            }
            Constraints::Sporadic {
                phase,
                size,
                deadline,
                ..
            } => {
                let window = deadline - phase;
                if size < cfg.min_slice_ns || window < cfg.min_period_ns {
                    return Err(AdmissionError::TooFine);
                }
                let u = ppm_of(size, window);
                if cfg.admission_enabled {
                    if self.sporadic_ppm + u > cfg.sporadic_reserve_ppm {
                        return Err(AdmissionError::SporadicReservationExceeded);
                    }
                    self.test_layer(cfg, c, u)?;
                }
                self.sporadic_ppm += u;
                Ok(())
            }
        }
    }

    /// The policy's test of `candidate`, whose utilization term is `u_new`.
    fn test_periodic(
        &mut self,
        cfg: &SchedConfig,
        candidate: (Nanos, Nanos),
        u_new: u64,
    ) -> Result<(), AdmissionError> {
        // The budget gate comes first under every policy, which is what
        // lets `SchedConfig::refuses_team_over_budget` read a team's
        // verdict off its fullest seat.
        if cfg.over_budget(self.periodic_ppm, u_new) {
            return Err(AdmissionError::UtilizationExceeded);
        }
        let feasible = match cfg.policy {
            AdmissionPolicy::EdfBound => true,
            AdmissionPolicy::RmBound => {
                let n = (self.periodic.len() + 1) as f64;
                let rm = n * (2f64.powf(1.0 / n) - 1.0);
                let rm_ppm = (rm * PPM as f64) as u64;
                self.periodic_ppm + u_new <= rm_ppm
            }
            AdmissionPolicy::HyperperiodSim {
                overhead_ns,
                window_cap_ns,
            } => self.sim_feasible(candidate, overhead_ns, window_cap_ns),
        };
        if feasible {
            Ok(())
        } else {
            Err(AdmissionError::UtilizationExceeded)
        }
    }

    /// `HyperperiodSim` feasibility of the ledger plus `candidate`,
    /// memoized when a [`SimCache`] is installed. The set is built once,
    /// sorted: that canonical copy is both the cache key and the input of
    /// [`edf_demand_feasible`], whose verdict does not depend on order.
    fn sim_feasible(
        &mut self,
        candidate: (Nanos, Nanos),
        overhead_ns: Nanos,
        window_cap_ns: Nanos,
    ) -> bool {
        let mut key: Vec<(Nanos, Nanos)> = Vec::with_capacity(self.periodic.len() + 1);
        key.extend_from_slice(&self.periodic);
        key.push(candidate);
        key.sort_unstable();
        let sig = task_set_signature(&key, overhead_ns, window_cap_ns);
        let cache = self.sim_cache.clone();
        if let Some(cache) = &cache {
            if let Some(feasible) = cache
                .borrow_mut()
                .lookup(sig, &key, overhead_ns, window_cap_ns)
            {
                self.stats.sim_hits += 1;
                G_SIM_HITS.fetch_add(1, Ordering::Relaxed);
                self.last_probe = Some(SimProbe {
                    hit: true,
                    feasible,
                    sig,
                    overhead_ns,
                    window_cap_ns,
                });
                return feasible;
            }
        }
        let feasible = edf_demand_feasible(&key, overhead_ns, window_cap_ns);
        if let Some(cache) = &cache {
            cache
                .borrow_mut()
                .insert(sig, key, overhead_ns, window_cap_ns, feasible);
        }
        self.stats.sim_misses += 1;
        G_SIM_MISSES.fetch_add(1, Ordering::Relaxed);
        self.last_probe = Some(SimProbe {
            hit: false,
            feasible,
            sig,
            overhead_ns,
            window_cap_ns,
        });
        feasible
    }

    /// Release a previously admitted constraint (thread exited or is
    /// changing constraints).
    pub fn release(&mut self, c: &Constraints) {
        match *c {
            Constraints::Aperiodic { .. } => {}
            Constraints::Periodic { period, slice, .. } => {
                if let Some(i) = self
                    .periodic
                    .iter()
                    .position(|&(p, s)| p == period && s == slice)
                {
                    self.periodic.remove(i);
                    // Exact: the removed tuple's term recomputes to the
                    // value added when it was pushed.
                    self.periodic_ppm -= ppm_of(slice, period);
                }
            }
            Constraints::Sporadic {
                phase,
                size,
                deadline,
                ..
            } => {
                let window = deadline - phase;
                let u = ppm_of(size, window);
                self.sporadic_ppm = self.sporadic_ppm.saturating_sub(u);
            }
        }
    }
}

/// Whether the synchronous EDF schedule of `set` (`(period, slice)`
/// pairs, implicit deadlines, every job costing `slice + overhead_ns`)
/// meets every deadline up to `min(hyperperiod, window_cap_ns)`: the
/// verdict of [`simulate_edf_feasible`], decided by the processor-demand
/// criterion (Baruah, Rosier & Howell 1990) instead of by playing the
/// schedule out. A deadline is missed in the window iff some deadline `d`
/// in it has `dbf(d) = Σ ⌊d/pᵢ⌋·cᵢ > d`.
///
/// Because `dbf(d) ≤ d·U` and `dbf(H) = H·U` at the hyperperiod `H`, the
/// criterion reduces to Liu & Layland's `U ≤ 1` — `Σ cᵢ·(H/pᵢ) ≤ H`, in
/// integers — whenever the window holds the whole hyperperiod, and a set
/// with `U ≤ 1` passes any window. Only an overloaded set whose window
/// stops short of `H` walks its deadlines `d ≤ window_cap_ns` in order,
/// O(n) each — never more points than the simulator has jobs — up to the
/// first `dbf(d) > d`. Periods must be nonzero; the order of `set` does
/// not matter.
pub fn edf_demand_feasible(
    set: &[(Nanos, Nanos)],
    overhead_ns: Nanos,
    window_cap_ns: Nanos,
) -> bool {
    let cost = |slice: Nanos| slice as u128 + overhead_ns as u128;
    let h = hyperperiod(set.iter().map(|&(p, _)| p));
    // `hyperperiod` saturates at `Nanos::MAX`; below that `h` is exact.
    if h < Nanos::MAX {
        let demand = set.iter().fold(0u128, |sum, &(p, s)| {
            sum.saturating_add(cost(s).saturating_mul((h / p) as u128))
        });
        if demand <= h as u128 {
            return true;
        }
        if h <= window_cap_ns {
            return false;
        }
    }
    // Overloaded (or too long a hyperperiod to tell), and the window stops
    // short of `h`: the first deadline with dbf(d) > d may lie past it.
    // `set` is not empty here: an empty set has h = 1 and demand 0.
    let mut next: Vec<u128> = set.iter().map(|&(p, _)| p as u128).collect();
    let mut demand = 0u128;
    loop {
        let d = *next.iter().min().expect("a set past the U test has tasks");
        if d > window_cap_ns as u128 {
            return true;
        }
        for (n, &(p, s)) in next.iter_mut().zip(set) {
            if *n == d {
                demand += cost(s);
                *n += p as u128;
            }
        }
        if demand > d {
            return false;
        }
    }
}

/// Event-driven EDF feasibility simulation over a window: all jobs are
/// released synchronously (the critical instant for synchronous periodic
/// sets under EDF); each job costs `slice + overhead`. Returns whether no
/// deadline is missed within the window. The reference implementation of
/// [`edf_demand_feasible`]: the armed oracles and the property suite check
/// the ledger's verdicts against it.
pub fn simulate_edf_feasible(
    set: &[(Nanos, Nanos)],
    overhead_ns: Nanos,
    window_cap_ns: Nanos,
) -> bool {
    if set.is_empty() {
        return true;
    }
    let window = hyperperiod(set.iter().map(|&(p, _)| p)).min(window_cap_ns);
    // (next_deadline, remaining, index) jobs; process in EDF order.
    #[derive(Clone, Copy)]
    struct Job {
        deadline: Nanos,
        remaining: Nanos,
        next_arrival: Nanos,
    }
    let mut jobs: Vec<Job> = set
        .iter()
        .map(|&(p, s)| Job {
            deadline: p,
            remaining: s + overhead_ns,
            next_arrival: p,
        })
        .collect();
    let mut now: Nanos = 0;
    loop {
        // Earliest-deadline active job.
        let Some(idx) = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.remaining > 0)
            .min_by_key(|(_, j)| j.deadline)
            .map(|(i, _)| i)
        else {
            // Idle until the next arrival.
            let Some(next) = jobs.iter().map(|j| j.next_arrival).min() else {
                return true;
            };
            if next >= window {
                return true;
            }
            now = now.max(next);
            for (i, j) in jobs.iter_mut().enumerate() {
                if j.next_arrival <= now {
                    j.remaining = set[i].1 + overhead_ns;
                    j.deadline = j.next_arrival + set[i].0;
                    j.next_arrival += set[i].0;
                }
            }
            continue;
        };
        // Run it until completion or the next arrival.
        let next_arrival = jobs.iter().map(|j| j.next_arrival).min().unwrap();
        let j = jobs[idx];
        let run = j.remaining.min(next_arrival.saturating_sub(now).max(1));
        now += run;
        jobs[idx].remaining -= run;
        if jobs[idx].remaining == 0 && now > jobs[idx].deadline {
            return false;
        }
        if now > window {
            return true;
        }
        // Release arrivals at `now`.
        for (i, j) in jobs.iter_mut().enumerate() {
            if j.next_arrival <= now {
                if j.remaining > 0 {
                    // Previous job still unfinished at its deadline.
                    return false;
                }
                j.remaining = set[i].1 + overhead_ns;
                j.deadline = j.next_arrival + set[i].0;
                j.next_arrival += set[i].0;
            }
        }
    }
}

fn hyperperiod(periods: impl Iterator<Item = Nanos>) -> Nanos {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    periods.fold(1u64, |acc, p| {
        let g = gcd(acc, p);
        (acc / g).saturating_mul(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_des::text::Value;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn default_config_matches_paper() {
        let c = cfg();
        assert_eq!(c.util_limit_ppm, 990_000); // 99%
        assert_eq!(c.sporadic_reserve_ppm, 100_000); // 10%
        assert_eq!(c.aperiodic_reserve_ppm, 100_000); // 10%
        assert_eq!(c.aperiodic_quantum_ns, 100_000_000); // 10 Hz
        assert_eq!(c.periodic_budget_ppm(), 790_000); // 79% for periodic
    }

    #[test]
    fn aperiodic_always_admits() {
        let mut load = CpuLoad::new();
        for _ in 0..100 {
            load.admit(&cfg(), &Constraints::default_aperiodic())
                .unwrap();
        }
    }

    #[test]
    fn edf_bound_admits_up_to_budget() {
        let mut load = CpuLoad::new();
        let c = cfg();
        // 4 x 19% = 76% <= 79%
        for _ in 0..4 {
            load.admit(&c, &Constraints::periodic(100_000, 19_000).build())
                .unwrap();
        }
        // A 5th would reach 95%.
        assert_eq!(
            load.admit(&c, &Constraints::periodic(100_000, 19_000).build()),
            Err(AdmissionError::UtilizationExceeded)
        );
        assert_eq!(load.periodic_count(), 4);
    }

    #[test]
    fn release_returns_utilization() {
        let mut load = CpuLoad::new();
        let c = cfg();
        let big = Constraints::periodic(100_000, 70_000).build();
        load.admit(&c, &big).unwrap();
        assert_eq!(
            load.admit(&c, &Constraints::periodic(100_000, 20_000).build()),
            Err(AdmissionError::UtilizationExceeded)
        );
        load.release(&big);
        load.admit(&c, &Constraints::periodic(100_000, 20_000).build())
            .unwrap();
    }

    #[test]
    fn rm_bound_is_stricter_than_edf() {
        let mut c = cfg();
        c.policy = AdmissionPolicy::RmBound;
        let mut load = CpuLoad::new();
        // Two tasks at 39% each: 78% total passes EDF (79% budget) but
        // exceeds the 2-task RM bound of ~82.8%... 78 < 82.8, so passes.
        load.admit(&c, &Constraints::periodic(100_000, 39_000).build())
            .unwrap();
        load.admit(&c, &Constraints::periodic(100_000, 39_000).build())
            .unwrap();
        // Third at 39%: total 117% fails everything; try 5%: total 83%
        // exceeds the 3-task RM bound (~78%) but is under the EDF budget?
        // 83% > 79% budget too. Use tighter numbers: load 2x30%, third 17%:
        let mut load = CpuLoad::new();
        load.admit(&c, &Constraints::periodic(100_000, 30_000).build())
            .unwrap();
        load.admit(&c, &Constraints::periodic(100_000, 30_000).build())
            .unwrap();
        // total would be 77% < 79% budget, but 3-task RM bound is 77.98%:
        // 77% <= 77.98% admits. 18% instead -> 78% > 77.98% rejects.
        load.admit(&c, &Constraints::periodic(100_000, 17_000).build())
            .unwrap();
        let mut load2 = CpuLoad::new();
        load2
            .admit(&c, &Constraints::periodic(100_000, 30_000).build())
            .unwrap();
        load2
            .admit(&c, &Constraints::periodic(100_000, 30_000).build())
            .unwrap();
        assert_eq!(
            load2.admit(&c, &Constraints::periodic(100_000, 18_000).build()),
            Err(AdmissionError::UtilizationExceeded)
        );
    }

    #[test]
    fn hyperperiod_sim_rejects_overhead_dominated_sets() {
        let mut c = cfg();
        c.policy = AdmissionPolicy::HyperperiodSim {
            overhead_ns: 9_000, // ~ the Phi's per-period overhead
            window_cap_ns: 1_000_000_000,
        };
        let mut load = CpuLoad::new();
        // 10 us period with a 5 us slice: 50% utilization passes the bound,
        // but 5 + 9 us of work per 10 us period cannot fit.
        assert_eq!(
            load.admit(&c, &Constraints::periodic(10_000, 5_000).build()),
            Err(AdmissionError::UtilizationExceeded)
        );
        // The same 50% at 1 ms period absorbs the overhead easily.
        load.admit(&c, &Constraints::periodic(1_000_000, 500_000).build())
            .unwrap();
    }

    #[test]
    fn sporadic_consumes_reservation() {
        let mut load = CpuLoad::new();
        let c = cfg();
        // 5% of the CPU: fits in the 10% sporadic reservation.
        load.admit(&c, &Constraints::sporadic(5_000, 100_000).build())
            .unwrap();
        load.admit(&c, &Constraints::sporadic(5_000, 100_000).build())
            .unwrap();
        assert_eq!(
            load.admit(&c, &Constraints::sporadic(5_000, 100_000).build()),
            Err(AdmissionError::SporadicReservationExceeded)
        );
        load.release(&Constraints::sporadic(5_000, 100_000).build());
        load.admit(&c, &Constraints::sporadic(5_000, 100_000).build())
            .unwrap();
    }

    #[test]
    fn granularity_bounds_are_enforced() {
        let mut load = CpuLoad::new();
        let c = cfg();
        assert_eq!(
            load.admit(&c, &Constraints::periodic(500, 400).build()),
            Err(AdmissionError::TooFine)
        );
        assert_eq!(
            load.admit(&c, &Constraints::periodic(10_000, 100).build()),
            Err(AdmissionError::TooFine)
        );
    }

    #[test]
    fn disabled_admission_accepts_infeasible_rt() {
        let mut c = cfg();
        c.admission_enabled = false;
        let mut load = CpuLoad::new();
        // 95% + 95%: hopeless, but Figures 6-9 need it admitted.
        load.admit(&c, &Constraints::periodic(10_000, 9_500).build())
            .unwrap();
        load.admit(&c, &Constraints::periodic(10_000, 9_500).build())
            .unwrap();
    }

    #[test]
    fn structural_validation_applies_even_when_disabled() {
        let mut c = cfg();
        c.admission_enabled = false;
        let mut load = CpuLoad::new();
        // Deliberately malformed (σ > τ): bypass the builder's own check to
        // prove admission still rejects it with validation disabled.
        assert!(matches!(
            load.admit(&c, &Constraints::periodic(10_000, 20_000).build_unchecked()),
            Err(AdmissionError::Invalid(_))
        ));
    }

    #[test]
    fn edf_simulation_agrees_with_bound_when_overhead_is_zero() {
        // U = 100%: feasible with zero overhead.
        assert!(simulate_edf_feasible(
            &[(10_000, 5_000), (20_000, 10_000)],
            0,
            1_000_000_000
        ));
        // U > 100%: infeasible.
        assert!(!simulate_edf_feasible(
            &[(10_000, 6_000), (20_000, 10_000)],
            0,
            1_000_000_000
        ));
    }

    #[test]
    fn hyperperiod_of_coprime_periods() {
        assert!(simulate_edf_feasible(&[(3, 1), (7, 2)], 0, 1_000));
    }

    /// The demand criterion's verdict, asserted equal to the reference
    /// simulation's.
    fn demand_verdict(set: &[(Nanos, Nanos)], overhead_ns: Nanos, cap: Nanos) -> bool {
        let verdict = edf_demand_feasible(set, overhead_ns, cap);
        assert_eq!(
            verdict,
            simulate_edf_feasible(set, overhead_ns, cap),
            "{set:?} at {overhead_ns} ns/job, window cap {cap}"
        );
        verdict
    }

    #[test]
    fn demand_criterion_is_exact_at_full_load() {
        // 1 µs per job: costs 5 µs / 10 µs and 10 µs / 20 µs, exactly 100%.
        let full = [(10_000, 4_000), (20_000, 9_000)];
        let over = [(10_000, 4_000), (20_000, 9_001)];
        for cap in [20_000, 1_000_000] {
            assert!(demand_verdict(&full, 1_000, cap));
            assert!(!demand_verdict(&over, 1_000, cap));
        }
        // Full load passes a window that truncates the hyperperiod too.
        assert!(demand_verdict(&full, 1_000, 19_999));
    }

    #[test]
    fn demand_criterion_rejects_a_job_longer_than_its_period() {
        // 5 µs of slice plus 9 µs of overhead in a 10 µs period.
        assert!(!demand_verdict(&[(10_000, 5_000)], 9_000, 1_000_000));
        assert!(!demand_verdict(&[(10_000, 5_000)], 9_000, 10_000));
        // Alongside a lightly loaded task of coprime period.
        assert!(!demand_verdict(
            &[(7_000, 100), (10_000, 5_000)],
            9_000,
            1_000_000
        ));
    }

    #[test]
    fn overload_past_a_truncated_window_reads_feasible() {
        // The 1 ns overload first shows at the 20 µs hyperperiod: a window
        // capped below it cannot see it, under either method.
        let over = [(10_000, 4_000), (20_000, 9_001)];
        assert!(demand_verdict(&over, 1_000, 19_999));
        assert!(!demand_verdict(&over, 1_000, 20_000));
        // Coprime periods, hyperperiod 91 ms: the 106% load first fails at
        // the 14 ms deadline (dbf = 2 × 4.2 ms + 6 ms = 14.4 ms).
        let coprime = [(7_000_000, 4_200_000), (13_000_000, 6_000_000)];
        assert!(demand_verdict(&coprime, 0, 13_999_999));
        assert!(!demand_verdict(&coprime, 0, 14_000_000));
    }

    #[test]
    fn empty_set_is_feasible() {
        for cap in [0, 1, 1_000_000_000] {
            assert!(demand_verdict(&[], 9_000, cap));
        }
    }

    #[test]
    fn maintained_sum_tracks_rescan_through_churn() {
        let c = cfg();
        let mut load = CpuLoad::new();
        let a = Constraints::periodic(100_000, 19_000).build();
        let b = Constraints::periodic(300_000, 70_000).build();
        let s = Constraints::sporadic(5_000, 100_000).build();
        for _ in 0..3 {
            load.admit(&c, &a).unwrap();
            load.admit(&c, &b).unwrap();
            load.admit(&c, &s).unwrap();
            assert_eq!(load.periodic_util_ppm(), load.periodic_util_ppm_rescan());
            load.release(&a);
            assert_eq!(load.periodic_util_ppm(), load.periodic_util_ppm_rescan());
            load.release(&b);
            load.release(&s);
            assert_eq!(load.periodic_util_ppm(), 0);
            assert_eq!(load.periodic_util_ppm_rescan(), 0);
        }
        // Releasing a constraint that was never admitted is a no-op for
        // both the vector and the maintained sum.
        load.release(&a);
        assert_eq!(load.periodic_util_ppm(), 0);
    }

    #[test]
    fn sim_cache_serves_repeat_probes_and_counts() {
        let mut c = cfg();
        c.policy = AdmissionPolicy::HyperperiodSim {
            overhead_ns: 1_000,
            window_cap_ns: 1_000_000_000,
        };
        let mut load = CpuLoad::new();
        load.install_sim_cache(Rc::new(RefCell::new(SimCache::new())));
        let probe = Constraints::periodic(1_000_000, 200_000).build();
        load.admit(&c, &probe).unwrap();
        assert_eq!(load.admission_stats().sim_misses, 1);
        assert_eq!(load.admission_stats().sim_hits, 0);
        assert!(!load.take_probe().unwrap().hit);
        // Release and re-admit the identical constraints: same canonical
        // set, so the verdict must come from the cache.
        load.release(&probe);
        load.admit(&c, &probe).unwrap();
        assert_eq!(load.admission_stats().sim_misses, 1);
        assert_eq!(load.admission_stats().sim_hits, 1);
        let p = load.take_probe().unwrap();
        assert!(p.hit);
        assert!(p.feasible);
        // A different set misses again.
        load.admit(&c, &Constraints::periodic(500_000, 100_000).build())
            .unwrap();
        assert_eq!(load.admission_stats().sim_misses, 2);
    }

    #[test]
    fn cacheless_ledger_matches_memoised_verdicts() {
        let mut c = cfg();
        c.policy = AdmissionPolicy::HyperperiodSim {
            overhead_ns: 9_000,
            window_cap_ns: 1_000_000_000,
        };
        let cache = Rc::new(RefCell::new(SimCache::new()));
        let mut li = CpuLoad::new();
        li.install_sim_cache(cache.clone());
        let mut lf = CpuLoad::new();
        for req in [
            Constraints::periodic(10_000, 5_000).build(), // overhead-dominated
            Constraints::periodic(1_000_000, 500_000).build(),
            Constraints::periodic(1_000_000, 200_000).build(),
        ] {
            assert_eq!(li.admit(&c, &req), lf.admit(&c, &req));
            assert_eq!(li.periodic_util_ppm(), lf.periodic_util_ppm_rescan());
        }
        // The cacheless ledger recorded every simulation as a miss.
        assert_eq!(lf.admission_stats().sim_hits, 0);
        assert_eq!(cache.borrow().len() as u64, li.admission_stats().sim_misses);
    }

    #[test]
    fn rollback_counter_accumulates() {
        let mut load = CpuLoad::new();
        assert_eq!(load.admission_stats().rollbacks, 0);
        load.note_rollback();
        load.note_rollback();
        assert_eq!(load.admission_stats().rollbacks, 2);
        assert_eq!(load.admission_stats().total(), 2);
    }

    fn spec(g: u32, b: u32) -> LayerSpec {
        LayerSpec {
            guarantee_ppm: g,
            burst_ppm: b,
        }
    }

    /// RT 60% + burst, batch 25%, background 10%: the canonical shape the
    /// layer tests and the bench sweep use.
    fn three_layer() -> LayerTable {
        LayerTable::three_way(
            spec(600_000, 50_000),
            spec(250_000, 0),
            spec(100_000, 0),
            10_000_000,
        )
        .unwrap()
    }

    #[test]
    fn layer_table_build_validation() {
        assert_eq!(
            LayerTable::build(&[], 1_000, [0, 0, 0]),
            Err(LayerConfigError::BadCount)
        );
        assert_eq!(
            LayerTable::build(&[spec(1, 0); MAX_LAYERS + 1], 1_000, [0, 0, 0]),
            Err(LayerConfigError::BadCount)
        );
        // Guarantees summing to exactly 1_000_000 build; one ppm more is
        // rejected at construction.
        assert!(LayerTable::build(&[spec(600_000, 0), spec(400_000, 0)], 1_000, [0, 1, 1]).is_ok());
        assert_eq!(
            LayerTable::build(&[spec(600_000, 0), spec(400_001, 0)], 1_000, [0, 1, 1]),
            Err(LayerConfigError::GuaranteeOvercommit)
        );
        // Burst does not count against the guarantee sum.
        assert!(LayerTable::build(
            &[spec(600_000, 999_999), spec(400_000, 0)],
            1_000,
            [0, 1, 1]
        )
        .is_ok());
        assert_eq!(
            LayerTable::build(&[spec(500_000, 0)], 1_000, [0, 1, 0]),
            Err(LayerConfigError::BadMapping)
        );
        assert_eq!(
            LayerTable::build(&[spec(500_000, 0)], 0, [0, 0, 0]),
            Err(LayerConfigError::BadReplenish)
        );
    }

    #[test]
    fn default_layer_table_is_one_exempt_layer() {
        let t = LayerTable::default();
        assert_eq!(t.count(), 1);
        assert!(t.spec(0).exempt());
        assert_eq!(t.cap_ns(0), t.replenish_ns);
        assert_eq!(t, LayerTable::single(PPM as u32, 0, 10_000_000).unwrap());
        assert_eq!(t.encode(), "1000000:0;10000000;0,0,0");
        // A semantically identical table at a different replenish window
        // compares unequal: the scheduler keys its skip-everything fast
        // path on exact default equality.
        assert_ne!(t, LayerTable::single(PPM as u32, 0, 5_000_000).unwrap());
    }

    #[test]
    fn layer_codec_round_trips_and_rejects() {
        for t in [
            LayerTable::default(),
            three_layer(),
            LayerTable::single(1_000_000, 0, 777).unwrap(),
            LayerTable::build(&[spec(0, 0), spec(900_000, 100_000)], 123_456, [1, 1, 0]).unwrap(),
        ] {
            assert_eq!(LayerTable::decode(&t.encode()).unwrap(), t);
        }
        for bad in [
            "",
            "1000000:0",
            "1000000:0;10000000",
            "1000000:0;10000000;0,0,0;extra",
            "1000000;10000000;0,0,0",
            "x:0;10000000;0,0,0",
            "1000000:y;10000000;0,0,0",
            "1000000:0;zzz;10000000;0,0,0",
            "1000000:0;0;0,0,0",
            "1000000:0;10000000;0,0",
            "1000000:0;10000000;0,0,1",
            "500000:0;10000000;0,0,3",
            "600000:0,400001:0;10000000;0,1,1",
        ] {
            assert!(LayerTable::decode(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn layer_of_follows_the_class_map() {
        let t = three_layer();
        assert_eq!(
            t.layer_of(&Constraints::periodic(100_000, 10_000).build()),
            0
        );
        assert_eq!(
            t.layer_of(&Constraints::sporadic(5_000, 100_000).build()),
            1
        );
        assert_eq!(t.layer_of(&Constraints::default_aperiodic()), 2);
        assert_eq!(t.cap_ns(0), 6_500_000);
        assert_eq!(t.cap_ns(2), 1_000_000);
    }

    #[test]
    fn layer_overcommit_rejects_past_the_guarantee() {
        let mut c = cfg();
        c.layers = three_layer();
        let mut load = CpuLoad::new();
        // Four periodic threads at 15% fill the 60% RT guarantee exactly,
        // and a fifth would still fit the 79% periodic budget (75%) — so
        // only the layer gate can be the refusal.
        for _ in 0..4 {
            load.admit(&c, &Constraints::periodic(100_000, 15_000).build())
                .unwrap();
        }
        assert_eq!(
            load.admit(&c, &Constraints::periodic(100_000, 15_000).build()),
            Err(AdmissionError::LayerOvercommit)
        );
        // Burst headroom is not admittable: even a 1% add is refused.
        assert_eq!(
            load.admit(&c, &Constraints::periodic(100_000, 1_000).build()),
            Err(AdmissionError::LayerOvercommit)
        );
        // Releasing returns layer headroom.
        load.release(&Constraints::periodic(100_000, 15_000).build());
        load.admit(&c, &Constraints::periodic(100_000, 15_000).build())
            .unwrap();
        assert_eq!(load.layer_util_ppm(&c.layers, 0), 600_000);
    }

    #[test]
    fn sporadic_charges_its_own_layer() {
        let mut c = cfg();
        // Batch guarantee below the 10% sporadic reserve: the layer gate
        // binds first.
        c.layers = LayerTable::three_way(
            spec(600_000, 0),
            spec(40_000, 0),
            spec(100_000, 0),
            10_000_000,
        )
        .unwrap();
        let mut load = CpuLoad::new();
        load.admit(&c, &Constraints::sporadic(4_000, 100_000).build())
            .unwrap();
        assert_eq!(
            load.admit(&c, &Constraints::sporadic(4_000, 100_000).build()),
            Err(AdmissionError::LayerOvercommit)
        );
        assert_eq!(load.layer_util_ppm(&c.layers, 1), 40_000);
        // Sporadic load never counts against the RT layer.
        assert_eq!(load.layer_util_ppm(&c.layers, 0), 0);
    }

    #[test]
    fn zero_ppm_layer_rejects_all_its_rt() {
        let mut c = cfg();
        c.layers =
            LayerTable::build(&[spec(0, 0), spec(900_000, 0)], 10_000_000, [0, 1, 1]).unwrap();
        let mut load = CpuLoad::new();
        assert_eq!(
            load.admit(&c, &Constraints::periodic(100_000, 1_000).build()),
            Err(AdmissionError::LayerOvercommit)
        );
        // Aperiodic threads carry no admitted utilization: always in.
        load.admit(&c, &Constraints::default_aperiodic()).unwrap();
    }

    #[test]
    fn full_ppm_layer_never_binds() {
        // A custom single full-bandwidth layer must produce verdicts
        // identical to the default table: the existing budget checks are
        // strictly tighter than a 100% guarantee.
        let mut layered = cfg();
        layered.layers = LayerTable::single(PPM as u32, 0, 2_000_000).unwrap();
        let plain = cfg();
        let mut ll = CpuLoad::new();
        let mut lp = CpuLoad::new();
        for req in [
            Constraints::periodic(100_000, 19_000).build(),
            Constraints::periodic(100_000, 70_000).build(),
            Constraints::periodic(100_000, 19_000).build(),
            Constraints::sporadic(5_000, 100_000).build(),
            Constraints::sporadic(9_000, 100_000).build(),
        ] {
            assert_eq!(ll.admit(&layered, &req), lp.admit(&plain, &req));
        }
    }

    #[test]
    fn layer_checks_are_skipped_when_admission_is_disabled() {
        let mut c = cfg();
        c.admission_enabled = false;
        c.layers = three_layer();
        let mut load = CpuLoad::new();
        // 95% into a 60% layer: the Figures 6-9 infeasible-region sweeps
        // must stay admissible with admission disabled.
        load.admit(&c, &Constraints::periodic(10_000, 9_500).build())
            .unwrap();
    }
}

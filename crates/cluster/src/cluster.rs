//! The cluster admission engine: a sharded fleet of nodes behind one
//! typed placement API.
//!
//! Each *shard* is a full [`Node`](nautix_rt::Node) — real per-CPU admission ledgers, the
//! memoized hyperperiod-simulation engine, phase-corrected team admission
//! — booted once per run from a [`NodePool`] and then mutated in place.
//! Tenants arrive from a [`TenantStream`]; for each one the engine asks
//! the configured [`PlacementPolicy`] for a shard order and submits one
//! all-or-nothing team admission per candidate through
//! [`Node::admit`](nautix_rt::Node::admit) with [`AdmissionRequest::team`], stopping at the first
//! shard whose ledgers accept. A tenant departs after its virtual
//! residency by re-admitting its gang with aperiodic constraints (which
//! cannot fail, §4.3), releasing the reservation.
//!
//! The whole run is a pure function of [`ClusterConfig`]: the stream, the
//! per-shard machine seeds, and the power-of-two sampler all derive from
//! `cfg.seed` via [`DetRng`] forks, shards are tried in the policy's
//! deterministic order, and nothing reads ambient state — so a run is
//! byte-identical at any harness thread count and under pooled-fleet
//! reuse (the determinism tests pin both).
//!
//! What this engine deliberately does *not* do is step the shards' event
//! loops: the cluster benchmark measures *admission* throughput —
//! decisions per second against live ledgers under churn — not dispatch
//! behavior, which the node-level scenarios already cover at depth.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::policy::{ClusterView, PlacementPolicy, PlacementStrategy, ShardView};
use crate::tenant::{TenantRequest, TenantStream};
use nautix_des::{DetRng, Nanos};
use nautix_hw::{MachineConfig, Platform, Topology};
use nautix_kernel::{AdmissionError, Constraints, IdleLoop, ThreadId};
use nautix_rt::{AdmissionPolicy, AdmissionRequest, Node, NodeConfig, NodePool, SchedConfig};
use nautix_stats::StatsSnapshot;

/// Everything a cluster run depends on. A run is a pure function of this
/// value: same config, same [`ClusterOutcome`], bit for bit.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards (independent nodes).
    pub shards: usize,
    /// Reservation slots per CPU: the bound on co-resident gang members
    /// sharing one CPU.
    pub slots_per_cpu: usize,
    /// Tenant arrivals to process.
    pub tenants: u64,
    /// The placement strategy under test.
    pub strategy: PlacementStrategy,
    /// Per-shard machine template (`seed` is re-derived per shard).
    pub machine: MachineConfig,
    /// Per-shard scheduler configuration (identical on every shard).
    pub sched: SchedConfig,
    /// Mean tenant inter-arrival gap, virtual ns.
    pub mean_gap_ns: Nanos,
    /// Mean tenant residency, virtual ns.
    pub mean_hold_ns: Nanos,
    /// Root seed for the stream, the shard machines, and the po2 sampler.
    pub seed: u64,
    /// Record one [`PlacementOutcome`] per tenant (the differential tests
    /// replay them; benches leave this off to stay allocation-light).
    pub record_placements: bool,
}

impl ClusterConfig {
    /// A cluster of Phi-derived shards with `cpus` CPUs each, the
    /// topology pinned (never read from the environment — a cluster run
    /// must be a pure function of this value), and the
    /// overhead-aware admission policy the paper's prototype used.
    pub fn new(shards: usize, cpus: usize, tenants: u64, strategy: PlacementStrategy) -> Self {
        assert!(shards >= 1 && cpus >= 1);
        let mut machine = MachineConfig::for_platform(Platform::Phi);
        machine.n_cpus = cpus;
        machine.topology = Topology::flat();
        let sched = SchedConfig {
            policy: AdmissionPolicy::HyperperiodSim {
                overhead_ns: 2_000,
                window_cap_ns: 200_000_000,
            },
            ..SchedConfig::default()
        };
        ClusterConfig {
            shards,
            slots_per_cpu: 8,
            tenants,
            strategy,
            machine,
            sched,
            // Offered load scales with shard count so rejection pressure
            // stays interesting at any fleet size: see `cluster_bench`.
            mean_gap_ns: 400_000,
            mean_hold_ns: 200_000_000,
            seed: 0xC1_05_7E_12,
            record_placements: false,
        }
    }

    /// Override the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Largest admissible gang: one member per CPU of one shard.
    pub fn max_gang(&self) -> usize {
        self.machine.n_cpus
    }
}

/// The per-tenant decision, recorded when
/// [`ClusterConfig::record_placements`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementOutcome {
    /// The gang was admitted on `shard` after `probes` shard attempts.
    Placed {
        /// Accepting shard.
        shard: usize,
        /// Shard admissions attempted for this tenant (including the
        /// accepting one).
        probes: u64,
    },
    /// Every candidate shard rejected the gang (or the policy offered
    /// none).
    Rejected {
        /// Shard admissions attempted for this tenant.
        probes: u64,
        /// The last ledger verdict, or [`AdmissionError::CapacityExceeded`]
        /// when no shard could even seat the gang.
        error: AdmissionError,
    },
}

impl PlacementOutcome {
    /// The accepting shard, if placed.
    pub fn shard(&self) -> Option<usize> {
        match *self {
            PlacementOutcome::Placed { shard, .. } => Some(shard),
            PlacementOutcome::Rejected { .. } => None,
        }
    }
}

/// Everything one cluster run reports.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Placement decisions taken (= tenants processed).
    pub decisions: u64,
    /// Tenants admitted.
    pub placed: u64,
    /// Tenants rejected.
    pub rejected: u64,
    /// Shard admissions attempted across all decisions.
    pub probes: u64,
    /// Tenants whose residency expired (reservation released).
    pub departures: u64,
    /// Summed demand (gang × per-member ppm) of placed tenants.
    pub placed_util_ppm: u64,
    /// Summed demand of all arrivals.
    pub offered_util_ppm: u64,
    /// Tenants the fluid oracle (one cluster-wide utilization bucket, no
    /// fragmentation, no overheads) admits from the identical stream.
    pub oracle_placed: u64,
    /// Summed demand of oracle-admitted tenants.
    pub oracle_util_ppm: u64,
    /// Machine events processed across shards (boot + calibration only:
    /// the engine measures admission, it does not step the shards).
    pub events: u64,
    /// The merged per-shard counter snapshot (`trials` = 1), with the
    /// `cluster_*` fields filled in.
    pub snapshot: StatsSnapshot,
    /// Canonical digest of the final cluster state: per shard, per CPU
    /// `[ledger ppm, periodic count]`, then per shard `[free slots,
    /// resident gangs]`, then `[placed, rejected, departures]`. Equal
    /// fingerprints ⇔ identical placements (the determinism and
    /// differential tests compare these). Probe counts are deliberately
    /// excluded: they measure the *policy's search*, not the state it
    /// reached, and a scripted replay reproduces the state in one probe
    /// per tenant.
    pub fingerprint: Vec<u64>,
    /// Per-tenant outcomes (empty unless
    /// [`ClusterConfig::record_placements`]).
    pub placements: Vec<PlacementOutcome>,
}

impl ClusterOutcome {
    /// Packing quality: placed demand relative to the fluid oracle's.
    /// 1.0 means the policy lost nothing to fragmentation or probe order.
    pub fn quality(&self) -> f64 {
        if self.oracle_util_ppm == 0 {
            1.0
        } else {
            self.placed_util_ppm as f64 / self.oracle_util_ppm as f64
        }
    }

    /// Hyperperiod-simulation memo hit rate over the run's churn.
    pub fn sim_hit_rate(&self) -> f64 {
        let total = self.snapshot.sim_hits + self.snapshot.sim_misses;
        if total == 0 {
            0.0
        } else {
            self.snapshot.sim_hits as f64 / total as f64
        }
    }
}

/// A reusable fleet of shard pools: the cluster analogue of [`NodePool`].
/// Reusing a fleet across runs re-boots every shard through
/// [`NodePool::node`] (reset-in-place), which is defined to be
/// byte-identical to fresh construction.
#[derive(Default)]
pub struct Fleet {
    pools: Vec<NodePool>,
}

impl Fleet {
    /// An empty fleet; shards are constructed on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn pools(&mut self, shards: usize) -> &mut [NodePool] {
        if self.pools.len() < shards {
            self.pools.resize_with(shards, NodePool::new);
        }
        &mut self.pools[..shards]
    }
}

/// Book-keeping the engine holds per shard alongside the node, including
/// a summary of its ledgers. The engine is the shard's only mutator (it
/// never steps the node), so the summary changes only where the engine
/// admits or releases a team, and it refreshes exactly those CPUs.
struct ShardState {
    /// Free reservation-slot threads per CPU (LIFO).
    free: Vec<Vec<ThreadId>>,
    /// The CPU each slot thread is bound to, indexed by thread id.
    slot_cpu: Vec<usize>,
    /// Resident gang count.
    resident: usize,
    /// Each CPU's admitted periodic utilization, ppm: a copy of its
    /// ledger's `periodic_util_ppm()`.
    util: Vec<u64>,
    /// Sum of `util`.
    util_ppm: u64,
    /// Free slots over every CPU: the summed lengths of `free`.
    free_slots: usize,
}

impl ShardState {
    /// Re-read the ledgers of `cpus` into the summary.
    fn refresh(&mut self, node: &Node, cpus: &[usize]) {
        for &cpu in cpus {
            let now = node.scheduler(cpu).load.periodic_util_ppm();
            self.util_ppm = self.util_ppm - self.util[cpu] + now;
            self.util[cpu] = now;
        }
    }

    /// Whether the summary agrees with `node`'s ledgers and the free lists.
    fn in_sync(&self, node: &Node) -> bool {
        let ledgers = (0..self.util.len()).map(|cpu| node.scheduler(cpu).load.periodic_util_ppm());
        ledgers.eq(self.util.iter().copied())
            && self.util_ppm == self.util.iter().sum::<u64>()
            && self.free_slots == self.free.iter().map(Vec::len).sum::<usize>()
    }
}

/// The fluid oracle: one cluster-wide utilization bucket with neither
/// fragmentation nor admission overheads. It sees the identical arrival /
/// departure sequence and upper-bounds what any placement policy could
/// pack, so `placed_util / oracle_util` isolates policy quality from
/// stream luck.
struct FluidOracle {
    capacity_ppm: u64,
    used_ppm: u64,
    placed: u64,
    placed_util_ppm: u64,
    departures: BinaryHeap<Reverse<(Nanos, u64)>>,
    holding: Vec<u64>,
}

impl FluidOracle {
    fn new(capacity_ppm: u64) -> Self {
        FluidOracle {
            capacity_ppm,
            used_ppm: 0,
            placed: 0,
            placed_util_ppm: 0,
            departures: BinaryHeap::new(),
            holding: Vec::new(),
        }
    }

    fn offer(&mut self, now_ns: Nanos, req: &TenantRequest) {
        while let Some(&Reverse((t, id))) = self.departures.peek() {
            if t > now_ns {
                break;
            }
            self.departures.pop();
            self.used_ppm -= self.holding[id as usize];
        }
        let demand = req.util_ppm();
        if self.used_ppm + demand <= self.capacity_ppm {
            self.used_ppm += demand;
            self.placed += 1;
            self.placed_util_ppm += demand;
            let id = self.holding.len() as u64;
            self.holding.push(demand);
            self.departures
                .push(Reverse((now_ns.saturating_add(req.hold_ns), id)));
        }
    }
}

/// Run the configured strategy on a reusable fleet. Every shard is
/// re-booted (reset-in-place) first, so back-to-back runs on one fleet
/// are independent and byte-identical to [`run_fresh`].
pub fn run(cfg: &ClusterConfig, fleet: &mut Fleet) -> ClusterOutcome {
    let mut seeds = DetRng::seed_from(cfg.seed);
    let mut policy = cfg.strategy.build(seeds.fork(4).uniform(0, u64::MAX));
    run_with_policy(cfg, fleet, policy.as_mut())
}

/// Run on a throwaway fleet (fresh node construction per shard).
pub fn run_fresh(cfg: &ClusterConfig) -> ClusterOutcome {
    run(cfg, &mut Fleet::new())
}

/// Run on the calling thread's own long-lived fleet: a harness worker
/// gets the cross-run arena reuse a [`NodePool`] gives single-node trials
/// without carrying a [`Fleet`] around. Byte-identical to [`run_fresh`].
pub fn run_pooled(cfg: &ClusterConfig) -> ClusterOutcome {
    thread_local! {
        static FLEET: RefCell<Fleet> = RefCell::new(Fleet::new());
    }
    FLEET.with(|f| run(cfg, &mut f.borrow_mut()))
}

/// Run an explicit policy instance (the differential tests drive
/// [`ScriptedPolicy`](crate::ScriptedPolicy) through this). The policy
/// seed derivation of [`run`] is bypassed; everything else is identical.
pub fn run_with_policy(
    cfg: &ClusterConfig,
    fleet: &mut Fleet,
    policy: &mut dyn PlacementPolicy,
) -> ClusterOutcome {
    assert!(cfg.shards >= 1 && cfg.slots_per_cpu >= 1);
    let n_cpus = cfg.machine.n_cpus;
    let mut seeds = DetRng::seed_from(cfg.seed);
    let mut stream = TenantStream::new(
        seeds.fork(1).uniform(0, u64::MAX),
        cfg.mean_gap_ns,
        cfg.mean_hold_ns,
        cfg.max_gang(),
    );
    let mut shard_seeds = seeds.fork(2);

    // Boot the shards: reset-in-place on a reused fleet, fresh otherwise.
    let pools = fleet.pools(cfg.shards);
    let mut states: Vec<ShardState> = Vec::with_capacity(cfg.shards);
    for (s, pool) in pools.iter_mut().enumerate() {
        let mut node_cfg = NodeConfig::for_machine(
            cfg.machine
                .clone()
                .with_seed(shard_seeds.fork(s as u64).uniform(0, u64::MAX)),
        );
        node_cfg.sched = cfg.sched;
        // Slot threads plus idle threads plus headroom; the default
        // MAX_THREADS table would dwarf a small shard.
        node_cfg.max_threads = n_cpus * (cfg.slots_per_cpu + 1) + 8;
        let mut slot_cpu = vec![usize::MAX; node_cfg.max_threads];
        let node = pool.node(node_cfg);
        // Reset preserves the verdict memo for cross-trial reuse; a
        // cluster run must not see a previous run's verdicts.
        node.clear_sim_cache();
        let mut free = vec![Vec::with_capacity(cfg.slots_per_cpu); n_cpus];
        for (cpu, slots) in free.iter_mut().enumerate() {
            for _ in 0..cfg.slots_per_cpu {
                let tid = node
                    .spawn_on(cpu, "slot", Box::new(IdleLoop::new(1)))
                    .expect("spawn reservation slot");
                slots.push(tid);
                slot_cpu[tid] = cpu;
            }
        }
        states.push(ShardState {
            free,
            slot_cpu,
            resident: 0,
            util: vec![0; n_cpus],
            util_ppm: 0,
            free_slots: n_cpus * cfg.slots_per_cpu,
        });
        debug_assert!(
            states[s].in_sync(node),
            "a booted shard holds no reservation"
        );
    }

    let shard_capacity_ppm = n_cpus as u64 * cfg.sched.periodic_budget_ppm();
    let mut oracle = FluidOracle::new(cfg.shards as u64 * shard_capacity_ppm);

    let mut out = ClusterOutcome {
        decisions: 0,
        placed: 0,
        rejected: 0,
        probes: 0,
        departures: 0,
        placed_util_ppm: 0,
        offered_util_ppm: 0,
        oracle_placed: 0,
        oracle_util_ppm: 0,
        events: 0,
        snapshot: StatsSnapshot::default(),
        fingerprint: Vec::new(),
        placements: Vec::new(),
    };

    // (depart_ns, tenant id) min-heap plus the seats to release.
    let mut departures: BinaryHeap<Reverse<(Nanos, u64)>> = BinaryHeap::new();
    // A resident tenant's home shard plus its members in team order.
    type Residency = (usize, Vec<ThreadId>);
    let mut resident: Vec<Option<Residency>> = Vec::new();
    let mut view = ClusterView {
        shards: Vec::with_capacity(cfg.shards),
    };
    let mut candidates: Vec<usize> = Vec::with_capacity(cfg.shards);
    let mut cpus: Vec<usize> = Vec::with_capacity(n_cpus);

    for _ in 0..cfg.tenants {
        let (now_ns, req) = stream.next_request();

        // Release every tenant whose residency expired by `now_ns`: its
        // seats go back on the free lists and its member list becomes the
        // releasing team request.
        while let Some(&Reverse((t, id))) = departures.peek() {
            if t > now_ns {
                break;
            }
            departures.pop();
            let (shard, members) = resident[id as usize].take().expect("resident tenant");
            let state = &mut states[shard];
            cpus.clear();
            for &m in &members {
                let cpu = state.slot_cpu[m];
                state.free[cpu].push(m);
                cpus.push(cpu);
            }
            state.free_slots += members.len();
            state.resident -= 1;
            let node = pools[shard].current().expect("booted shard");
            node.admit(
                AdmissionRequest::team(members).constraints(Constraints::default_aperiodic()),
            )
            .into_result()
            .expect("aperiodic release cannot fail");
            state.refresh(node, &cpus);
            out.departures += 1;
        }

        out.offered_util_ppm += req.util_ppm();
        oracle.offer(now_ns, &req);

        // Rebuild the policy's view from the ledger summaries.
        debug_assert!(
            (states.iter().zip(pools.iter_mut()))
                .all(|(state, pool)| state.in_sync(pool.current().expect("booted shard"))),
            "a shard's ledger summary drifted from its ledgers"
        );
        view.shards.clear();
        view.shards
            .extend(states.iter().enumerate().map(|(s, state)| ShardView {
                shard: s,
                util_ppm: state.util_ppm,
                capacity_ppm: shard_capacity_ppm,
                free_slots: state.free_slots,
                resident_gangs: state.resident,
            }));

        candidates.clear();
        policy.candidates(&req, &view, &mut candidates);
        out.decisions += 1;

        let mut placed_at = None;
        let mut probes = 0u64;
        let mut last_error = AdmissionError::CapacityExceeded;
        for &shard in &candidates {
            assert!(shard < cfg.shards, "policy offered unknown shard {shard}");
            probes += 1;
            // Seat the gang: one slot on each of `gang` distinct CPUs,
            // least-loaded CPUs first (ties to the lower index), each
            // CPU's most recently freed slot. Seats leave the free lists
            // only once the team is admitted.
            let state = &mut states[shard];
            cpus.clear();
            cpus.extend((0..n_cpus).filter(|&cpu| !state.free[cpu].is_empty()));
            if cpus.len() < req.gang {
                last_error = AdmissionError::CapacityExceeded;
                continue;
            }
            cpus.sort_by_key(|&cpu| (state.util[cpu], cpu));
            cpus.truncate(req.gang);
            // The last seat is the fullest. When its ledger alone already
            // refuses the team, no transaction needs to run.
            let fullest = cpus.last().map_or(0, |&cpu| state.util[cpu]);
            if cfg
                .sched
                .refuses_team_over_budget(&req.constraints, fullest)
            {
                last_error = AdmissionError::UtilizationExceeded;
                continue;
            }
            let node = pools[shard].current().expect("booted shard");
            let team: Vec<ThreadId> = cpus
                .iter()
                .map(|&cpu| *state.free[cpu].last().expect("free slot"))
                .collect();
            let outcome = node.admit(AdmissionRequest::team(team).constraints(req.constraints));
            if !outcome.is_admitted() {
                last_error = outcome.error().expect("rejected outcome has an error");
                continue;
            }
            let members = cpus
                .iter()
                .map(|&cpu| state.free[cpu].pop().expect("free slot"))
                .collect();
            state.free_slots -= req.gang;
            state.resident += 1;
            state.refresh(node, &cpus);
            departures.push(Reverse((now_ns.saturating_add(req.hold_ns), req.id)));
            debug_assert_eq!(resident.len() as u64, req.id);
            resident.push(Some((shard, members)));
            placed_at = Some(shard);
            break;
        }

        out.probes += probes;
        match placed_at {
            Some(shard) => {
                out.placed += 1;
                out.placed_util_ppm += req.util_ppm();
                if cfg.record_placements {
                    out.placements
                        .push(PlacementOutcome::Placed { shard, probes });
                }
            }
            None => {
                out.rejected += 1;
                resident.push(None);
                if cfg.record_placements {
                    out.placements.push(PlacementOutcome::Rejected {
                        probes,
                        error: last_error,
                    });
                }
            }
        }
    }

    out.oracle_placed = oracle.placed;
    out.oracle_util_ppm = oracle.placed_util_ppm;

    // Fold the shard snapshots and fingerprint the final cluster state.
    for (s, pool) in pools.iter_mut().enumerate() {
        let node = pool.current().expect("booted shard");
        out.snapshot.merge(&node.stats_snapshot());
        for cpu in 0..n_cpus {
            let load = &node.scheduler(cpu).load;
            out.fingerprint.push(load.periodic_util_ppm());
            out.fingerprint.push(load.periodic_count() as u64);
        }
        out.fingerprint.push(states[s].free_slots as u64);
        out.fingerprint.push(states[s].resident as u64);
    }
    out.fingerprint
        .extend([out.placed, out.rejected, out.departures]);
    out.events = out.snapshot.events;
    out.snapshot.trials = 1;
    out.snapshot.cluster_decisions = out.decisions;
    out.snapshot.cluster_placed = out.placed;
    out.snapshot.cluster_rejected = out.rejected;
    out.snapshot.cluster_probes = out.probes;
    out.snapshot.cluster_departures = out.departures;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScriptedPolicy;

    fn quick(strategy: PlacementStrategy) -> ClusterConfig {
        ClusterConfig::new(4, 8, 400, strategy)
    }

    #[test]
    fn fresh_runs_are_byte_identical() {
        for strategy in PlacementStrategy::ALL {
            let cfg = quick(strategy);
            let a = run_fresh(&cfg);
            let b = run_fresh(&cfg);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", strategy.name());
            assert_eq!(a.snapshot, b.snapshot, "{}", strategy.name());
        }
    }

    #[test]
    fn pooled_fleet_reuse_matches_fresh() {
        let mut fleet = Fleet::new();
        for strategy in PlacementStrategy::ALL {
            let cfg = quick(strategy);
            let pooled = run(&cfg, &mut fleet);
            let fresh = run_fresh(&cfg);
            assert_eq!(pooled.fingerprint, fresh.fingerprint, "{}", strategy.name());
            assert_eq!(pooled.snapshot, fresh.snapshot, "{}", strategy.name());
        }
    }

    #[test]
    fn accounting_identities_hold() {
        let mut cfg = quick(PlacementStrategy::BestFit);
        cfg.record_placements = true;
        let out = run_fresh(&cfg);
        assert_eq!(out.decisions, cfg.tenants);
        assert_eq!(out.placed + out.rejected, out.decisions);
        assert_eq!(out.placements.len() as u64, out.decisions);
        let placed = out
            .placements
            .iter()
            .filter(|p| p.shard().is_some())
            .count();
        assert_eq!(placed as u64, out.placed);
        assert!(out.placed > 0, "quick config must admit someone");
        assert!(out.rejected > 0, "quick config must overload the fleet");
        assert!(out.probes >= out.placed, "every placement costs a probe");
        assert!(out.placed_util_ppm <= out.oracle_util_ppm);
        assert!(out.quality() > 0.0 && out.quality() <= 1.0);
        assert!(out.sim_hit_rate() > 0.0, "churn must hit the sim memo");
    }

    #[test]
    fn rt_gang_is_one_gang_per_shard() {
        let cfg = quick(PlacementStrategy::RtGang);
        let out = run_fresh(&cfg);
        // Final state: at most one resident gang per shard.
        let per_shard = 2 * cfg.machine.n_cpus + 2;
        for s in 0..cfg.shards {
            let resident = out.fingerprint[s * per_shard + per_shard - 1];
            assert!(resident <= 1, "shard {s} holds {resident} gangs");
        }
    }

    #[test]
    fn scripted_replay_reproduces_cluster_state() {
        let mut cfg = quick(PlacementStrategy::PowerOfTwo);
        cfg.record_placements = true;
        let first = run_fresh(&cfg);
        let script: Vec<Option<usize>> = first
            .placements
            .iter()
            .map(PlacementOutcome::shard)
            .collect();
        let mut replay = ScriptedPolicy::new(script);
        let second = run_with_policy(&cfg, &mut Fleet::new(), &mut replay);
        assert_eq!(second.placed, first.placed);
        assert_eq!(second.rejected, first.rejected);
        assert_eq!(second.fingerprint, first.fingerprint);
    }
}

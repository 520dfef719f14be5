//! Topology scale sweep: flat vs tree machines at 256/512/1024 CPUs.
//!
//! The paper's evaluation models its machines as uniform-cost nodes; this
//! sweep asks what changes when the machine model grows a package → LLC →
//! core tree (DESIGN.md §6e). Three workloads per (CPU count, topology)
//! cell:
//!
//! * **missrate** — the Figure 6 probe replicated onto every CPU: one
//!   always-runnable periodic thread per core, measuring whether the
//!   feasibility story survives 1024 schedulers ticking at once;
//! * **groupsync** — the Figure 11/12 gang-dispatch experiment at a group
//!   size near the machine size: gang coordination is deliberately
//!   communication-free (schedulers sync through wall-clock time alone),
//!   so this checks the spread story survives scale and topology;
//! * **irq_fanout** — the kick-heavy workload: one interrupt-waiter per
//!   device line spread across the machine, A/B-ing
//!   [`Node::steer_irq_near`] placement against the default round-robin —
//!   this is where cross-package kick fraction is measured;
//! * **steal storm** — backlog piled on one CPU per LLC-sized block, run
//!   under [`StealPolicy::LlcFirst`] and [`StealPolicy::Uniform`]: the
//!   A/B that LLC-biased stealing wins on locality hit rate and simulated
//!   makespan.
//!
//! Every metric reported here except wall-clock throughput is
//! deterministic — a trial depends only on its parameters, so the
//! flat-vs-tree determinism suite can compare whole sweeps across thread
//! counts and pooled-vs-fresh nodes.

use crate::common::Scale;
use crate::harness::{run_trials, HarnessStats, NodePool};
use nautix_hw::{MachineConfig, Topology};
use nautix_kernel::{constrained_loop, Action, Constraints, FnProgram, Script, SysCall};
use nautix_rt::{HarnessConfig, Node, NodeConfig, StealPolicy};

/// CPU counts swept at each scale. Quick keeps only the largest machine
/// (the CI smoke run: 1024 CPUs under oracles); paper runs the full
/// 256/512/1024 scaling curve.
pub fn cpu_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1024],
        Scale::Paper => vec![256, 512, 1024],
    }
}

/// The two machine shapes compared: the paper's uniform-cost flat model
/// and a 2-package × 4-LLC tree.
pub fn topologies() -> Vec<Topology> {
    vec![Topology::flat(), Topology::tree(2, 4)]
}

/// One row of the sweep. Fields that a workload does not measure are
/// zero. `PartialEq` is derived so the determinism tests can compare
/// whole sweeps exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoPoint {
    /// Workload name: `missrate`, `groupsync`, `steal_llcfirst`,
    /// `steal_uniform`.
    pub workload: &'static str,
    /// Simulated CPUs.
    pub n_cpus: usize,
    /// Topology label (`flat`, `2x4`).
    pub topology: String,
    /// Simulated machine events this trial processed.
    pub events: u64,
    /// Simulated time to quiescence, ms (steal storm only).
    pub makespan_ms: f64,
    /// Aggregate deadline miss rate (missrate only).
    pub miss_rate: f64,
    /// Mean gang-dispatch spread, cycles (groupsync only).
    pub spread_mean_cycles: f64,
    /// Successful steals (steal storm only).
    pub steals: u64,
    /// Steals by distance class: same-LLC, same-package, cross-package.
    pub steals_by_distance: [u64; 3],
    /// IPIs by distance class.
    pub ipis_by_distance: [u64; 3],
}

impl TopoPoint {
    fn zero(workload: &'static str, n_cpus: usize, topology: Topology) -> Self {
        TopoPoint {
            workload,
            n_cpus,
            topology: topology.label(),
            events: 0,
            makespan_ms: 0.0,
            miss_rate: 0.0,
            spread_mean_cycles: 0.0,
            steals: 0,
            steals_by_distance: [0; 3],
            ipis_by_distance: [0; 3],
        }
    }

    /// Fraction of steals that stayed inside the thief's LLC.
    pub fn locality_hit_rate(&self) -> f64 {
        if self.steals > 0 {
            self.steals_by_distance[0] as f64 / self.steals as f64
        } else {
            0.0
        }
    }

    /// Fraction of IPIs that crossed a package boundary.
    pub fn cross_package_kick_fraction(&self) -> f64 {
        let total: u64 = self.ipis_by_distance.iter().sum();
        if total > 0 {
            self.ipis_by_distance[2] as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// The Phi machine config for one sweep cell.
fn machine(n_cpus: usize, topology: Topology, seed: u64) -> MachineConfig {
    MachineConfig::phi()
        .with_cpus(n_cpus)
        .with_seed(seed)
        .with_topology(topology)
}

/// Figure-6-style miss-rate probe on every CPU: each core past CPU 0 runs
/// one always-runnable periodic thread at a comfortably feasible point
/// (100 µs period, 30% slice), so the measured rate isolates scheduler
/// scale effects rather than infeasibility.
pub fn missrate_at_scale(n_cpus: usize, topology: Topology, jobs: u64, seed: u64) -> TopoPoint {
    let period_ns: u64 = 100_000;
    let slice_ns: u64 = 30_000;
    let mut cfg = NodeConfig::for_machine(machine(n_cpus, topology, seed));
    cfg.sched.admission_enabled = false;
    // One idle thread per CPU plus one probe per CPU: the default
    // 1024-entry table is too small for the 1024-CPU cells.
    cfg.max_threads = cfg.max_threads.max(n_cpus * 2 + 64);
    let mut node = Node::new(cfg);
    let mut tids = Vec::with_capacity(n_cpus - 1);
    for cpu in 1..n_cpus {
        let requested = Constraints::Periodic {
            phase: period_ns,
            period: period_ns,
            slice: slice_ns,
        };
        let prog = constrained_loop(requested, 100_000);
        tids.push(
            node.spawn_on(cpu, &format!("p{cpu}"), Box::new(prog))
                .unwrap(),
        );
    }
    node.run_for_ns(period_ns * (jobs + 20));
    let (mut met, mut missed) = (0u64, 0u64);
    for &t in &tids {
        let st = &node.thread_state(t).stats;
        met += st.met;
        missed += st.missed;
    }
    let mut p = TopoPoint::zero("missrate", n_cpus, topology);
    p.events = node.machine.events_processed();
    p.miss_rate = if met + missed > 0 {
        missed as f64 / (met + missed) as f64
    } else {
        0.0
    };
    p.ipis_by_distance = node.machine.ipis_by_distance();
    p
}

/// Figure-11/12-style gang dispatch at a group size near the machine
/// size (capped by `MAX_GROUP_MEMBERS`), on a machine with the given
/// topology. The kick-heavy workload: per-distance IPI counters show how
/// much gang traffic crosses packages.
pub fn groupsync_at_scale(
    n_cpus: usize,
    topology: Topology,
    invocations: usize,
    seed: u64,
) -> TopoPoint {
    let group = (n_cpus - 1).min(nautix_groups::MAX_GROUP_MEMBERS - 1);
    let (series, events, ipis) =
        crate::groupsync::measure_on(machine(n_cpus, topology, seed), group, invocations, false);
    let mut p = TopoPoint::zero("groupsync", n_cpus, topology);
    p.events = events;
    p.spread_mean_cycles = series.summary.mean;
    p.ipis_by_distance = ipis;
    p
}

/// Interrupt fan-out: one waiter thread per device line, consumers
/// spread evenly across the machine, the laden partition one CPU per
/// LLC-sized block. Every handled interrupt wakes its waiter through a
/// kick IPI whose latency is distance-dependent, so the per-distance
/// IPI counters measure where the wake traffic lands. With `near` the
/// lines are pinned via [`Node::steer_irq_near`] (the topology-aware
/// placement: handler in the consumer's LLC); without it the default
/// LLC-grouped round-robin spreads handlers, so on a tree machine a
/// large fraction of kicks crosses packages — that contrast is the
/// steering layer's win.
pub fn irq_fanout(
    n_cpus: usize,
    topology: Topology,
    near: bool,
    rounds: usize,
    seed: u64,
) -> TopoPoint {
    const LINES: usize = 64;
    let mut cfg = NodeConfig::for_machine(machine(n_cpus, topology, seed));
    let stride = (n_cpus / 8).max(1);
    cfg.laden = (0..n_cpus).step_by(stride).collect();
    cfg.max_threads = cfg.max_threads.max(n_cpus * 2 + 64);
    let mut node = Node::new(cfg);
    let lines = LINES.min(n_cpus - 1);
    let spacing = (n_cpus / LINES).max(1);
    for i in 0..lines {
        let cpu = (i * spacing + 1).min(n_cpus - 1);
        let irq = i as u8;
        let prog = FnProgram::new(move |_cx, n| {
            if n % 2 == 0 {
                Action::Call(SysCall::WaitIrq(irq))
            } else {
                Action::Compute(50_000)
            }
        });
        node.spawn_on(cpu, &format!("c{cpu}"), Box::new(prog))
            .unwrap();
        if near {
            node.steer_irq_near(irq, cpu);
        }
    }
    for _ in 0..rounds {
        for irq in 0..lines {
            node.raise_device_irq(irq as u8);
        }
        node.run_for_ns(50_000);
    }
    let name = if near {
        "irq_fanout_near"
    } else {
        "irq_fanout_rr"
    };
    let mut p = TopoPoint::zero(name, n_cpus, topology);
    p.events = node.machine.events_processed();
    p.ipis_by_distance = node.machine.ipis_by_distance();
    p
}

/// Work-stealing storm: `tasks_per_pile` unbound compute threads piled on
/// one CPU per LLC-sized block (stride `n/8`, matching the 2×4 tree's
/// eight LLC domains so flat and tree runs see the same backlog shape),
/// run to quiescence. Everything except the victim-selection policy is
/// held fixed, so LlcFirst-vs-Uniform differences are the policy's.
pub fn steal_storm(
    pool: &mut NodePool,
    n_cpus: usize,
    topology: Topology,
    policy: StealPolicy,
    tasks_per_pile: usize,
    seed: u64,
) -> TopoPoint {
    let mut cfg = NodeConfig::for_machine(machine(n_cpus, topology, seed));
    cfg.sched.steal = policy;
    cfg.max_threads = cfg.max_threads.max(n_cpus + 8 * tasks_per_pile + 64);
    let node = pool.node(cfg);
    let stride = (n_cpus / 8).max(1);
    let mut w = 0usize;
    for pile in (0..n_cpus).step_by(stride) {
        for _ in 0..tasks_per_pile {
            // Short tasks keep the storm steal-dominated: the idle loop
            // re-steals continuously, so victim-selection cost and
            // distance-dependent charges actually move the makespan.
            node.spawn_unbound(
                pile,
                &format!("w{w}"),
                Box::new(Script::new(vec![Action::Compute(2_000_000)])),
            )
            .unwrap();
            w += 1;
        }
    }
    node.run_until_quiescent();
    let name = match policy {
        StealPolicy::LlcFirst => "steal_llcfirst",
        StealPolicy::Uniform => "steal_uniform",
    };
    let mut p = TopoPoint::zero(name, n_cpus, topology);
    p.events = node.machine.events_processed();
    p.makespan_ms = node.freq().cycles_to_ns(node.machine.now()) as f64 / 1e6;
    for c in 0..n_cpus {
        let st = &node.scheduler(c).stats;
        p.steals += st.steals;
        for (i, d) in st.steals_by_distance.iter().enumerate() {
            p.steals_by_distance[i] += d;
        }
    }
    p.ipis_by_distance = node.machine.ipis_by_distance();
    p
}

/// Per-workload trial sizing: (missrate jobs, groupsync invocations,
/// storm backlog factor, irq fan-out rounds). The storm's tasks per pile
/// scale with the machine — `factor × n/8` — so the steal count (and the
/// locality statistics) grow with CPU count instead of washing out.
pub fn workload_sizes(scale: Scale) -> (u64, usize, usize, usize) {
    match scale {
        Scale::Quick => (10, 30, 1, 40),
        Scale::Paper => (40, 100, 2, 160),
    }
}

/// Run the full sweep: every workload × CPU count × topology (plus the
/// LlcFirst/Uniform policy A/B for the storm), trials fanned across
/// worker threads. Returns the rows in a fixed order plus one
/// [`HarnessStats`] per workload section, in `(missrate, groupsync,
/// storm)` order.
pub fn sweep_with_stats(
    hc: &HarnessConfig,
    scale: Scale,
    seed: u64,
) -> (Vec<TopoPoint>, Vec<(&'static str, HarnessStats)>) {
    let (jobs, invocations, pile_factor, irq_rounds) = workload_sizes(scale);
    let cells: Vec<(usize, Topology)> = cpu_counts(scale)
        .into_iter()
        .flat_map(|n| topologies().into_iter().map(move |t| (n, t)))
        .collect();

    let miss = run_trials(hc, cells.clone(), |&(n, t)| {
        let p = missrate_at_scale(n, t, jobs, seed);
        let ev = p.events;
        (p, ev)
    });
    let sync = run_trials(hc, cells.clone(), |&(n, t)| {
        let p = groupsync_at_scale(n, t, invocations, seed);
        let ev = p.events;
        (p, ev)
    });
    let fanout_cells: Vec<(usize, Topology, bool)> = cells
        .iter()
        .flat_map(|&(n, t)| [true, false].into_iter().map(move |near| (n, t, near)))
        .collect();
    let fanout = run_trials(hc, fanout_cells, |&(n, t, near)| {
        let p = irq_fanout(n, t, near, irq_rounds, seed);
        let ev = p.events;
        (p, ev)
    });
    // One section per steal policy so `ext_topology` prints a directly
    // comparable events/s for the LlcFirst-vs-Uniform A/B.
    let storm_llc = run_trials(hc, cells.clone(), |&(n, t)| {
        let tasks = pile_factor * (n / 8).max(1);
        let p = steal_storm(
            &mut NodePool::new(),
            n,
            t,
            StealPolicy::LlcFirst,
            tasks,
            seed,
        );
        let ev = p.events;
        (p, ev)
    });
    let storm_uni = run_trials(hc, cells, |&(n, t)| {
        let tasks = pile_factor * (n / 8).max(1);
        let p = steal_storm(
            &mut NodePool::new(),
            n,
            t,
            StealPolicy::Uniform,
            tasks,
            seed,
        );
        let ev = p.events;
        (p, ev)
    });

    let mut rows = Vec::new();
    rows.extend(miss.results);
    rows.extend(sync.results);
    rows.extend(fanout.results);
    rows.extend(storm_llc.results);
    rows.extend(storm_uni.results);
    (
        rows,
        vec![
            ("topology_missrate", miss.stats),
            ("topology_groupsync", sync.stats),
            ("topology_irq_fanout", fanout.stats),
            ("topology_steal_llcfirst", storm_llc.stats),
            ("topology_steal_uniform", storm_uni.stats),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_llc_bias_beats_uniform_on_locality() {
        let mut pool = NodePool::new();
        let tree = Topology::tree(2, 4);
        let llc = steal_storm(&mut pool, 64, tree, StealPolicy::LlcFirst, 4, 7);
        let uni = steal_storm(&mut pool, 64, tree, StealPolicy::Uniform, 4, 7);
        assert!(llc.steals > 0 && uni.steals > 0);
        assert!(
            llc.locality_hit_rate() > uni.locality_hit_rate(),
            "LlcFirst locality {} must beat Uniform {}",
            llc.locality_hit_rate(),
            uni.locality_hit_rate()
        );
    }

    #[test]
    fn flat_storm_is_policy_invariant() {
        let mut pool = NodePool::new();
        let a = steal_storm(&mut pool, 32, Topology::flat(), StealPolicy::LlcFirst, 3, 7);
        let b = steal_storm(&mut pool, 32, Topology::flat(), StealPolicy::Uniform, 3, 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.makespan_ms, b.makespan_ms);
    }

    #[test]
    fn missrate_at_scale_is_feasible_and_counts_ipis() {
        let p = missrate_at_scale(32, Topology::tree(2, 4), 10, 7);
        assert!(p.events > 0);
        assert!(p.miss_rate < 0.05, "feasible point missed: {}", p.miss_rate);
    }

    #[test]
    fn groupsync_at_scale_holds_the_spread_story() {
        let p = groupsync_at_scale(16, Topology::tree(2, 4), 20, 7);
        assert!(p.events > 0);
        assert!(p.spread_mean_cycles > 0.0);
        // Gang coordination is communication-free: wall-clock sync, no
        // kick IPIs (the paper's §4.3 design point).
        assert_eq!(p.ipis_by_distance.iter().sum::<u64>(), 0);
    }

    #[test]
    fn irq_fanout_measures_kick_distances() {
        let near = irq_fanout(32, Topology::tree(2, 4), true, 20, 7);
        assert!(near.events > 0);
        let total: u64 = near.ipis_by_distance.iter().sum();
        assert!(total > 0, "interrupt wakes must send kicks");
        assert_eq!(
            near.ipis_by_distance[1] + near.ipis_by_distance[2],
            0,
            "near-steered lines must keep every kick inside the consumer's LLC"
        );
        // Blind round-robin on the same machine spills across packages.
        let rr = irq_fanout(32, Topology::tree(2, 4), false, 20, 7);
        assert!(
            rr.ipis_by_distance[1] + rr.ipis_by_distance[2] > 0,
            "round-robin steering should spread kicks beyond the LLC"
        );
        assert!(near.cross_package_kick_fraction() < rr.cross_package_kick_fraction() + 1e-9);
        // Flat runs classify every hop as same-LLC by construction.
        let flat = irq_fanout(32, Topology::flat(), true, 20, 7);
        assert_eq!(flat.ipis_by_distance[1] + flat.ipis_by_distance[2], 0);
        assert_eq!(flat.cross_package_kick_fraction(), 0.0);
    }

    #[test]
    fn sweep_rows_cover_every_cell() {
        // Covered structurally: cpu_counts x topologies x 4 workload rows.
        assert_eq!(cpu_counts(Scale::Quick).len(), 1);
        assert_eq!(cpu_counts(Scale::Paper).len(), 3);
        assert_eq!(topologies().len(), 2);
    }
}

//! `storm_1024`: the 1024-CPU, 2-package x 4-LLC machine under three
//! loads — `steal_storm` (LLC-first stealing, 256 tasks a pile),
//! `missrate_at_scale` and `groupsync_at_scale` — at 20 seeds.
//!
//! Large event backlog, 1024 timer slots, distance-classed IPIs and
//! steals, and a 16 ms node boot per trial: the opposite end of the
//! `des`/`hw` cost curve from `small_trials`.

use super::{Checks, Layers, Pass, Workload};
use crate::trace::Recorder;
use nautix_bench::topology::{self, TopoPoint};
use nautix_hw::{MachineConfig, Topology};
use nautix_kernel::{Action, Script};
use nautix_rt::{Node, NodeConfig, NodePool, StealPolicy};
use nautix_stats::StatsSnapshot;
use std::time::Instant;

const CPUS: usize = 1024;
/// `topology_bench --paper` sizing: 2 x n/8 tasks a pile, 40 probe jobs,
/// 100 gang invocations.
const TASKS_PER_PILE: usize = 256;
const MISSRATE_JOBS: u64 = 40;
const GANG_INVOCATIONS: usize = 100;

/// Seeds per pass; trial `k` of a run uses seed `7 + 20·seed + k`.
const SEEDS: u64 = 20;
const SEED_BASE: u64 = 7;

/// Storms re-built with spans in a traced run.
const TRACED_STORMS: u64 = 2;
const BACKLOG_CHUNKS: u64 = 512;

fn tree() -> Topology {
    Topology::tree(2, 4)
}

pub struct Storm {
    seed: u64,
    first_section: Option<TopoPoint>,
}

impl Storm {
    pub fn new(seed: u64) -> Self {
        Storm {
            seed,
            first_section: None,
        }
    }

    fn trial_seed(&self, k: u64) -> u64 {
        SEED_BASE
            .wrapping_add(self.seed.wrapping_mul(SEEDS))
            .wrapping_add(k)
    }
}

fn storm_config(seed: u64) -> NodeConfig {
    let machine = MachineConfig::phi()
        .with_cpus(CPUS)
        .with_seed(seed)
        .with_topology(tree());
    let mut cfg = NodeConfig::for_machine(machine);
    cfg.sched.steal = StealPolicy::LlcFirst;
    cfg.max_threads = cfg.max_threads.max(CPUS + 8 * TASKS_PER_PILE + 64);
    cfg
}

/// One steal storm re-built from public pieces, as
/// `topology::steal_storm` runs it, a span around each layer.
fn traced_storm(
    rec: &mut Recorder,
    pool: &mut NodePool,
    id: u32,
    seed: u64,
    backlog: Option<(u64, &mut Vec<usize>)>,
) -> (TopoPoint, StatsSnapshot, u64) {
    let trial = rec.open("bench.trial", None, id);

    let span = rec.open("bench.trial.build", Some(trial), id);
    let cfg = storm_config(seed);
    rec.close(span);

    let span = rec.open("core.node.boot", Some(trial), id);
    let node: &mut Node = pool.node(cfg);
    rec.close(span);

    let span = rec.open("bench.trial.spawn", Some(trial), id);
    let mut w = 0usize;
    for pile in (0..CPUS).step_by(CPUS / 8) {
        for _ in 0..TASKS_PER_PILE {
            node.spawn_unbound(
                pile,
                &format!("w{w}"),
                Box::new(Script::new(vec![Action::Compute(2_000_000)])),
            )
            .expect("spawn a storm task");
            w += 1;
        }
    }
    rec.close(span);

    let span = rec.open("core.node.run", Some(trial), id);
    if let Some((end, samples)) = backlog {
        super::run_sampling_backlog(node, end, BACKLOG_CHUNKS, samples);
    }
    node.run_until_quiescent();
    rec.close(span);

    let span = rec.open("bench.trial.collect", Some(trial), id);
    let end = node.machine.now();
    let mut point = TopoPoint {
        workload: "steal_llcfirst",
        n_cpus: CPUS,
        topology: tree().label(),
        events: node.machine.events_processed(),
        makespan_ms: node.freq().cycles_to_ns(end) as f64 / 1e6,
        miss_rate: 0.0,
        spread_mean_cycles: 0.0,
        steals: 0,
        steals_by_distance: [0; 3],
        ipis_by_distance: node.machine.ipis_by_distance(),
    };
    for cpu in 0..CPUS {
        let st = &node.scheduler(cpu).stats;
        point.steals += st.steals;
        for (total, d) in point
            .steals_by_distance
            .iter_mut()
            .zip(st.steals_by_distance)
        {
            *total += d;
        }
    }
    let snap = node.stats_snapshot();
    rec.close(span);

    rec.close(trial);
    (point, snap, end)
}

impl Workload for Storm {
    /// Input generation (the storm's node configuration) plus one fresh
    /// 1024-CPU boot.
    fn setup(&mut self) {
        std::hint::black_box(Node::new(storm_config(self.trial_seed(0))));
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let started = Instant::now();
        let mut pool = NodePool::new();
        let (mut ops, mut ops_wall_s, mut makespan_ms) = (0u64, 0.0, 0.0);
        let mut unit_us = Vec::with_capacity(3 * SEEDS as usize);
        let mut timed = |call: &mut dyn FnMut() -> TopoPoint| {
            let t = Instant::now();
            let p = call();
            let secs = t.elapsed().as_secs_f64();
            ops += p.events;
            ops_wall_s += secs;
            unit_us.push(secs * 1e6);
            p
        };
        for k in 0..SEEDS {
            let seed = self.trial_seed(k);
            let storm = timed(&mut || {
                topology::steal_storm(
                    &mut pool,
                    CPUS,
                    tree(),
                    StealPolicy::LlcFirst,
                    TASKS_PER_PILE,
                    seed,
                )
            });
            let miss =
                timed(&mut || topology::missrate_at_scale(CPUS, tree(), MISSRATE_JOBS, seed));
            let sync =
                timed(&mut || topology::groupsync_at_scale(CPUS, tree(), GANG_INVOCATIONS, seed));
            makespan_ms += storm.makespan_ms;
            checks.check(storm.steals > 0 && storm.makespan_ms > 0.0, || {
                format!(
                    "storm seed {seed}: {} steals, makespan {} ms",
                    storm.steals, storm.makespan_ms
                )
            });
            checks.check(miss.miss_rate == 0.0, || {
                format!(
                    "seed {seed}: feasible probes missed at rate {} on 1024 CPUs",
                    miss.miss_rate
                )
            });
            checks.check(sync.spread_mean_cycles > 0.0, || {
                format!("seed {seed}: gang sync measured no dispatch spread")
            });
            if self.first_section.is_none() {
                self.first_section = Some(storm);
            }
        }
        eprintln!("  storm makespan summed over {SEEDS} seeds: {makespan_ms:.3} simulated ms");
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ops,
            ops_wall_s,
            unit_us,
        }
    }

    fn finish(&mut self, checks: &mut Checks) {
        let again = topology::steal_storm(
            &mut NodePool::new(),
            CPUS,
            tree(),
            StealPolicy::LlcFirst,
            TASKS_PER_PILE,
            self.trial_seed(0),
        );
        if let Some(first) = &self.first_section {
            checks.check(again == *first, || {
                "a second run of the first storm gave different simulated statistics".into()
            });
        }
    }

    fn traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) {
        let (mut lib_s, mut makespan_ms) = (0.0, 0.0);
        let mut merged = StatsSnapshot::default();
        let mut lib_pool = NodePool::new();
        let mut pool = NodePool::new();
        let mut first = None;
        for k in 0..TRACED_STORMS {
            let seed = self.trial_seed(k);
            let t = Instant::now();
            let want = topology::steal_storm(
                &mut lib_pool,
                CPUS,
                tree(),
                StealPolicy::LlcFirst,
                TASKS_PER_PILE,
                seed,
            );
            lib_s += t.elapsed().as_secs_f64();
            makespan_ms += want.makespan_ms;

            let (got, snap, end) = traced_storm(rec, &mut pool, k as u32, seed, None);
            checks.check(got == want, || {
                format!("traced storm {k} differs from topology::steal_storm")
            });
            merged.merge(&snap);
            first.get_or_insert((want, end));
        }

        super::trial_shares(rec, lib_s, layers, checks);
        super::snapshot_counts(&merged, layers);
        layers.set("core.steal.llc_locality", merged.steal_locality());
        layers.set("sim_makespan_ms", makespan_ms);

        if let Some((want, end)) = first {
            let mut samples = Vec::new();
            let (got, _, _) = traced_storm(
                &mut Recorder::new(),
                &mut pool,
                0,
                self.trial_seed(0),
                Some((end, &mut samples)),
            );
            checks.check(got == want, || {
                "the backlog-sampled storm differs from topology::steal_storm".into()
            });
            super::backlog_stats(&mut samples, layers);
        }
    }
}

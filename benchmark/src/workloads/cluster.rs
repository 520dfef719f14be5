//! `cluster_churn`: the cluster admission service as a closed loop with
//! one client — `nautix_cluster::run_with_policy` on a 16-shard x 8-CPU
//! fleet, `best_fit` then `po2`, 500k tenants each.
//!
//! Millions of `Node::admit` team transactions and memoised hyperperiod
//! simulations, almost no event pump: the opposite use of `core`
//! admission from `paper_repro` (1.8k gang admissions in 45 M events), so
//! an admission change that helps one and hurts the other shows.

use super::{Checks, Layers, Pass, Workload};
use crate::metrics::tail_percentile;
use crate::trace::Recorder;
use nautix_cluster::{
    run_with_policy, ClusterConfig, ClusterOutcome, ClusterView, Fleet, PlacementPolicy,
    PlacementStrategy, TenantRequest,
};
use nautix_des::DetRng;
use std::time::Instant;

const SHARDS: usize = 16;
const CPUS: usize = 8;
const TENANTS: u64 = 500_000;
const STRATEGIES: [PlacementStrategy; 2] =
    [PlacementStrategy::BestFit, PlacementStrategy::PowerOfTwo];

/// Tenants per strategy in a traced run and in the repeat-run check.
const TRACED_TENANTS: u64 = 100_000;
const REPEAT_TENANTS: u64 = 20_000;

/// `ClusterConfig::new`'s root seed; the run's seed is added to it.
const SEED_BASE: u64 = 0xC1_05_7E_12;

/// A policy wrapper that stamps every `candidates` call: the gap between
/// consecutive entries is one whole placement decision as the engine's
/// client sees it (departures, view rebuild, the policy, the probes).
struct Stamped {
    inner: Box<dyn PlacementPolicy>,
    t0: Instant,
    enter_ns: Vec<u64>,
    /// Exit stamps, taken only in a traced run.
    exit_ns: Option<Vec<u64>>,
}

impl Stamped {
    fn new(cfg: &ClusterConfig, traced: bool) -> Self {
        // The policy seed `nautix_cluster::run` derives from the root.
        let policy_seed = DetRng::seed_from(cfg.seed).fork(4).uniform(0, u64::MAX);
        let stamps = || Vec::with_capacity(cfg.tenants as usize);
        Stamped {
            inner: cfg.strategy.build(policy_seed),
            t0: Instant::now(),
            enter_ns: stamps(),
            exit_ns: traced.then(stamps),
        }
    }

    /// Host µs of every decision but the last (whose end nothing stamps).
    fn gaps_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.enter_ns.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e3)
    }
}

impl PlacementPolicy for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn candidates(&mut self, req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        self.enter_ns.push(self.t0.elapsed().as_nanos() as u64);
        self.inner.candidates(req, view, out);
        if let Some(exits) = &mut self.exit_ns {
            exits.push(self.t0.elapsed().as_nanos() as u64);
        }
    }
}

/// One stamped run: the outcome, the stamps, and host seconds from the
/// call to the first decision (fleet boot) and from there to the return.
struct StampedRun {
    out: ClusterOutcome,
    policy: Stamped,
    boot_s: f64,
    decide_s: f64,
}

fn stamped_run(cfg: &ClusterConfig, fleet: &mut Fleet, traced: bool) -> StampedRun {
    let mut policy = Stamped::new(cfg, traced);
    let out = run_with_policy(cfg, fleet, &mut policy);
    let total_s = policy.t0.elapsed().as_secs_f64();
    let boot_s = policy
        .enter_ns
        .first()
        .map_or(total_s, |&ns| ns as f64 / 1e9);
    StampedRun {
        out,
        policy,
        boot_s,
        decide_s: total_s - boot_s,
    }
}

/// The accounting identities every run must keep.
fn check_conservation(cfg: &ClusterConfig, out: &ClusterOutcome, checks: &mut Checks) {
    let name = cfg.strategy.name();
    checks.check(
        out.decisions == cfg.tenants && out.placed + out.rejected == out.decisions,
        || {
            format!(
                "{name}: placed {} + rejected {} != decisions {} (tenants {})",
                out.placed, out.rejected, out.decisions, cfg.tenants
            )
        },
    );
    checks.check(out.departures <= out.placed, || {
        format!(
            "{name}: {} departures from {} placements",
            out.departures, out.placed
        )
    });
    checks.check(out.probes >= out.placed, || {
        format!(
            "{name}: {} probes for {} placements",
            out.probes, out.placed
        )
    });
    checks.check(out.quality() > 0.0 && out.quality() <= 1.0, || {
        format!("{name}: placement quality {} outside (0, 1]", out.quality())
    });
}

pub struct ClusterChurn {
    seed: u64,
    fleet: Fleet,
}

impl ClusterChurn {
    pub fn new(seed: u64) -> Self {
        ClusterChurn {
            seed,
            fleet: Fleet::new(),
        }
    }

    fn config(&self, strategy: PlacementStrategy, tenants: u64) -> ClusterConfig {
        ClusterConfig::new(SHARDS, CPUS, tenants, strategy)
            .with_seed(SEED_BASE.wrapping_add(self.seed))
    }
}

impl Workload for ClusterChurn {
    /// A fresh fleet booted up to its first decision.
    fn setup(&mut self) {
        let cfg = self.config(STRATEGIES[0], 1);
        std::hint::black_box(stamped_run(&cfg, &mut Fleet::new(), false).out);
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let started = Instant::now();
        let (mut ops, mut ops_wall_s) = (0u64, 0.0);
        let mut unit_us = Vec::with_capacity(2 * TENANTS as usize);
        let mut offered = Vec::new();
        for strategy in STRATEGIES {
            let cfg = self.config(strategy, TENANTS);
            let run = stamped_run(&cfg, &mut self.fleet, false);
            check_conservation(&cfg, &run.out, checks);
            eprintln!(
                "  {:<8} {:>9.0} dec/s  quality {:.4}  probes/decision {:.3}  sim hit rate {:.3}  boot {:.2} ms",
                strategy.name(),
                run.out.decisions as f64 / run.decide_s,
                run.out.quality(),
                run.out.probes as f64 / run.out.decisions as f64,
                run.out.sim_hit_rate(),
                run.boot_s * 1e3,
            );
            ops += run.out.decisions;
            ops_wall_s += run.decide_s;
            unit_us.extend(run.policy.gaps_us());
            offered.push(run.out.oracle_util_ppm);
        }
        checks.check(offered.windows(2).all(|w| w[0] == w[1]), || {
            "the strategies were offered different tenant streams".into()
        });
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ops,
            ops_wall_s,
            unit_us,
        }
    }

    fn finish(&mut self, checks: &mut Checks) {
        for strategy in STRATEGIES {
            let cfg = self.config(strategy, REPEAT_TENANTS);
            let first = stamped_run(&cfg, &mut self.fleet, false).out;
            let again = stamped_run(&cfg, &mut Fleet::new(), false).out;
            let library = nautix_cluster::run(&cfg, &mut self.fleet);
            let name = strategy.name();
            checks.check(
                first.fingerprint == again.fingerprint && first.snapshot == again.snapshot,
                || format!("{name}: a second run reached a different cluster state"),
            );
            checks.check(
                first.fingerprint == library.fingerprint && first.probes == library.probes,
                || format!("{name}: the stamped policy diverged from nautix_cluster::run"),
            );
        }
    }

    fn traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) {
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let (mut decisions, mut rejected, mut probes) = (0u64, 0u64, 0u64);
        let (mut sim_hits, mut sim_misses, mut rollbacks) = (0u64, 0u64, 0u64);
        let (mut in_policy_ns, mut stamped) = (0u64, 0u64);
        let mut gaps = Vec::with_capacity(2 * TRACED_TENANTS as usize);
        let mut plain_gaps = Vec::with_capacity(2 * TRACED_TENANTS as usize);
        for (id, strategy) in STRATEGIES.into_iter().enumerate() {
            let cfg = self.config(strategy, TRACED_TENANTS);
            let plain = stamped_run(&cfg, &mut self.fleet, false);
            plain_s += plain.decide_s;
            plain_gaps.extend(plain.policy.gaps_us());

            let span = rec.open("cluster.run", None, id as u32);
            let run = stamped_run(&cfg, &mut self.fleet, true);
            rec.close(span);
            traced_s += run.decide_s;
            check_conservation(&cfg, &run.out, checks);
            checks.check(run.out.fingerprint == plain.out.fingerprint, || {
                format!(
                    "{}: the traced run reached a different cluster state",
                    strategy.name()
                )
            });

            let exits = run.policy.exit_ns.as_deref().unwrap_or(&[]);
            for (&enter, &exit) in run.policy.enter_ns.iter().zip(exits) {
                rec.push_closed(
                    "cluster.policy.candidates",
                    Some(span),
                    id as u32,
                    run.policy.t0,
                    enter,
                    exit,
                );
                in_policy_ns += exit - enter;
                stamped += 1;
            }
            gaps.extend(run.policy.gaps_us());
            decisions += run.out.decisions;
            rejected += run.out.rejected;
            probes += run.out.probes;
            sim_hits += run.out.snapshot.sim_hits;
            sim_misses += run.out.snapshot.sim_misses;
            rollbacks += run.out.snapshot.rollbacks;
            if strategy == PlacementStrategy::BestFit {
                layers.set("placement_quality", run.out.quality());
            }
        }

        let candidates_ns = in_policy_ns as f64 / stamped.max(1) as f64;
        let gap_us = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        gaps.sort_by(f64::total_cmp);
        plain_gaps.sort_by(f64::total_cmp);
        // Of the untraced runs, as a client sees it.
        layers.set("decision_p99_us", tail_percentile(&plain_gaps, 0.99, 10));
        layers.set("cluster.policy.candidates_ns", candidates_ns);
        layers.set("cluster.decision_rest_us", gap_us - candidates_ns / 1e3);
        layers.set(
            "cluster.decision_p999_us",
            tail_percentile(&gaps, 0.999, 10),
        );
        layers.set(
            "cluster.probes_per_decision",
            probes as f64 / decisions as f64,
        );
        layers.set("cluster.reject_rate", rejected as f64 / decisions as f64);
        layers.set("core.admission.sims_run", sim_misses as f64);
        layers.set(
            "core.admission.sim_hit_rate",
            sim_hits as f64 / (sim_hits + sim_misses).max(1) as f64,
        );
        layers.set("core.admission.rollbacks", rollbacks as f64);
        layers.set(
            "bench.trace.overhead_pct",
            (traced_s - plain_s) / plain_s * 100.0,
        );
    }
}

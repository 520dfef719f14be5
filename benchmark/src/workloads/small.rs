//! `small_trials`: the Figures 6-9 grid (255 points on 2-CPU nodes, about
//! 1.7k events a trial) swept at 144 seeds through
//! `missrate::sweep_with_stats`, pooled: 36.7k trials, about 61 M events.
//!
//! The event backlog is a handful of entries and a trial lasts ~300 µs,
//! so per-trial cost (node reset, scenario building, harness dispatch) is
//! a large share. A large-backlog queue win must not move this workload;
//! a reset or scenario win moves only this one.

use super::{Checks, Layers, Pass, Workload};
use crate::trace::Recorder;
use nautix_bench::missrate::{self, MissPoint};
use nautix_bench::{Scale, Scenario};
use nautix_des::Nanos;
use nautix_hw::Platform;
use nautix_kernel::{Action, Constraints, FnProgram, SysCall};
use nautix_rt::{HarnessConfig, Node, NodeConfig, NodePool};
use nautix_stats::StatsSnapshot;
use std::time::Instant;

/// Sweeps per pass; sweep `k` of a run uses seed `5 + 144·seed + k`, so
/// runs at different seeds share no sweep.
const SWEEPS: u64 = 144;
const SEED_BASE: u64 = 5;

/// Sweep seeds whose every trial is re-built with spans in a traced run.
const TRACED_SWEEPS: u64 = 4;

/// Traced trials whose event backlog is sampled, and samples per trial.
const BACKLOG_TRIALS: usize = 16;
const BACKLOG_CHUNKS: u64 = 64;

const PLATFORMS: [Platform; 2] = [Platform::Phi, Platform::R415];

pub struct SmallTrials {
    seed: u64,
    hc: HarnessConfig,
    first_section: Option<(Vec<MissPoint>, Vec<u64>)>,
}

impl SmallTrials {
    pub fn new(seed: u64) -> Self {
        SmallTrials {
            seed,
            hc: super::serial_config(),
            first_section: None,
        }
    }

    fn sweep_seed(&self, k: u64) -> u64 {
        SEED_BASE
            .wrapping_add(self.seed.wrapping_mul(SWEEPS))
            .wrapping_add(k)
    }
}

/// One grid point re-built from public pieces, as
/// `Scenario::run_pooled` runs it, a span around each layer.
fn traced_trial(
    rec: &mut Recorder,
    pool: &mut NodePool,
    id: u32,
    platform: Platform,
    (period_ns, slice_ns, jobs): (Nanos, Nanos, u64),
    seed: u64,
    backlog: Option<&mut Vec<usize>>,
) -> (MissPoint, StatsSnapshot) {
    let trial = rec.open("bench.trial", None, id);

    let span = rec.open("bench.trial.build", Some(trial), id);
    let cfg: NodeConfig =
        Scenario::missrate(platform, period_ns, slice_ns, jobs, seed).node_config();
    rec.close(span);

    // The sweep is pooled: after a worker's first trial, "boot" is
    // `Node::reset` replaying construction in place.
    let span = rec.open("core.node.boot", Some(trial), id);
    let node: &mut Node = pool.node(cfg);
    rec.close(span);

    let span = rec.open("bench.trial.spawn", Some(trial), id);
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(Constraints::Periodic {
                phase: period_ns,
                period: period_ns,
                slice: slice_ns,
            }))
        } else {
            Action::Compute(100_000)
        }
    });
    let tid = node
        .spawn_on(1, "probe", Box::new(prog))
        .expect("spawn the probe thread");
    rec.close(span);

    let span = rec.open("core.node.run", Some(trial), id);
    let horizon_ns = period_ns.saturating_mul(jobs + 20);
    if let Some(samples) = backlog {
        let end = node.machine.now() + node.freq().ns_to_cycles(horizon_ns);
        super::run_sampling_backlog(node, end, BACKLOG_CHUNKS, samples);
    } else {
        node.run_for_ns(horizon_ns);
    }
    rec.close(span);

    let span = rec.open("bench.trial.collect", Some(trial), id);
    let st = &node.thread_state(tid).stats;
    let late = st.miss_time_summary();
    let point = MissPoint {
        period_us: period_ns / 1000,
        slice_pct: slice_ns * 100 / period_ns,
        miss_rate: st.miss_rate(),
        miss_mean_ns: late.mean,
        miss_std_ns: late.std_dev,
        jobs: st.met + st.missed,
        events: node.machine.events_processed(),
    };
    let snap = node.stats_snapshot();
    rec.close(span);

    rec.close(trial);
    (point, snap)
}

impl Workload for SmallTrials {
    /// Input generation (both trial grids) plus one fresh 2-CPU node.
    fn setup(&mut self) {
        for platform in PLATFORMS {
            std::hint::black_box(missrate::trial_grid(platform, Scale::Paper));
        }
        let cfg = Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 300, self.sweep_seed(0))
            .node_config();
        std::hint::black_box(Node::new(cfg));
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let started = Instant::now();
        let (mut ops, mut ops_wall_s) = (0u64, 0.0);
        let mut unit_us = Vec::with_capacity(SWEEPS as usize * 255);
        let mut feasible_misses = 0u64;
        let mut trials = 0usize;
        for k in 0..SWEEPS {
            for platform in PLATFORMS {
                let (pts, stats) = missrate::sweep_with_stats(
                    &self.hc,
                    platform,
                    Scale::Paper,
                    self.sweep_seed(k),
                );
                ops += stats.events;
                ops_wall_s += stats.wall_secs;
                trials += stats.trials;
                unit_us.extend(stats.trial_wall_secs.iter().map(|w| w * 1e6));
                // The paper's hard guarantee, at every seed.
                feasible_misses += pts
                    .iter()
                    .filter(|p| p.period_us >= 100 && p.slice_pct <= 70 && p.miss_rate != 0.0)
                    .count() as u64;
                if self.first_section.is_none() {
                    self.first_section = Some((pts, stats.trial_events));
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        checks.check(feasible_misses == 0, || {
            format!("{feasible_misses} feasible (period >= 100 us, slice <= 70%) points missed")
        });
        checks.check(trials == SWEEPS as usize * 255, || {
            format!("{trials} trials, not {}", SWEEPS * 255)
        });
        Pass {
            wall_s,
            ops,
            ops_wall_s,
            unit_us,
        }
    }

    fn finish(&mut self, checks: &mut Checks) {
        let (again, stats) =
            missrate::sweep_with_stats(&self.hc, Platform::Phi, Scale::Paper, self.sweep_seed(0));
        if let Some((first, first_events)) = &self.first_section {
            checks.check(
                again == *first && stats.trial_events == *first_events,
                || "a second run of the first sweep gave different simulated statistics".into(),
            );
        }
    }

    fn traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) {
        let grids = PLATFORMS.map(|p| (p, missrate::trial_grid(p, Scale::Paper)));

        let mut lib_s = 0.0;
        let mut merged = StatsSnapshot::default();
        let mut id = 0u32;
        for k in 0..TRACED_SWEEPS {
            let seed = self.sweep_seed(k);
            for (platform, grid) in &grids {
                // The library's sweep: a fresh pool, every point in order.
                let t = Instant::now();
                let mut pool = NodePool::new();
                let want: Vec<MissPoint> = grid
                    .iter()
                    .map(|&(period, slice, jobs)| {
                        missrate::measure_point_pooled(
                            &mut pool, *platform, period, slice, jobs, seed,
                        )
                    })
                    .collect();
                lib_s += t.elapsed().as_secs_f64();

                let mut pool = NodePool::new();
                for (point, want) in grid.iter().zip(&want) {
                    let (got, snap) =
                        traced_trial(rec, &mut pool, id, *platform, *point, seed, None);
                    checks.check(got == *want, || {
                        format!("traced miss-rate trial {id} differs from measure_point_pooled")
                    });
                    merged.merge(&snap);
                    id += 1;
                }
            }
        }

        super::trial_shares(rec, lib_s, layers, checks);
        super::snapshot_counts(&merged, layers);

        let mut scratch = Recorder::new();
        let mut pool = NodePool::new();
        let mut samples = Vec::new();
        let seed = self.sweep_seed(0);
        let (platform, grid) = &grids[0];
        for (i, point) in grid
            .iter()
            .enumerate()
            .step_by((grid.len() / BACKLOG_TRIALS).max(1))
        {
            let (got, _) = traced_trial(
                &mut scratch,
                &mut pool,
                i as u32,
                *platform,
                *point,
                seed,
                Some(&mut samples),
            );
            let want = missrate::measure_point(*platform, point.0, point.1, point.2, seed);
            checks.check(got == want, || {
                format!("backlog-sampled miss-rate trial {i} differs from measure_point")
            });
        }
        super::backlog_stats(&mut samples, layers);
    }
}

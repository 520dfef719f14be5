//! `paper_repro` and `armed_repro`: the seven instrumented sections of
//! `repro_all --paper`, through the same `nautix_bench` library calls and
//! (at seed 0) the same per-section seeds. 2,072 trials and 45,472,710
//! events; 95% of the events are 64-CPU BSP gangs.
//!
//! The armed variant is the same code in the build with the product's
//! `trace` feature: oracles armed on every node and a `StatsHub` streaming
//! frames to a file while the sections run.

use super::{Checks, Layers, Pass, Workload};
use crate::host;
use crate::trace::Recorder;
use nautix_bench::missrate::{self, MissPoint};
use nautix_bench::throttle::{self, Granularity, ThrottlePoint};
use nautix_bench::{ablations, f, groupsync, write_csv, HarnessStats, Scale};
use nautix_bsp::{collect_bsp, spawn_bsp, BspMode, BspParams};
use nautix_des::Nanos;
use nautix_hw::{MachineConfig, Platform};
use nautix_rt::{HarnessConfig, Node, NodeConfig, SchedConfig};
use nautix_stats::StatsSnapshot;
use std::path::Path;
use std::time::Instant;

/// `repro_all`'s per-section seeds; the run's seed is added to each.
const SEED_MISSRATE: u64 = 5;
const SEED_FIG12: u64 = 21;
const SEED_THROTTLE: u64 = 3;
const SEED_ABLATIONS: u64 = 31;

/// The pins of the default seed (ROADMAP's fixed points).
const PIN_EVENTS: u64 = 45_472_710;
const PIN_TRIALS: usize = 2_072;
/// Oracle records the seven sections consume. The armed `repro_all
/// --paper` pin, 81,717,525, also counts the figures the harness does not
/// instrument (3, 4, 5, 10, 11, 15, 16, isolation), which are not part of
/// this workload.
#[cfg(feature = "trace")]
const PIN_RECORDS: u64 = 69_991_757;

/// Every `STRIDE`-th point of each throttle grid is a traced trial: 29 is
/// coprime with the 30x30 grid, so the sample walks a diagonal through
/// every period and every slice share.
const STRIDE: usize = 29;

/// Traced trials whose event backlog is sampled, and samples per trial.
const BACKLOG_TRIALS: usize = 4;
const BACKLOG_CHUNKS: u64 = 256;

pub struct Repro {
    seed: u64,
    hc: HarnessConfig,
    /// Fig 6 points of the first pass, for the repeat-run check.
    first_section: Option<(Vec<MissPoint>, Vec<u64>)>,
    passes: u64,
    #[cfg(feature = "trace")]
    hub: Option<nautix_stats::StatsHub>,
    /// Oracle records consumed inside passes (set-up boots excluded).
    #[cfg(feature = "trace")]
    pass_records: u64,
}

impl Repro {
    /// `paper_repro` in the plain build, `armed_repro` in the build with
    /// the `trace` feature.
    pub fn new(seed: u64) -> Self {
        #[cfg(not(feature = "trace"))]
        let hc = super::serial_config();
        #[cfg(feature = "trace")]
        let hc = {
            // The one environment knob the benchmark sets: `Node::new`
            // takes oracle arming from `HarnessConfig::from_env()` and the
            // sweep functions build their nodes internally, so there is no
            // typed way in yet. No thread exists at this point.
            std::env::set_var("NAUTIX_ORACLES", "1");
            HarnessConfig {
                oracles: true,
                stats_stream: Some(host::out_dir().join("armed_stats.stream")),
                ..super::serial_config()
            }
        };
        Repro {
            seed,
            first_section: None,
            passes: 0,
            #[cfg(feature = "trace")]
            hub: Some(start_hub(&hc)),
            #[cfg(feature = "trace")]
            pass_records: 0,
            hc,
        }
    }

    /// Uninstall the process stats stream and drain the hub.
    #[cfg(feature = "trace")]
    fn close_hub(&mut self) -> Option<nautix_stats::HubReport> {
        let hub = self.hub.take()?;
        nautix_bench::set_stats_stream(None);
        Some(hub.finish())
    }
}

/// Records consumed and invariant checks performed by every oracle suite
/// dropped so far (suites flush when their node resets or drops).
#[cfg(feature = "trace")]
fn oracle_totals() -> (u64, u64) {
    let (_, o) = nautix_rt::oracle::global_stats();
    (
        o.records,
        o.edf_checks
            + o.miss_checks
            + o.task_checks
            + o.timer_checks
            + o.fire_order_checks
            + o.cache_checks
            + o.layer_checks,
    )
}

/// Start the live-stats hub as `repro_all` does under
/// `NAUTIX_STATS_STREAM`, and install its sender as the process stream.
#[cfg(feature = "trace")]
fn start_hub(hc: &HarnessConfig) -> nautix_stats::StatsHub {
    let sampler: nautix_stats::Sampler = Box::new(|s: &mut StatsSnapshot| {
        let (suites, o) = nautix_rt::oracle::global_stats();
        s.oracle_suites = suites;
        s.oracle_records = o.records;
        s.oracle_env_misses = o.environment_misses;
        s.oracle_divergences = o.divergences;
    });
    let hub = nautix_stats::StatsHub::start(nautix_stats::HubOptions {
        stream_path: hc.stats_stream.clone(),
        sampler: Some(sampler),
        ..nautix_stats::HubOptions::default()
    });
    nautix_bench::set_stats_stream(Some(hub.tx()));
    hub
}

/// One section's instrumentation.
struct Section {
    name: &'static str,
    stats: HarnessStats,
}

/// Everything one pass over the seven sections produced.
struct Sections {
    sections: Vec<Section>,
    /// Host seconds inside the library calls.
    wall_s: f64,
    phi: Vec<MissPoint>,
    r415: Vec<MissPoint>,
    fig12: Vec<groupsync::SyncSeries>,
    fig13: Vec<ThrottlePoint>,
    fig14: Vec<ThrottlePoint>,
    eager_lazy: Vec<(Option<u64>, f64, f64)>,
    knob: Vec<(u64, f64)>,
}

fn run_sections(hc: &HarnessConfig, s: u64) -> Sections {
    let mut wall_s = 0.0;
    let mut sections = Vec::with_capacity(7);
    // Time one library call and file its instrumentation under `name`.
    let mut timed = |name: &'static str, stats: &mut dyn FnMut() -> HarnessStats| {
        let t = Instant::now();
        let stats = stats();
        wall_s += t.elapsed().as_secs_f64();
        sections.push(Section { name, stats });
    };
    let (mut phi, mut r415) = (Vec::new(), Vec::new());
    let (mut fig12, mut fig13, mut fig14) = (Vec::new(), Vec::new(), Vec::new());
    let (mut eager_lazy, mut knob) = (Vec::new(), Vec::new());
    let paper = Scale::Paper;
    timed("fig06_08_missrate_phi", &mut || {
        let stats;
        (phi, stats) = missrate::sweep_with_stats(hc, Platform::Phi, paper, SEED_MISSRATE + s);
        stats
    });
    timed("fig07_09_missrate_r415", &mut || {
        let stats;
        (r415, stats) = missrate::sweep_with_stats(hc, Platform::R415, paper, SEED_MISSRATE + s);
        stats
    });
    timed("fig12_group_sync_scale", &mut || {
        let stats;
        (fig12, stats) = groupsync::fig12_with_stats(hc, paper, SEED_FIG12 + s);
        stats
    });
    timed("fig13_throttle_coarse", &mut || {
        let stats;
        (fig13, stats) =
            throttle::run_with_stats(hc, Granularity::Coarse, paper, SEED_THROTTLE + s);
        stats
    });
    timed("fig14_throttle_fine", &mut || {
        let stats;
        (fig14, stats) = throttle::run_with_stats(hc, Granularity::Fine, paper, SEED_THROTTLE + s);
        stats
    });
    timed("abl_eager_vs_lazy", &mut || {
        let stats;
        (eager_lazy, stats) = ablations::eager_vs_lazy_with_stats(hc, SEED_ABLATIONS + s);
        stats
    });
    timed("abl_util_limit", &mut || {
        let stats;
        (knob, stats) = ablations::util_limit_knob_with_stats(hc, SEED_ABLATIONS + s);
        stats
    });
    Sections {
        sections,
        wall_s,
        phi,
        r415,
        fig12,
        fig13,
        fig14,
        eager_lazy,
        knob,
    }
}

/// The paper-vs-measured predicates `repro_all` prints, as checks.
fn check_predicates(out: &Sections, checks: &mut Checks) {
    for (platform, pts, edge_us) in [("Phi", &out.phi, 10), ("R415", &out.r415, 4)] {
        let feasible_zero = pts
            .iter()
            .filter(|p| p.period_us >= 100 && p.slice_pct <= 70)
            .all(|p| p.miss_rate == 0.0);
        checks.check(feasible_zero, || {
            format!("{platform}: a feasible (period >= 100 us, slice <= 70%) point missed")
        });
        let edge_missy = pts
            .iter()
            .filter(|p| p.period_us == edge_us && p.slice_pct >= 50)
            .all(|p| p.miss_rate > 0.5);
        checks.check(edge_missy, || {
            format!("{platform}: fat slices at the {edge_us} us edge do not miss")
        });
        let worst_ns = pts.iter().map(|p| p.miss_mean_ns).fold(0.0f64, f64::max);
        checks.check(worst_ns < 20_000.0, || {
            format!("{platform}: worst mean lateness {worst_ns} ns is not us-scale")
        });
    }
    if let (Some(small), Some(big)) = (out.fig12.first(), out.fig12.last()) {
        checks.check(big.summary.mean > small.summary.mean, || {
            "fig12: gang dispatch bias does not grow with group size".into()
        });
        checks.check(
            big.summary.std_dev < 6.0 * small.summary.std_dev.max(1.0),
            || "fig12: dispatch variation grows with group size".into(),
        );
    }
    let (_, cv13) = throttle::control_quality(&out.fig13);
    let (_, cv14) = throttle::control_quality(&out.fig14);
    checks.check(cv13 < cv14, || {
        format!("fig13/14: cv coarse {cv13} is not below cv fine {cv14}")
    });
    if let (Some(quiet), Some(hot)) = (out.eager_lazy.first(), out.eager_lazy.last()) {
        checks.check(quiet.1 == 0.0 && quiet.2 == 0.0, || {
            "ablation: misses without any SMI".into()
        });
        checks.check(hot.1 <= hot.2, || {
            format!(
                "ablation: eager {} misses more than lazy {} under SMIs",
                hot.1, hot.2
            )
        });
    }
    if let (Some(loose), Some(tight)) = (out.knob.first(), out.knob.last()) {
        checks.check(tight.1 <= loose.1, || {
            format!(
                "ablation: a {}% limit misses more ({}) than {}% ({})",
                tight.0, tight.1, loose.0, loose.1
            )
        });
    }
}

/// Regenerate the seven CSVs with the product's writer and row shapes
/// (as in `repro_all` and the `abl_*` binaries) and compare each byte for
/// byte with the committed `results/` file.
fn check_csvs(out: &Sections, checks: &mut Checks) {
    let dir = host::out_dir().join("csv");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {dir:?}: {e}"));
    let miss_rows = |pts: &[MissPoint]| -> Vec<Vec<String>> {
        pts.iter()
            .map(|p| {
                vec![
                    p.period_us.to_string(),
                    p.slice_pct.to_string(),
                    f(p.miss_rate),
                    f(p.miss_mean_ns),
                    f(p.miss_std_ns),
                ]
            })
            .collect()
    };
    let miss_header = [
        "period_us",
        "slice_pct",
        "miss_rate",
        "miss_mean_ns",
        "miss_std_ns",
    ];
    let throttle_rows = |pts: &[ThrottlePoint]| -> Vec<Vec<String>> {
        pts.iter()
            .map(|p| {
                vec![
                    p.period_ns.to_string(),
                    p.slice_ns.to_string(),
                    f(p.utilization),
                    p.time_ns.to_string(),
                    p.admitted.to_string(),
                ]
            })
            .collect()
    };
    let throttle_header = [
        "period_ns",
        "slice_ns",
        "utilization",
        "time_ns",
        "admitted",
    ];
    type Csv<'a> = (&'a str, &'a [&'a str], Vec<Vec<String>>);
    let files: Vec<Csv> = vec![
        ("fig06_missrate_phi.csv", &miss_header, miss_rows(&out.phi)),
        (
            "fig07_missrate_r415.csv",
            &miss_header,
            miss_rows(&out.r415),
        ),
        (
            "fig12_group_sync_scale.csv",
            &["n", "invocation", "spread_cycles"],
            out.fig12
                .iter()
                .flat_map(|s| {
                    s.spreads
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| vec![s.n.to_string(), i.to_string(), v.to_string()])
                })
                .collect(),
        ),
        (
            "fig13_throttle_coarse.csv",
            &throttle_header,
            throttle_rows(&out.fig13),
        ),
        (
            "fig14_throttle_fine.csv",
            &throttle_header,
            throttle_rows(&out.fig14),
        ),
        (
            "abl_eager_vs_lazy.csv",
            &["smi_mean_interval_us", "eager_miss_rate", "lazy_miss_rate"],
            out.eager_lazy
                .iter()
                .map(|(smi, e, l)| {
                    vec![
                        smi.map_or_else(|| "none".to_string(), |x| x.to_string()),
                        f(*e),
                        f(*l),
                    ]
                })
                .collect(),
        ),
        (
            "abl_util_limit.csv",
            &["util_limit_pct", "miss_rate"],
            out.knob
                .iter()
                .map(|(l, r)| vec![l.to_string(), f(*r)])
                .collect(),
        ),
    ];
    let committed = host::repo_root().join("results");
    for (name, header, rows) in files {
        let path = dir.join(name);
        write_csv(&path, header, rows);
        let same = same_bytes(&path, &committed.join(name));
        checks.check(same, || {
            format!("regenerated {name} differs from results/{name}")
        });
    }
}

fn same_bytes(a: &Path, b: &Path) -> bool {
    match (std::fs::read(a), std::fs::read(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The representative trial: one throttle point (Figures 13/14), a BSP gang
// on 63 of 64 CPUs — the shape of 95% of the workload's events.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct ThrottleTrial {
    g: Granularity,
    period_ns: Nanos,
    slice_ns: Nanos,
}

/// The sampled throttle points, built as `throttle::run_with_stats` builds
/// its grid.
fn throttle_sample() -> Vec<ThrottleTrial> {
    let (periods, slice_pcts) = throttle::grid(Scale::Paper);
    let mut points = Vec::new();
    for &period in &periods {
        for &pct in &slice_pcts {
            let slice = (period * pct / 100).max(1000);
            if slice * 100 < period * 99 {
                points.push((period, slice));
            }
        }
    }
    [Granularity::Coarse, Granularity::Fine]
        .into_iter()
        .flat_map(|g| {
            points
                .iter()
                .step_by(STRIDE)
                .map(move |&(period_ns, slice_ns)| ThrottleTrial {
                    g,
                    period_ns,
                    slice_ns,
                })
        })
        .collect()
}

/// The library's own run of the sampled trials; returns its results, its
/// events and the host seconds it took.
fn library_sample(trials: &[ThrottleTrial], seed: u64) -> (Vec<(ThrottlePoint, u64)>, f64) {
    let p = throttle::worker_count(Scale::Paper);
    let t = Instant::now();
    let results = trials
        .iter()
        .map(|tr| {
            throttle::measure_instrumented(tr.g, p, tr.period_ns, tr.slice_ns, Scale::Paper, seed)
        })
        .collect();
    (results, t.elapsed().as_secs_f64())
}

/// How the traced trial drives its node.
enum Drive<'a> {
    ToQuiescence,
    /// Re-run to a known end in chunks, sampling the event backlog.
    Sampling {
        end: u64,
        samples: &'a mut Vec<usize>,
    },
}

/// One throttle trial re-built from public pieces, a span around each
/// layer. Returns the point, the events, the stats snapshot and the
/// simulated end time.
fn traced_trial(
    rec: &mut Recorder,
    id: u32,
    tr: ThrottleTrial,
    seed: u64,
    drive: Drive<'_>,
) -> (ThrottlePoint, u64, StatsSnapshot, u64) {
    let p = throttle::worker_count(Scale::Paper);
    let trial = rec.open("bench.trial", None, id);

    let span = rec.open("bench.trial.build", Some(trial), id);
    let params = match tr.g {
        Granularity::Coarse => BspParams::coarse(p, 12),
        Granularity::Fine => BspParams::fine(p, 120),
    }
    .with_mode(BspMode::RtGroup {
        period: tr.period_ns,
        slice: tr.slice_ns,
    });
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(p + 1).with_seed(seed);
    cfg.sched = SchedConfig::throughput();
    cfg.max_threads = cfg.max_threads.max(cfg.machine.n_cpus + p + 1);
    rec.close(span);

    let span = rec.open("core.node.boot", Some(trial), id);
    let mut node = Node::new(cfg);
    rec.close(span);

    let span = rec.open("bench.trial.spawn", Some(trial), id);
    let handles = spawn_bsp(&mut node, params, 1);
    rec.close(span);

    let span = rec.open("core.node.run", Some(trial), id);
    if let Drive::Sampling { end, samples } = drive {
        super::run_sampling_backlog(&mut node, end, BACKLOG_CHUNKS, samples);
    }
    node.run_until_quiescent();
    rec.close(span);

    let span = rec.open("bench.trial.collect", Some(trial), id);
    let r = collect_bsp(&node, &handles);
    let snap = node.stats_snapshot();
    let events = node.machine.events_processed();
    let end = node.machine.now();
    drop(handles);
    drop(node);
    rec.close(span);

    rec.close(trial);
    let point = ThrottlePoint {
        period_ns: tr.period_ns,
        slice_ns: tr.slice_ns,
        utilization: tr.slice_ns as f64 / tr.period_ns as f64,
        time_ns: r.max_ns,
        admitted: r.admitted,
    };
    (point, events, snap, end)
}

fn same_point(a: &ThrottlePoint, b: &ThrottlePoint) -> bool {
    a.period_ns == b.period_ns
        && a.slice_ns == b.slice_ns
        && a.utilization == b.utilization
        && a.time_ns == b.time_ns
        && a.admitted == b.admitted
}

/// Host ns per simulated event of the library's run of the traced sample:
/// what the armed build's traced run asks of its plain sibling. The best of
/// three rounds, the first of which warms a process that has just started.
pub fn sample_ns_per_event(seed: u64) -> f64 {
    let trials = throttle_sample();
    (0..3)
        .map(|_| {
            let (results, secs) = library_sample(&trials, SEED_THROTTLE + seed);
            let events: u64 = results.iter().map(|(_, e)| e).sum();
            secs * 1e9 / events as f64
        })
        .fold(f64::INFINITY, f64::min)
}

impl Workload for Repro {
    /// Input generation (the five sweep grids) plus one fresh boot of the
    /// largest node any section builds: Figure 12's 256-CPU gang node.
    fn setup(&mut self) {
        let grids = (
            missrate::trial_grid(Platform::Phi, Scale::Paper),
            missrate::trial_grid(Platform::R415, Scale::Paper),
            throttle::grid(Scale::Paper),
        );
        std::hint::black_box(&grids);
        let n = 255;
        let machine = MachineConfig::phi()
            .with_cpus(n + 1)
            .with_seed(SEED_FIG12 + self.seed);
        let mut cfg = NodeConfig::phi();
        cfg.max_threads = cfg.max_threads.max(machine.n_cpus + n + 64);
        cfg.machine = machine;
        std::hint::black_box(Node::new(cfg));
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        #[cfg(feature = "trace")]
        let records_before = oracle_totals().0;
        let out = run_sections(&self.hc, self.seed);
        self.passes += 1;
        // Every node of the pass has reset or dropped: its suite flushed.
        #[cfg(feature = "trace")]
        {
            self.pass_records += oracle_totals().0 - records_before;
        }
        let events: u64 = out.sections.iter().map(|s| s.stats.events).sum();
        let trials: usize = out.sections.iter().map(|s| s.stats.trials).sum();
        let ops_wall_s: f64 = out.sections.iter().map(|s| s.stats.wall_secs).sum();
        for s in &out.sections {
            eprintln!(
                "  {:<24} {:>5} trials {:>10} events {:>8.3} s",
                s.name, s.stats.trials, s.stats.events, s.stats.wall_secs
            );
            checks.check(s.stats.threads == 1, || {
                format!("{} ran on {} threads", s.name, s.stats.threads)
            });
        }
        checks.check(trials == PIN_TRIALS, || {
            format!("{trials} trials, not {PIN_TRIALS}")
        });
        check_predicates(&out, checks);
        if self.seed == 0 {
            checks.check(events == PIN_EVENTS, || {
                format!("{events} events at the default seed, not {PIN_EVENTS}")
            });
            check_csvs(&out, checks);
        }
        let unit_us = out
            .sections
            .iter()
            .flat_map(|s| s.stats.trial_wall_secs.iter().map(|w| w * 1e6))
            .collect();
        if self.first_section.is_none() {
            let events = out.sections[0].stats.trial_events.clone();
            self.first_section = Some((out.phi, events));
        }
        Pass {
            wall_s: out.wall_s,
            ops: events,
            ops_wall_s,
            unit_us,
        }
    }

    fn finish(&mut self, checks: &mut Checks) {
        #[cfg(feature = "trace")]
        if self.seed == 0 {
            let records = self.pass_records / self.passes.max(1);
            checks.check(records == PIN_RECORDS, || {
                format!("{records} oracle records per pass at the default seed, not {PIN_RECORDS}")
            });
        }
        let (again, stats) = missrate::sweep_with_stats(
            &self.hc,
            Platform::Phi,
            Scale::Paper,
            SEED_MISSRATE + self.seed,
        );
        if let Some((first, first_events)) = &self.first_section {
            checks.check(
                again == *first && stats.trial_events == *first_events,
                || "a second run of the Figure 6 sweep gave different simulated statistics".into(),
            );
        }
        #[cfg(feature = "trace")]
        if let Some(live) = self.close_hub() {
            // Only the miss-rate sweeps stream per-trial deltas: 255 a
            // pass, and 119 more from the repeat run above.
            let expect = 255 * self.passes + 119;
            checks.check(live.total.trials == expect, || {
                format!(
                    "the stats hub saw {} trials, not {expect}",
                    live.total.trials
                )
            });
            let stream = self.hc.stats_stream.as_deref();
            checks.check(stream.is_some_and(Path::exists), || {
                "the stats hub published no frame file".into()
            });
        }
        // An armed run that got here ended CLEAN: a violated oracle panics,
        // and the run then ends without a result line.
    }

    fn traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks) {
        let seed = SEED_THROTTLE + self.seed;
        let trials = throttle_sample();

        // Two rounds each, alternating, so drift hits both sides alike.
        let (mut lib_s, mut lib_ns_per_event) = (0.0, f64::INFINITY);
        let mut merged = StatsSnapshot::default();
        let mut ends = Vec::new();
        let mut expected = Vec::new();
        for round in 0..2 {
            #[cfg(feature = "trace")]
            let oracle_before = oracle_totals();
            let (results, secs) = library_sample(&trials, seed);
            let lib_events: u64 = results.iter().map(|(_, e)| e).sum();
            lib_s += secs;
            lib_ns_per_event = lib_ns_per_event.min(secs * 1e9 / lib_events as f64);
            // The library dropped each node as its trial ended, so every
            // suite of this round has flushed and none of ours has run.
            #[cfg(feature = "trace")]
            if round == 0 {
                let after = oracle_totals();
                let records = (after.0 - oracle_before.0) as f64;
                layers.set("trace.records_per_event", records / lib_events as f64);
                layers.set(
                    "core.oracle.checks_per_event",
                    (after.1 - oracle_before.1) as f64 / lib_events as f64,
                );
                layers.set("trace.records_per_s", records / secs);
            }
            for (i, (tr, (want, want_events))) in trials.iter().zip(&results).enumerate() {
                let (got, events, snap, end) =
                    traced_trial(rec, i as u32, *tr, seed, Drive::ToQuiescence);
                checks.check(same_point(&got, want) && events == *want_events, || {
                    format!("traced throttle trial {i} differs from throttle::measure_instrumented")
                });
                if round == 0 {
                    merged.merge(&snap);
                    ends.push(end);
                }
            }
            expected = results;
        }

        super::trial_shares(rec, lib_s, layers, checks);
        super::snapshot_counts(&merged, layers);

        // Event backlog, sampled from outside on a deterministic re-run.
        let mut scratch = Recorder::new();
        let mut samples = Vec::new();
        let every = (trials.len() / BACKLOG_TRIALS).max(1);
        for (i, tr) in trials.iter().enumerate().step_by(every) {
            let drive = Drive::Sampling {
                end: ends[i],
                samples: &mut samples,
            };
            let (got, events, _, _) = traced_trial(&mut scratch, i as u32, *tr, seed, drive);
            checks.check(
                same_point(&got, &expected[i].0) && events == expected[i].1,
                || format!("backlog-sampled throttle trial {i} differs from the library's"),
            );
        }
        super::backlog_stats(&mut samples, layers);

        #[cfg(feature = "trace")]
        {
            match plain_sibling_ns_per_event(self.seed) {
                Ok(plain) => layers.set("trace.overhead_ns_per_event", lib_ns_per_event - plain),
                Err(e) => checks.check(false, || format!("plain sibling run: {e}")),
            }
            self.close_hub();
        }
    }
}

/// Ask the plain build, which sits beside this executable, for its host
/// ns per event on the identical sample.
#[cfg(feature = "trace")]
fn plain_sibling_ns_per_event(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let plain = exe.with_file_name("nautix-benchmark");
    let out = std::process::Command::new(&plain)
        .args(["--sample-rate", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("{plain:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{plain:?} exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("{plain:?} printed no rate: {e}"))
}

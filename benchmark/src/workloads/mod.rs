//! The five workloads and what one run of each produces.
//!
//! Every workload is a fixed amount of work (a *pass*) made from the run's
//! seed, driven single-threaded through the product's public functions.
//! An untraced run measures set-up several times, then whole passes until
//! the time budget is used, and reports medians; a traced run records
//! spans around the calls into each layer and reads the public counters.

mod cluster;
mod repro;
mod small;
mod storm;

use crate::metrics::{self, median};
use crate::trace::Recorder;
use nautix_rt::HarnessConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Correctness checks of one run: the `attempted` / `failed` of the
/// result line. A failed check never aborts the run; it is reported.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one pass measured.
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Simulated events (DES workloads) or placement decisions.
    pub ops: u64,
    /// Host seconds the ops took (the instrumented part of the pass).
    pub ops_wall_s: f64,
    /// Host time of every unit (trial or decision), µs, unsorted.
    pub unit_us: Vec<f64>,
}

/// Per-layer metric values of a traced run, by registered name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::PER_LAYER.iter().any(|m| m.name == name),
            "unregistered per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every registered per-layer metric in registry order, as the result
    /// line carries them: a metric measured on another workload reads 0.
    /// One this workload should have measured and did not, or measured as
    /// NaN or infinite, is a failed check (and reads 0: the line is JSON).
    pub fn complete(&self, workload: &str, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        metrics::PER_LAYER
            .iter()
            .map(|m| {
                let value = self.0.get(m.name).copied();
                if m.on.contains(&workload) {
                    checks.check(value.is_some_and(f64::is_finite), || {
                        format!("{} measured as {value:?} on {workload}", m.name)
                    });
                } else {
                    assert!(value.is_none(), "{} is not {workload}'s to measure", m.name);
                }
                (m.name, value.filter(|v| v.is_finite()).unwrap_or(0.0))
            })
            .collect()
    }
}

pub trait Workload {
    /// One set-up repetition: generate the inputs and boot the workload's
    /// largest node shape fresh (the fleet, up to its first decision, for
    /// `cluster_churn`).
    fn setup(&mut self);

    /// One fixed-size pass, with its correctness checks.
    fn pass(&mut self, checks: &mut Checks) -> Pass;

    /// Run the workload's first section a second time in this process and
    /// check that every simulated statistic repeats; then any end-of-run
    /// checks.
    fn finish(&mut self, checks: &mut Checks);

    /// The traced run: representative trials re-built from public pieces
    /// with a span at each layer boundary, checked against the library's
    /// own result, plus the exact counts read from public counters.
    fn traced(&mut self, rec: &mut Recorder, layers: &mut Layers, checks: &mut Checks);
}

/// Host ns per simulated event of the library's run of the repro traced
/// sample (what the armed build asks its plain sibling for).
pub fn repro_sample_ns_per_event(seed: u64) -> f64 {
    repro::sample_ns_per_event(seed)
}

/// Single-threaded, everything else off: every library call gets this
/// explicitly, so nothing depends on the ambient environment.
pub fn serial_config() -> HarnessConfig {
    HarnessConfig {
        threads: 1,
        ..HarnessConfig::serial()
    }
}

/// Build a workload by name. `armed_repro` exists only in the build with
/// the `trace` feature, and that build runs nothing else.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let armed_build = cfg!(feature = "trace");
    match (name, armed_build) {
        ("paper_repro", false) | ("armed_repro", true) => Ok(Box::new(repro::Repro::new(seed))),
        ("small_trials", false) => Ok(Box::new(small::SmallTrials::new(seed))),
        ("storm_1024", false) => Ok(Box::new(storm::Storm::new(seed))),
        ("cluster_churn", false) => Ok(Box::new(cluster::ClusterChurn::new(seed))),
        ("armed_repro", false) => Err(
            "armed_repro needs the build with the `trace` feature (nautix-benchmark-armed)".into(),
        ),
        (w, true) if metrics::WORKLOADS.iter().any(|i| i.name == w) => Err(format!(
            "{w} is measured with the plain build (nautix-benchmark)"
        )),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}

/// The end-to-end metrics of one untraced run.
pub struct EndToEndRun {
    pub values: Vec<(&'static str, f64)>,
    pub passes: usize,
    pub setups: usize,
    pub checks: Checks,
}

/// Set-up is repeated for this long (and at least `MIN_SETUPS` times) and
/// the median reported. A 2-CPU boot takes 40 µs, and a process's first
/// milliseconds run on cold caches and unfaulted heap pages at whatever
/// clock the core happens to have: with a budget of repetitions instead
/// of time, the median was 37 µs or 95 µs depending on how the process
/// had been started.
const SETUP_BUDGET_S: f64 = 0.3;
const MIN_SETUPS: usize = 5;

pub fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> Result<EndToEndRun, String> {
    let mut w = build(name, seed)?;
    let mut checks = Checks::default();

    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        w.setup();
        setups.push(t.elapsed().as_secs_f64());
    }

    // Whole passes only: the input size is fixed, the budget decides how
    // many medians are taken over. One pass always runs. Each pass is
    // reduced to (wall_s, ops_per_s, unit p50) as it ends.
    let mut passes: Vec<[f64; 3]> = Vec::new();
    let started = Instant::now();
    loop {
        let pass = w.pass(&mut checks);
        passes.push([
            pass.wall_s,
            pass.ops as f64 / pass.ops_wall_s,
            median(&pass.unit_us),
        ]);
        if started.elapsed().as_secs_f64() + pass.wall_s > seconds {
            break;
        }
    }
    w.finish(&mut checks);

    let over_passes = |i: usize| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>());
    let values = vec![
        ("setup_s", median(&setups)),
        ("wall_s", over_passes(0)),
        ("ops_per_s", over_passes(1)),
        ("unit_p50_us", over_passes(2)),
    ];
    debug_assert!(values
        .iter()
        .map(|(n, _)| *n)
        .eq(metrics::END_TO_END.iter().map(|m| m.name)));
    Ok(EndToEndRun {
        values,
        passes: passes.len(),
        setups: setups.len(),
        checks,
    })
}

/// The per-layer metrics of one traced run.
pub struct TracedRun {
    pub values: Vec<(&'static str, f64)>,
    pub spans: usize,
    pub checks: Checks,
}

/// Where `workload`'s traced run writes its spans.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    crate::host::out_dir().join(format!("trace.{workload}.json"))
}

pub fn run_traced(name: &str, seed: u64) -> Result<TracedRun, String> {
    let mut w = build(name, seed)?;
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    crate::layers::direct_drive(name, &mut layers);
    let mut rec = Recorder::new();
    w.traced(&mut rec, &mut layers, &mut checks);
    layers.set("peak_rss_mb", crate::host::peak_rss_mb());
    let values = layers.complete(name, &mut checks);
    let path = trace_path(name);
    std::fs::write(&path, rec.to_json(name, &layers.0).to_pretty())
        .map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(TracedRun {
        values,
        spans: rec.len(),
        checks,
    })
}

/// Self-time share of each of a trial's five parts, checked to cover the
/// trial, and the traced trials' host time against `library_s`, the
/// library's own run of the same trials: shared by the three DES-style
/// traced runs.
pub fn trial_shares(rec: &Recorder, library_s: f64, layers: &mut Layers, checks: &mut Checks) {
    const PARTS: [(&str, &str); 5] = [
        ("bench.trial.build", "bench.trial.build_share"),
        ("core.node.boot", "core.node.boot_share"),
        ("bench.trial.spawn", "bench.trial.spawn_share"),
        ("core.node.run", "core.node.run_share"),
        ("bench.trial.collect", "bench.trial.collect_share"),
    ];
    let own = rec.self_ns();
    let whole = rec.total_ns().get("bench.trial").copied().unwrap_or(0) as f64;
    let mut sum = 0.0;
    for (span, metric) in PARTS {
        let share = own.get(span).copied().unwrap_or(0) as f64 / whole.max(1.0);
        sum += share;
        layers.set(metric, share);
    }
    checks.check((sum - 1.0).abs() <= 0.01, || {
        format!("trial span shares sum to {sum:.4}, not 1 +- 0.01")
    });
    layers.set(
        "bench.trace.overhead_pct",
        (whole / 1e9 - library_s) / library_s * 100.0,
    );
}

/// Exact per-kevent counts from a merged stats snapshot of the traced
/// trials.
pub fn snapshot_counts(snap: &nautix_stats::StatsSnapshot, layers: &mut Layers) {
    let per_kevent = |n: u64| n as f64 * 1000.0 / snap.events.max(1) as f64;
    layers.set(
        "core.local.invocations_per_kevent",
        per_kevent(snap.invocations),
    );
    layers.set("core.local.switches_per_kevent", per_kevent(snap.switches));
    layers.set(
        "hw.timer.programmings_per_kevent",
        per_kevent(snap.timer_programmings),
    );
    layers.set("hw.apic.ipis_per_kevent", per_kevent(snap.ipis));
    layers.set("core.steal.steals_per_kevent", per_kevent(snap.steals));
    layers.set(
        "bench.harness.events_per_trial",
        snap.events as f64 / snap.trials.max(1) as f64,
    );
}

/// Median and maximum of event-backlog samples.
pub fn backlog_stats(samples: &mut [usize], layers: &mut Layers) {
    if samples.is_empty() {
        return;
    }
    samples.sort_unstable();
    layers.set("des.queue.backlog_p50", samples[samples.len() / 2] as f64);
    layers.set("des.queue.backlog_max", samples[samples.len() - 1] as f64);
}

/// Drive `node` to `end` cycles in `chunks` equal steps of simulated time,
/// sampling the event backlog after each: the same events as one
/// uninterrupted run, observed from outside.
pub fn run_sampling_backlog(
    node: &mut nautix_rt::Node,
    end: nautix_des::Cycles,
    chunks: u64,
    samples: &mut Vec<usize>,
) {
    let start = node.machine.now();
    for i in 1..=chunks {
        node.run_until_cycles(start + (end - start) * i / chunks);
        samples.push(node.machine.event_backlog());
    }
}

//! Run the experiment table (`nautix_bench::experiments::TABLE`): every
//! figure reproduction, the §1 isolation experiment, every ablation and
//! the four sweeps beyond the paper (`ext_*`), each writing its CSV under
//! `results/` (override with `NAUTIX_RESULTS`), then print the
//! paper-vs-measured summary and write it beside them as
//! `paper_vs_measured.txt`.
//!
//! `repro_all [--paper] [name…]`: `--paper` selects the paper-scale sweeps
//! (half a minute; the default quick scale takes about a second), and
//! naming table entries runs only those. An unknown flag or name exits 2
//! before anything runs; a result that breaks a claim its entry checks
//! (`Run::failed`) exits 1 after everything has run and been written.
//!
//! Two extra modes:
//!
//! * `repro_all --replay <file>` re-runs one recorded trial from a
//!   `.replay` scenario file (see `nautix_bench::scenario`) and prints
//!   its full stats snapshot and event count, then exits.
//! * `NAUTIX_STATS_STREAM=<path>` streams live cumulative stats frames
//!   to `<path>` while the sweeps run; watch them with
//!   `nautix-top <path>`.

use nautix_bench::{experiments, out_dir, set_stats_stream, Scenario};
use nautix_rt::HarnessConfig;
use nautix_stats::{HubOptions, StatsHub};

/// `--replay <file>`: re-run one recorded trial and print its snapshot.
/// Exits 0 on a clean replay, 2 on a file that cannot be read, does not
/// parse, or describes a node that cannot boot (an armed oracle flagging
/// the replayed trial panics, as it did when recorded — that is the
/// expected way to reproduce a flagged anomaly).
fn run_replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("replay: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let parsed = Scenario::from_replay_string(&text).and_then(Scenario::check_bootable);
    let sc = parsed.unwrap_or_else(|e| {
        eprintln!("replay: {path}: {e}");
        std::process::exit(2);
    });
    println!("replaying `{}` from {path}", sc.name);
    let out = sc.run_fresh();
    print!("{}", out.snapshot.to_text());
    println!("headline: {}", out.snapshot.headline());
    println!("events: {}", out.events);
    std::process::exit(0);
}

/// Start the live-stats hub when the harness config carries a stream
/// path (`NAUTIX_STATS_STREAM`) and install its sender as the process
/// stats stream.
fn start_stats_stream(hc: &HarnessConfig) -> Option<StatsHub> {
    let path = hc.stats_stream.clone()?;
    // Oracle tallies are process-global (nodes flush on drop), so they are
    // overlaid on published frames rather than summed from trial deltas.
    let sampler: nautix_stats::Sampler = Box::new(|s: &mut nautix_stats::StatsSnapshot| {
        let (suites, o) = nautix_rt::oracle::global_stats();
        s.oracle_suites = suites;
        s.oracle_records = o.records;
        s.oracle_checks = o.edf_checks
            + o.miss_checks
            + o.task_checks
            + o.timer_checks
            + o.fire_order_checks
            + o.cache_checks;
        s.oracle_env_misses = o.environment_misses;
        s.oracle_divergences = o.divergences;
    });
    let opts = HubOptions {
        stream_path: Some(path.clone()),
        sampler: Some(sampler),
        ..HubOptions::default()
    };
    let hub = StatsHub::start(opts);
    set_stats_stream(Some(hub.tx()));
    println!(
        "streaming live stats to {path:?} (watch with `nautix-top {}`)\n",
        path.display()
    );
    Some(hub)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        match args.get(i + 1) {
            Some(path) => run_replay(path),
            None => {
                eprintln!("usage: repro_all --replay <file>");
                std::process::exit(2);
            }
        }
    }
    let (scale, entries) = experiments::parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: repro_all [--paper] [name…] | --replay <file>");
        std::process::exit(2);
    });
    let hc = HarnessConfig::from_env();
    let hub = start_stats_stream(&hc);
    println!(
        "scale: {scale:?} (pass --paper for the full configuration); \
         {} worker threads (set NAUTIX_THREADS to override)\n",
        hc.threads
    );
    if hc.oracles {
        println!(
            "NAUTIX_ORACLES=1: online invariant oracles armed on every node \
             (EDF dispatch, admission soundness and verdicts, RT isolation, \
             tickless one-shot); any violation aborts the run\n"
        );
    }
    let t0 = std::time::Instant::now();
    let out = out_dir();
    let run = experiments::run(&hc, scale, &out, &entries);

    println!("\n==== paper vs measured ====");
    print!("{}", run.summary_text());
    println!();
    for (name, st) in run.report.sections() {
        println!("{name}: {st}");
    }
    let (trials, wall, events) = run.report.totals();
    println!(
        "harness: {} trials on {} threads, {:.2}s wall in instrumented sections, \
         {} simulated events ({:.0} events/s)",
        trials,
        hc.threads,
        wall,
        events,
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    );
    if hc.oracles {
        let (suites, o) = nautix_rt::oracle::global_stats();
        println!(
            "\noracles: CLEAN over {} node lifetimes — {} records consumed; \
             checks: {} EDF dispatch, {} timer one-shot, {} fire-order, \
             {} inline task, {} admission-verdict, {} admitted-miss \
             ({} environment-attributed, {} policy divergences)",
            suites,
            o.records,
            o.edf_checks,
            o.timer_checks,
            o.fire_order_checks,
            o.task_checks,
            o.cache_checks,
            o.miss_checks,
            o.environment_misses,
            o.divergences,
        );
        if o.fault_records.iter().any(|&n| n > 0) {
            for lane in nautix_trace::FaultLane::all() {
                println!(
                    "  fault lane {:>14}: {} injected, {} misses attributed",
                    lane.name(),
                    o.fault_records[lane.idx()],
                    o.env_miss_by_lane[lane.idx()],
                );
            }
        }
    }
    let degrade = nautix_rt::degrade_global_stats();
    if degrade.total() > 0 {
        println!(
            "\ndegradation: {} sporadic demotions, {} periodic widenings, \
             {} periodic demotions",
            degrade.sporadic_demotions, degrade.periodic_widenings, degrade.periodic_demotions,
        );
    }
    let admission = nautix_rt::admission_global_stats();
    if admission.total() > 0 {
        println!(
            "\nadmission engine: {} sim-memo hits, {} misses, {} rollbacks",
            admission.sim_hits, admission.sim_misses, admission.rollbacks,
        );
    }
    if let Some(hub) = hub {
        // Drop the installed sender so the collector can drain and stop.
        set_stats_stream(None);
        let live = hub.finish();
        println!(
            "\nlive stats: {} trials streamed over {} frames; final {}",
            live.total.trials,
            live.series.len(),
            live.total.headline()
        );
    }
    println!(
        "\nall CSVs and {} under {out:?}; elapsed {:.1}s",
        experiments::SUMMARY_FILE,
        t0.elapsed().as_secs_f64()
    );
    for (what, detail) in &run.failed {
        eprintln!("FAIL: {what}: {detail}");
    }
    if run.exit_status() != 0 {
        std::process::exit(1);
    }
}

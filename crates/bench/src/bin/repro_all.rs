//! Run every figure reproduction and every ablation in sequence,
//! writing all CSVs under `results/` and printing a compact
//! paper-vs-measured summary at the end. Pass `--paper` for the full
//! paper-scale sweeps (minutes); the default quick scale finishes fast.
//!
//! Two extra modes:
//!
//! * `repro_all --replay <file>` re-runs one recorded trial from a
//!   `.replay` scenario file (see `nautix_bench::scenario`) and prints
//!   its full stats snapshot and event count, then exits.
//! * `NAUTIX_STATS_STREAM=<path>` streams live cumulative stats frames
//!   to `<path>` while the sweeps run; watch them with
//!   `nautix-top <path>`.

use nautix_bench::throttle::Granularity;
use nautix_bench::{
    ablations, banner, barrier_removal, f, fig03, fig04, fig05, fig10, groupsync, missrate,
    out_dir, set_stats_stream, throttle, write_csv, BenchReport, Scale, Scenario,
};
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;
use nautix_stats::{HubOptions, StatsHub};

/// `--replay <file>`: re-run one recorded trial and print its snapshot.
/// Exits 0 on a clean replay, 2 on any read/parse error (an armed
/// oracle flagging the replayed trial panics, as it did when recorded —
/// that is the expected way to reproduce a flagged anomaly).
fn run_replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("replay: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let sc = Scenario::from_replay_string(&text).unwrap_or_else(|e| {
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
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        match args.get(i + 1) {
            Some(path) => run_replay(path),
            None => {
                eprintln!("usage: repro_all --replay <file>");
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::from_args();
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
             (EDF dispatch, admission soundness, RT isolation, tickless \
             one-shot); any violation aborts the run\n"
        );
    }
    let mut summary: Vec<(String, String, String)> = Vec::new();
    let mut report = BenchReport::new();
    let t0 = std::time::Instant::now();

    banner("Figure 3");
    let r3 = fig03::run(scale, 42);
    write_csv(
        &out_dir().join("fig03_timesync.csv"),
        &["offset_cycles", "count"],
        r3.bins.iter().map(|b| vec![b.edge, b.count]),
    );
    summary.push((
        "Fig 3: TSC sync envelope".into(),
        "all CPUs within 1000 cycles".into(),
        format!("max {} cycles, {} over 1000", r3.summary.max, r3.over_1000),
    ));

    banner("Figure 4");
    let r4 = fig04::run(scale, 3);
    write_csv(
        &out_dir().join("fig04_scope.csv"),
        &[
            "trace",
            "pulses",
            "width_mean",
            "width_std",
            "period_mean",
            "period_std",
            "duty",
        ],
        [
            ("thread", &r4.thread),
            ("scheduler", &r4.scheduler),
            ("interrupt", &r4.interrupt),
        ]
        .iter()
        .map(|(n, a)| {
            vec![
                n.to_string(),
                a.pulses.to_string(),
                f(a.high_widths.mean),
                f(a.high_widths.std_dev),
                f(a.periods.mean),
                f(a.periods.std_dev),
                f(a.duty_cycle),
            ]
        }),
    );
    summary.push((
        "Fig 4: thread trace sharpness".into(),
        "thread sharp, scheduler/IRQ fuzzy; duty slightly >50%".into(),
        format!(
            "thread period jitter {} cyc, IRQ width jitter {} cyc, duty {}",
            f(r4.thread.periods.std_dev),
            f(r4.interrupt.high_widths.std_dev),
            f(r4.thread.duty_cycle)
        ),
    ));

    banner("Figure 5");
    let r5 = fig05::run(scale, 17);
    write_csv(
        &out_dir().join("fig05_overheads.csv"),
        &["platform", "component", "mean", "std", "min", "max"],
        [&r5.phi, &r5.r415].iter().flat_map(|p| {
            [
                ("IRQ", p.breakdown.irq),
                ("Other", p.breakdown.other),
                ("Resched", p.breakdown.resched),
                ("Switch", p.breakdown.switch),
            ]
            .map(|(name, su)| {
                vec![
                    format!("{:?}", p.platform),
                    name.to_string(),
                    f(su.mean),
                    f(su.std_dev),
                    su.min.to_string(),
                    su.max.to_string(),
                ]
            })
        }),
    );
    summary.push((
        "Fig 5: Phi overhead".into(),
        "~6000 cycles, pass about half".into(),
        format!(
            "{} cycles, pass {}",
            f(r5.phi.mean_total()),
            f(r5.phi.breakdown.resched.mean / r5.phi.mean_total())
        ),
    ));

    for (figa, figb, platform, edge) in [
        ("Fig 6", "Fig 8", Platform::Phi, "10 µs"),
        ("Fig 7", "Fig 9", Platform::R415, "4 µs"),
    ] {
        banner(&format!("{figa} / {figb}"));
        let (pts, stats) = missrate::sweep_with_stats(&hc, platform, scale, 5);
        report.add(
            if platform == Platform::Phi {
                "fig06_08_missrate_phi"
            } else {
                "fig07_09_missrate_r415"
            },
            stats,
        );
        let name = format!(
            "fig{}_missrate_{}.csv",
            if platform == Platform::Phi {
                "06"
            } else {
                "07"
            },
            if platform == Platform::Phi {
                "phi"
            } else {
                "r415"
            }
        );
        write_csv(
            &out_dir().join(&name),
            &[
                "period_us",
                "slice_pct",
                "miss_rate",
                "miss_mean_ns",
                "miss_std_ns",
            ],
            pts.iter().map(|p| {
                vec![
                    p.period_us.to_string(),
                    p.slice_pct.to_string(),
                    f(p.miss_rate),
                    f(p.miss_mean_ns),
                    f(p.miss_std_ns),
                ]
            }),
        );
        let feasible_zero = pts
            .iter()
            .filter(|p| p.period_us >= 100 && p.slice_pct <= 70)
            .all(|p| p.miss_rate == 0.0);
        // The edge period: the smallest period in each platform's sweep.
        let edge_period = if platform == Platform::Phi { 10 } else { 4 };
        let edge_missy = pts
            .iter()
            .filter(|p| p.period_us == edge_period && p.slice_pct >= 50)
            .all(|p| p.miss_rate > 0.5);
        summary.push((
            format!("{figa}: feasibility edge ({platform:?})"),
            format!("zero misses when feasible; edge near {edge}"),
            format!(
                "coarse feasible zero-miss: {feasible_zero}; \
                 {edge_period}µs fat slices missy: {edge_missy}"
            ),
        ));
        let worst_miss_time = pts.iter().map(|p| p.miss_mean_ns).fold(0.0f64, f64::max);
        summary.push((
            format!("{figb}: miss magnitudes ({platform:?})"),
            "small (µs-scale) even when infeasible".into(),
            format!("worst mean lateness {} µs", f(worst_miss_time / 1000.0)),
        ));
    }

    banner("Figure 10");
    let r10 = fig10::run(scale, 9);
    write_csv(
        &out_dir().join("fig10_group_admission.csv"),
        &["n", "step", "min_cycles", "avg_cycles", "max_cycles"],
        r10.iter().flat_map(|r| {
            [
                ("join", r.join),
                ("election", r.election),
                ("admission", r.admission),
                ("local_admission", r.local),
                ("barrier_phase", r.barrier_phase),
                ("total", r.total),
            ]
            .map(|(step, su)| {
                vec![
                    r.n.to_string(),
                    step.to_string(),
                    su.min.to_string(),
                    f(su.mean),
                    su.max.to_string(),
                ]
            })
        }),
    );
    let last = r10.last().unwrap();
    summary.push((
        "Fig 10: group admission growth".into(),
        "linear in n; ~8M cycles at 255".into(),
        format!(
            "total mean {:.2}M cycles at n={}",
            last.total.mean / 1e6,
            last.n
        ),
    ));

    banner("Figure 11");
    let r11 = groupsync::fig11(scale, 21);
    write_csv(
        &out_dir().join("fig11_group_sync8.csv"),
        &["invocation", "spread_cycles"],
        r11.spreads
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![i as u64, v]),
    );
    summary.push((
        "Fig 11: 8-thread sync".into(),
        "within a few 1000s of cycles".into(),
        format!("mean {} max {}", f(r11.summary.mean), r11.summary.max),
    ));

    banner("Figure 12");
    let (r12, stats12) = groupsync::fig12_with_stats(&hc, scale, 21);
    report.add("fig12_group_sync_scale", stats12);
    write_csv(
        &out_dir().join("fig12_group_sync_scale.csv"),
        &["n", "invocation", "spread_cycles"],
        r12.iter().flat_map(|s| {
            s.spreads
                .iter()
                .enumerate()
                .map(|(i, &v)| vec![s.n as u64, i as u64, v])
                .collect::<Vec<_>>()
        }),
    );
    let big = r12.last().unwrap();
    let small = r12.first().unwrap();
    summary.push((
        "Fig 12: sync vs group size".into(),
        "bias grows with n; variation does not".into(),
        format!(
            "bias {} -> {} cycles; std {} -> {}",
            f(small.summary.mean),
            f(big.summary.mean),
            f(small.summary.std_dev),
            f(big.summary.std_dev)
        ),
    ));

    banner("Figure 13");
    let (r13, stats13) = throttle::run_with_stats(&hc, Granularity::Coarse, scale, 3);
    report.add("fig13_throttle_coarse", stats13);
    let (_, cv13) = throttle::control_quality(&r13);
    banner("Figure 14");
    let (r14, stats14) = throttle::run_with_stats(&hc, Granularity::Fine, scale, 3);
    report.add("fig14_throttle_fine", stats14);
    let (_, cv14) = throttle::control_quality(&r14);
    for (name, pts) in [
        ("fig13_throttle_coarse.csv", &r13),
        ("fig14_throttle_fine.csv", &r14),
    ] {
        write_csv(
            &out_dir().join(name),
            &[
                "period_ns",
                "slice_ns",
                "utilization",
                "time_ns",
                "admitted",
            ],
            pts.iter().map(|p| {
                vec![
                    p.period_ns.to_string(),
                    p.slice_ns.to_string(),
                    f(p.utilization),
                    p.time_ns.to_string(),
                    p.admitted.to_string(),
                ]
            }),
        );
    }
    summary.push((
        "Fig 13/14: throttling".into(),
        "commensurate; fine grain varies more".into(),
        format!("time x util cv: coarse {} fine {}", f(cv13), f(cv14)),
    ));

    banner("Figure 15");
    let r15 = barrier_removal::run(Granularity::Coarse, scale, 7);
    banner("Figure 16");
    let r16 = barrier_removal::run(Granularity::Fine, scale, 7);
    for (name, r) in [
        ("fig15_barrier_coarse.csv", &r15),
        ("fig16_barrier_fine.csv", &r16),
    ] {
        write_csv(
            &out_dir().join(name),
            &[
                "period_ns",
                "slice_ns",
                "with_barrier_ns",
                "without_barrier_ns",
                "speedup",
                "violations",
            ],
            r.points.iter().map(|p| {
                vec![
                    p.period_ns.to_string(),
                    p.slice_ns.to_string(),
                    p.with_barrier_ns.to_string(),
                    p.without_barrier_ns.to_string(),
                    f(p.speedup()),
                    p.violations.to_string(),
                ]
            }),
        );
    }
    let mean_speedup = |r: &barrier_removal::Removal| {
        r.points.iter().map(|p| p.speedup()).sum::<f64>() / r.points.len().max(1) as f64
    };
    summary.push((
        "Fig 15/16: barrier removal".into(),
        "small win coarse; 20-300% fine; fine RT beats aperiodic".into(),
        format!(
            "mean speedup coarse {} fine {}; fine beats aperiodic: {}",
            f(mean_speedup(&r15)),
            f(mean_speedup(&r16)),
            r16.points
                .iter()
                .any(|p| p.without_barrier_ns < r16.aperiodic_ns)
        ),
    ));

    banner("Isolation");
    let iso_rt = nautix_bench::isolation::measure(true, 8, 40, 131);
    let iso_be = nautix_bench::isolation::measure(false, 8, 40, 131);
    summary.push((
        "Isolation: time-shared gangs (§1)".into(),
        "RT gang unaffected by co-resident gang".into(),
        format!(
            "interference: hard-rt {}x (misses {}), best-effort {}x",
            f(iso_rt.interference),
            iso_rt.misses,
            f(iso_be.interference)
        ),
    ));

    banner("Ablations");
    let (el, stats_el) = ablations::eager_vs_lazy_with_stats(&hc, 31);
    report.add("abl_eager_vs_lazy", stats_el);
    let (_, e_hot, l_hot) = el[el.len() - 1];
    summary.push((
        "Ablation: eager vs lazy under SMI".into(),
        "eager absorbs missing time".into(),
        format!("miss rates: eager {} lazy {}", f(e_hot), f(l_hot)),
    ));
    let (knob, stats_knob) = ablations::util_limit_knob_with_stats(&hc, 31);
    report.add("abl_util_limit", stats_knob);
    summary.push((
        "Ablation: utilization-limit knob".into(),
        "lower limit, fewer SMI-induced misses".into(),
        format!(
            "99% -> {}; 70% -> {}",
            f(knob[0].1),
            f(knob.last().unwrap().1)
        ),
    ));

    println!("\n==== paper vs measured ====");
    for (what, paper, measured) in &summary {
        println!("{what}\n  paper:    {paper}\n  measured: {measured}");
    }
    let (trials, wall, events) = report.totals();
    println!(
        "\nharness: {} trials on {} threads, {:.2}s wall in instrumented sections, \
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
             {} inline task, {} admitted-miss ({} environment-attributed, \
             {} policy divergences)",
            suites,
            o.records,
            o.edf_checks,
            o.timer_checks,
            o.fire_order_checks,
            o.task_checks,
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
    let bench_path = std::path::Path::new("BENCH_repro.json");
    report.write(bench_path);
    println!("wrote {bench_path:?}");
    println!(
        "\nall CSVs under {:?}; elapsed {:.1}s",
        out_dir(),
        t0.elapsed().as_secs_f64()
    );
}

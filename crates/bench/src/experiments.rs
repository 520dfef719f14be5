//! The experiment table: every paper experiment and every sweep beyond
//! the paper (`ext_*`) as one entry, run by `repro_all`.
//!
//! An [`Experiment`] runs once through the library functions of its
//! module, writes its CSV file(s) in the schema committed under
//! `results/`, and pushes its paper-vs-measured row(s) — and, for the
//! paper's harness-instrumented sweeps, its [`crate::HarnessStats`]
//! section(s) — onto the [`Run`] it is handed; an entry whose result makes
//! a deterministic claim also pushes every cell that breaks it onto
//! [`Run::failed`]. [`TABLE`] is the only writer of the files under
//! `results/`, so a CSV's schema and an experiment's parameters are each
//! stated once. [`run`] executes a selection and writes the rows, which
//! are a pure function of the code, to [`SUMMARY_FILE`].

use crate::harness::BenchReport;
use crate::throttle::Granularity;
use crate::{
    ablations, banner, barrier_removal, cluster_bench, f, fault_sweep, fig03, fig04, fig05, fig10,
    groupsync, isolation, layers, missrate, throttle, topology, write_csv, Scale,
};
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;
use std::fmt::{Display, Write as _};
use std::path::Path;

/// The generated paper-vs-measured table, written beside the CSVs.
pub const SUMMARY_FILE: &str = "paper_vs_measured.txt";

/// One row of [`TABLE`].
#[derive(Debug)]
pub struct Experiment {
    /// What `repro_all <name>` selects: the CSV stem, or for a row drawn
    /// from two figures, their common stem.
    pub name: &'static str,
    /// Console banner.
    pub title: &'static str,
    /// The files the entry writes, all of them.
    pub csvs: &'static [&'static str],
    /// Run the experiment once.
    pub run: fn(&mut Run<'_>),
}

/// What a selection of experiments runs against and accumulates into.
pub struct Run<'a> {
    /// Harness configuration for the instrumented sweeps.
    pub hc: &'a HarnessConfig,
    /// Quick or paper scale.
    pub scale: Scale,
    /// Output directory; it exists.
    pub out: &'a Path,
    /// Paper-vs-measured rows so far: `(what, paper, measured)`.
    pub summary: Vec<(String, String, String)>,
    /// Instrumented sections of the paper reproduction so far.
    pub report: BenchReport,
    /// Checks that failed so far: `(what, detail)`. A result that breaks
    /// a claim the code makes about it is a wrong result.
    pub failed: Vec<(String, String)>,
}

impl Run<'_> {
    fn csv<R, C>(&self, name: &str, header: &[&str], rows: R)
    where
        R: IntoIterator<Item = Vec<C>>,
        C: Display,
    {
        write_csv(&self.out.join(name), header, rows);
    }

    fn row(&mut self, what: impl Into<String>, paper: impl Into<String>, measured: String) {
        self.summary.push((what.into(), paper.into(), measured));
    }

    /// Record `what` as failed unless `holds`.
    fn check(&mut self, holds: bool, what: &str, detail: String) {
        if !holds {
            self.failed.push((what.to_string(), detail));
        }
    }

    /// `repro_all`'s exit status after the run: 1 when a check failed.
    pub fn exit_status(&self) -> i32 {
        i32::from(!self.failed.is_empty())
    }

    /// The rows as `repro_all` prints them and [`SUMMARY_FILE`] holds them.
    pub fn summary_text(&self) -> String {
        let mut s = String::new();
        for (what, paper, measured) in &self.summary {
            let _ = writeln!(s, "{what}\n  paper:    {paper}\n  measured: {measured}");
        }
        s
    }
}

/// Every experiment, in the order `repro_all` runs and reports them: the
/// paper's, then the sweeps beyond it.
pub static TABLE: [Experiment; 23] = [
    Experiment {
        name: "fig03_timesync",
        title: "Figure 3: TSC synchronization across CPUs (Phi)",
        csvs: &["fig03_timesync.csv"],
        run: fig03_timesync,
    },
    Experiment {
        name: "fig04_scope",
        title: "Figure 4: external scope traces (τ=100µs σ=50µs, Phi)",
        csvs: &["fig04_scope.csv"],
        run: fig04_scope,
    },
    Experiment {
        name: "fig05_overheads",
        title: "Figure 5: scheduler overhead breakdown (cycles)",
        csvs: &["fig05_overheads.csv"],
        run: fig05_overheads,
    },
    Experiment {
        name: "fig06_missrate_phi",
        title: "Figures 6 / 8: miss rate and miss times vs period/slice (Phi)",
        csvs: &["fig06_missrate_phi.csv"],
        run: fig06_missrate_phi,
    },
    Experiment {
        name: "fig07_missrate_r415",
        title: "Figures 7 / 9: miss rate and miss times vs period/slice (R415)",
        csvs: &["fig07_missrate_r415.csv"],
        run: fig07_missrate_r415,
    },
    Experiment {
        name: "fig10_group_admission",
        title: "Figure 10: group admission cost breakdown (cycles)",
        csvs: &["fig10_group_admission.csv"],
        run: fig10_group_admission,
    },
    Experiment {
        name: "fig11_group_sync8",
        title: "Figure 11: 8-thread group dispatch spread (cycles, phase correction off)",
        csvs: &["fig11_group_sync8.csv"],
        run: fig11_group_sync8,
    },
    Experiment {
        name: "fig12_group_sync_scale",
        title: "Figure 12: group dispatch spread by size (cycles, phase correction off)",
        csvs: &["fig12_group_sync_scale.csv"],
        run: fig12_group_sync_scale,
    },
    Experiment {
        name: "fig13_14_throttle",
        title: "Figures 13 / 14: throttling, coarse and fine granularity (BSP gang)",
        csvs: &["fig13_throttle_coarse.csv", "fig14_throttle_fine.csv"],
        run: fig13_14_throttle,
    },
    Experiment {
        name: "fig15_16_barrier",
        title: "Figures 15 / 16: barrier removal, coarse and fine granularity",
        csvs: &["fig15_barrier_coarse.csv", "fig16_barrier_fine.csv"],
        run: fig15_16_barrier,
    },
    Experiment {
        name: "exp_isolation",
        title: "Experiment: performance isolation under time-sharing",
        csvs: &["exp_isolation.csv"],
        run: exp_isolation,
    },
    Experiment {
        name: "abl_eager_vs_lazy",
        title: "Ablation: eager vs lazy EDF under SMI injection",
        csvs: &["abl_eager_vs_lazy.csv"],
        run: abl_eager_vs_lazy,
    },
    Experiment {
        name: "abl_util_limit",
        title: "Ablation: utilization limit vs SMI sensitivity",
        csvs: &["abl_util_limit.csv"],
        run: abl_util_limit,
    },
    Experiment {
        name: "abl_admission_policy",
        title: "Ablation: admission policy acceptance matrix",
        csvs: &["abl_admission_policy.csv"],
        run: abl_admission_policy,
    },
    Experiment {
        name: "abl_cyclic_vs_edf",
        title: "Ablation: cyclic executive vs online EDF (same task set, 1 CPU)",
        csvs: &["abl_cyclic_vs_edf.csv"],
        run: abl_cyclic_vs_edf,
    },
    Experiment {
        name: "abl_hard_vs_soft",
        title: "Ablation: hard admission vs soft overload (2 x 60% on one CPU)",
        csvs: &["abl_hard_vs_soft.csv"],
        run: abl_hard_vs_soft,
    },
    Experiment {
        name: "abl_interrupt_steering",
        title: "Ablation: device interrupts steered away from vs onto the RT CPU",
        csvs: &["abl_interrupt_steering.csv"],
        run: abl_interrupt_steering,
    },
    Experiment {
        name: "abl_phase_correction",
        title: "Ablation: phase correction's effect on group dispatch spread",
        csvs: &["abl_phase_correction.csv"],
        run: abl_phase_correction,
    },
    Experiment {
        name: "abl_timer_mode",
        title: "Ablation: timer mode vs dispatch precision (50 µs period)",
        csvs: &["abl_timer_mode.csv"],
        run: abl_timer_mode,
    },
    Experiment {
        name: "ext_cluster",
        title: "Extension: cluster admission service, placement strategies vs the fluid oracle",
        csvs: &["cluster.csv"],
        run: ext_cluster,
    },
    Experiment {
        name: "ext_faults",
        title: "Extension: fault injection lanes and degradation responses",
        csvs: &["fault_sweep.csv"],
        run: ext_faults,
    },
    Experiment {
        name: "ext_layers",
        title: "Extension: layered scheduling, per-layer bandwidth control vs plain EDF",
        csvs: &["layers.csv"],
        run: ext_layers,
    },
    Experiment {
        name: "ext_topology",
        title: "Extension: topology scale sweep, flat vs 2x4, LLC-first vs uniform stealing",
        csvs: &["topology.csv"],
        run: ext_topology,
    },
];

/// `repro_all`'s command line, `[--paper] [name…]` (program name
/// excluded): the scale and the selected entries in table order — every
/// entry when no name is given. An unknown flag or name is an error that
/// lists the valid names.
pub fn parse_args(args: &[String]) -> Result<(Scale, Vec<&'static Experiment>), String> {
    let (scale, names) = Scale::parse_args(args)?;
    if let Some(bad) = names.iter().find(|n| TABLE.iter().all(|e| e.name != **n)) {
        let valid: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment `{bad}`; the experiments are:\n  {}",
            valid.join("\n  ")
        ));
    }
    let selected = TABLE
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
        .collect();
    Ok((scale, selected))
}

/// Run `entries` in order into the existing directory `out` and write
/// their rows to [`SUMMARY_FILE`] there. Everything written is a pure
/// function of `(entries, scale)`: `hc.threads` only changes how fast.
pub fn run<'a>(
    hc: &'a HarnessConfig,
    scale: Scale,
    out: &'a Path,
    entries: &[&Experiment],
) -> Run<'a> {
    let mut run = Run {
        hc,
        scale,
        out,
        summary: Vec::new(),
        report: BenchReport::new(),
        failed: Vec::new(),
    };
    for e in entries {
        banner(e.title);
        (e.run)(&mut run);
    }
    let path = out.join(SUMMARY_FILE);
    std::fs::write(&path, run.summary_text()).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    run
}

fn fig03_timesync(run: &mut Run<'_>) {
    let r = fig03::run(run.scale, 42);
    run.csv(
        "fig03_timesync.csv",
        &["offset_cycles", "count"],
        r.bins.iter().map(|b| vec![b.edge, b.count]),
    );
    run.row(
        "Fig 3: TSC sync envelope",
        "all CPUs within 1000 cycles",
        format!("max {} cycles, {} over 1000", r.summary.max, r.over_1000),
    );
}

fn fig04_scope(run: &mut Run<'_>) {
    let r = fig04::run(run.scale, 3);
    run.csv(
        "fig04_scope.csv",
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
            ("thread", &r.thread),
            ("scheduler", &r.scheduler),
            ("interrupt", &r.interrupt),
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
    run.row(
        "Fig 4: thread trace sharpness",
        "thread sharp, scheduler/IRQ fuzzy; duty slightly >50%",
        format!(
            "thread period jitter {} cyc, IRQ width jitter {} cyc, duty {}",
            f(r.thread.periods.std_dev),
            f(r.interrupt.high_widths.std_dev),
            f(r.thread.duty_cycle)
        ),
    );
}

fn fig05_overheads(run: &mut Run<'_>) {
    let r = fig05::run(run.scale, 17);
    run.csv(
        "fig05_overheads.csv",
        &["platform", "component", "mean", "std", "min", "max"],
        [&r.phi, &r.r415].iter().flat_map(|p| {
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
    run.row(
        "Fig 5: Phi overhead",
        "~6000 cycles, pass about half",
        format!(
            "{} cycles, pass {}",
            f(r.phi.mean_total()),
            f(r.phi.breakdown.resched.mean / r.phi.mean_total())
        ),
    );
}

fn fig06_missrate_phi(run: &mut Run<'_>) {
    missrate_sweep(run, Platform::Phi, "fig06_missrate_phi", 6, 10);
}

fn fig07_missrate_r415(run: &mut Run<'_>) {
    missrate_sweep(run, Platform::R415, "fig07_missrate_r415", 7, 4);
}

/// One platform's sweep feeds two figures: the miss rates (Figure `fig`)
/// and, from the `miss_mean_ns` / `miss_std_ns` columns of the same file,
/// the miss times (Figure `fig + 2`). `edge_us` is the smallest period of
/// the platform's grid, where the paper puts the feasibility edge.
fn missrate_sweep(run: &mut Run<'_>, platform: Platform, stem: &str, fig: u32, edge_us: u64) {
    let (pts, stats) = missrate::sweep_with_stats(run.hc, platform, run.scale, 5);
    run.report.add(stem, stats);
    run.csv(
        &format!("{stem}.csv"),
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
    let edge_missy = pts
        .iter()
        .filter(|p| p.period_us == edge_us && p.slice_pct >= 50)
        .all(|p| p.miss_rate > 0.5);
    run.row(
        format!("Fig {fig}: feasibility edge ({platform:?})"),
        format!("zero misses when feasible; edge near {edge_us} µs"),
        format!(
            "coarse feasible zero-miss: {feasible_zero}; \
             {edge_us}µs fat slices missy: {edge_missy}"
        ),
    );
    let worst_miss_time = pts.iter().map(|p| p.miss_mean_ns).fold(0.0f64, f64::max);
    run.row(
        format!("Fig {}: miss magnitudes ({platform:?})", fig + 2),
        "small (µs-scale) even when infeasible",
        format!("worst mean lateness {} µs", f(worst_miss_time / 1000.0)),
    );
}

fn fig10_group_admission(run: &mut Run<'_>) {
    let r = fig10::run(run.scale, 9);
    run.csv(
        "fig10_group_admission.csv",
        &["n", "step", "min_cycles", "avg_cycles", "max_cycles"],
        r.iter().flat_map(|r| {
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
    let last = r.last().expect("fig10 measures at least one group size");
    run.row(
        "Fig 10: group admission growth",
        "linear in n; ~8M cycles at 255",
        format!(
            "total mean {:.2}M cycles at n={}",
            last.total.mean / 1e6,
            last.n
        ),
    );
}

fn fig11_group_sync8(run: &mut Run<'_>) {
    let r = groupsync::fig11(run.scale, 21);
    run.csv(
        "fig11_group_sync8.csv",
        &["invocation", "spread_cycles"],
        r.spreads
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![i as u64, v]),
    );
    run.row(
        "Fig 11: 8-thread sync",
        "within a few 1000s of cycles",
        format!("mean {} max {}", f(r.summary.mean), r.summary.max),
    );
}

fn fig12_group_sync_scale(run: &mut Run<'_>) {
    let (r, stats) = groupsync::fig12_with_stats(run.hc, run.scale, 21);
    run.report.add("fig12_group_sync_scale", stats);
    run.csv(
        "fig12_group_sync_scale.csv",
        &["n", "invocation", "spread_cycles"],
        r.iter().flat_map(|s| {
            s.spreads
                .iter()
                .enumerate()
                .map(move |(i, &v)| vec![s.n as u64, i as u64, v])
        }),
    );
    let small = &r[0].summary;
    let big = &r[r.len() - 1].summary;
    run.row(
        "Fig 12: sync vs group size",
        "bias grows with n; variation does not",
        format!(
            "bias {} -> {} cycles; std {} -> {}",
            f(small.mean),
            f(big.mean),
            f(small.std_dev),
            f(big.std_dev)
        ),
    );
}

fn fig13_14_throttle(run: &mut Run<'_>) {
    let mut cv = [0.0; 2];
    for (i, (g, stem)) in [
        (Granularity::Coarse, "fig13_throttle_coarse"),
        (Granularity::Fine, "fig14_throttle_fine"),
    ]
    .into_iter()
    .enumerate()
    {
        let (pts, stats) = throttle::run_with_stats(run.hc, g, run.scale, 3);
        run.report.add(stem, stats);
        cv[i] = throttle::control_quality(&pts).1;
        run.csv(
            &format!("{stem}.csv"),
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
    run.row(
        "Fig 13/14: throttling",
        "commensurate; fine grain varies more",
        format!("time x util cv: coarse {} fine {}", f(cv[0]), f(cv[1])),
    );
}

fn fig15_16_barrier(run: &mut Run<'_>) {
    let [coarse, fine] = [
        (Granularity::Coarse, "fig15_barrier_coarse.csv"),
        (Granularity::Fine, "fig16_barrier_fine.csv"),
    ]
    .map(|(g, file)| {
        let r = barrier_removal::run(g, run.scale, 7);
        run.csv(
            file,
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
        r
    });
    let mean_speedup = |r: &barrier_removal::Removal| {
        r.points.iter().map(|p| p.speedup()).sum::<f64>() / r.points.len().max(1) as f64
    };
    run.row(
        "Fig 15/16: barrier removal",
        "small win coarse; 20-300% fine; fine RT beats aperiodic",
        format!(
            "mean speedup coarse {} fine {}; fine beats aperiodic: {}",
            f(mean_speedup(&coarse)),
            f(mean_speedup(&fine)),
            fine.points
                .iter()
                .any(|p| p.without_barrier_ns < fine.aperiodic_ns)
        ),
    );
}

fn exp_isolation(run: &mut Run<'_>) {
    let rt = isolation::measure(true, 8, 60, 131);
    let be = isolation::measure(false, 8, 60, 131);
    run.csv(
        "exp_isolation.csv",
        &[
            "scheduling",
            "alone_ns",
            "shared_ns",
            "interference",
            "misses",
        ],
        [("hard_rt", &rt), ("best_effort", &be)].map(|(name, p)| {
            vec![
                name.to_string(),
                p.alone_ns.to_string(),
                p.shared_ns.to_string(),
                f(p.interference),
                p.misses.to_string(),
            ]
        }),
    );
    run.row(
        "Isolation: time-shared gangs (§1)",
        "RT gang unaffected by co-resident gang",
        format!(
            "interference: hard-rt {}x (misses {}), best-effort {}x",
            f(rt.interference),
            rt.misses,
            f(be.interference)
        ),
    );
}

fn abl_eager_vs_lazy(run: &mut Run<'_>) {
    let (rows, stats) = ablations::eager_vs_lazy_with_stats(run.hc, 31);
    run.report.add("abl_eager_vs_lazy", stats);
    run.csv(
        "abl_eager_vs_lazy.csv",
        &["smi_mean_interval_us", "eager_miss_rate", "lazy_miss_rate"],
        rows.iter().map(|&(smi, eager, lazy)| {
            vec![
                smi.map_or("none".to_string(), |us| us.to_string()),
                f(eager),
                f(lazy),
            ]
        }),
    );
    let (_, eager_hot, lazy_hot) = rows[rows.len() - 1];
    run.row(
        "Ablation: eager vs lazy under SMI",
        "eager absorbs missing time",
        format!("miss rates: eager {} lazy {}", f(eager_hot), f(lazy_hot)),
    );
}

fn abl_util_limit(run: &mut Run<'_>) {
    let (rows, stats) = ablations::util_limit_knob_with_stats(run.hc, 31);
    run.report.add("abl_util_limit", stats);
    run.csv(
        "abl_util_limit.csv",
        &["util_limit_pct", "miss_rate"],
        rows.iter()
            .map(|&(limit, rate)| vec![limit.to_string(), f(rate)]),
    );
    run.row(
        "Ablation: utilization-limit knob",
        "lower limit, fewer SMI-induced misses",
        format!(
            "99% -> {}; 70% -> {}",
            f(rows[0].1),
            f(rows[rows.len() - 1].1)
        ),
    );
}

fn abl_admission_policy(run: &mut Run<'_>) {
    let rows = ablations::admission_policy_matrix();
    run.csv(
        "abl_admission_policy.csv",
        &["constraint_set", "edf_bound", "rm_bound", "hyperperiod_sim"],
        rows.iter()
            .map(|(l, e, r, h)| vec![l.to_string(), e.to_string(), r.to_string(), h.to_string()]),
    );
    let accepted =
        |by: fn(&(&str, bool, bool, bool)) -> bool| rows.iter().filter(|r| by(r)).count();
    run.row(
        "Ablation: admission policy",
        "a utilization bound cannot see overhead; simulating the hyperperiod can",
        format!(
            "sets accepted of {}: EDF bound {}, RM bound {}, hyperperiod sim {}",
            rows.len(),
            accepted(|r| r.1),
            accepted(|r| r.2),
            accepted(|r| r.3)
        ),
    );
}

fn abl_cyclic_vs_edf(run: &mut Run<'_>) {
    let (edf, cyclic) = ablations::cyclic_vs_edf(100_000_000, 77);
    run.csv(
        "abl_cyclic_vs_edf.csv",
        &["scheme", "missed", "timer_interrupts", "context_switches"],
        [("edf", edf), ("cyclic", cyclic)].map(|(scheme, c)| {
            vec![
                scheme.to_string(),
                c.missed.to_string(),
                c.timer_interrupts.to_string(),
                c.context_switches.to_string(),
            ]
        }),
    );
    run.row(
        "Ablation: cyclic executive vs online EDF",
        "a static schedule fixes the interrupt rate by construction (§8)",
        format!(
            "misses edf {} cyclic {}; timer interrupts in 100 ms: edf {} cyclic {}",
            edf.missed, cyclic.missed, edf.timer_interrupts, cyclic.timer_interrupts
        ),
    );
}

fn abl_hard_vs_soft(run: &mut Run<'_>) {
    let (admitted_rate, admitted_count, soft_rates) = ablations::hard_vs_soft_overload(47);
    let soft = |sep: &str| {
        let rates: Vec<String> = soft_rates.iter().map(|&r| f(r)).collect();
        rates.join(sep)
    };
    run.csv(
        "abl_hard_vs_soft.csv",
        &["config", "admitted", "miss_rates"],
        [
            vec![
                "hard".to_string(),
                admitted_count.to_string(),
                f(admitted_rate),
            ],
            vec!["soft".to_string(), "2".to_string(), soft(";")],
        ],
    );
    run.row(
        "Ablation: hard vs soft real-time under overload",
        "hard RT turns overload into an admission failure, soft into misses for all",
        format!(
            "hard: {admitted_count} of 2 admitted, miss rate {}; soft: both admitted, \
             miss rates {}",
            f(admitted_rate),
            soft(" / ")
        ),
    );
}

fn abl_interrupt_steering(run: &mut Run<'_>) {
    let away = ablations::steering_effect(false, 13);
    let onto = ablations::steering_effect(true, 13);
    run.csv(
        "abl_interrupt_steering.csv",
        &["steering", "dispatch_interval_jitter_cycles"],
        [("away_from_rt_cpu", away), ("onto_rt_cpu", onto)]
            .map(|(name, jitter)| vec![name.to_string(), f(jitter)]),
    );
    run.row(
        "Ablation: interrupt steering",
        "device interrupts kept off RT CPUs cannot perturb them",
        format!(
            "RT dispatch jitter: steered away {} cyc, onto the RT CPU {} cyc",
            f(away),
            f(onto)
        ),
    );
}

fn abl_phase_correction(run: &mut Run<'_>) {
    let rows = ablations::phase_correction(21);
    run.csv(
        "abl_phase_correction.csv",
        &["n", "phase_correction", "mean_spread", "std", "max"],
        rows.iter().map(|(n, corrected, s)| {
            vec![
                n.to_string(),
                corrected.to_string(),
                f(s.mean),
                f(s.std_dev),
                s.max.to_string(),
            ]
        }),
    );
    // The largest group, correction off then on.
    let (n, _, raw) = &rows[rows.len() - 2];
    let (_, _, corrected) = &rows[rows.len() - 1];
    run.row(
        "Ablation: phase correction",
        "correction removes the release-order bias that grows with n",
        format!(
            "mean spread at n={n}: {} -> {} cycles",
            f(raw.mean),
            f(corrected.mean)
        ),
    );
}

fn abl_timer_mode(run: &mut Run<'_>) {
    let rows = ablations::timer_modes(13);
    run.csv(
        "abl_timer_mode.csv",
        &["mode", "mean_abs_period_error_cycles"],
        rows.iter()
            .map(|&(name, err)| vec![name.to_string(), f(err)]),
    );
    let (exact_name, exact) = rows[0];
    let (coarse_name, coarse) = rows[rows.len() - 1];
    run.row(
        "Ablation: timer mode",
        "tick quantization costs dispatch precision; TSC-deadline does not",
        format!(
            "mean period error: {exact_name} {} cyc, {coarse_name} {} cyc",
            f(exact),
            f(coarse)
        ),
    );
}

// The `ext_*` rows print their harness sections but keep them out of
// `run.report`: its totals are the paper reproduction's pinned event count.

fn ext_cluster(run: &mut Run<'_>) {
    let (pts, stats) = cluster_bench::run_with_stats(run.hc, run.scale, 0xC1);
    println!("ext_cluster: {stats}");
    run.csv(
        "cluster.csv",
        &[
            "strategy",
            "shards",
            "cpus",
            "tenants",
            "decisions",
            "placed",
            "rejected",
            "departures",
            "probes",
            "placed_util_ppm",
            "oracle_util_ppm",
            "quality",
            "sim_hit_rate",
        ],
        pts.iter().map(|p| {
            vec![
                p.strategy.to_string(),
                p.shards.to_string(),
                p.cpus.to_string(),
                p.tenants.to_string(),
                p.decisions.to_string(),
                p.placed.to_string(),
                p.rejected.to_string(),
                p.departures.to_string(),
                p.probes.to_string(),
                p.placed_util_ppm.to_string(),
                p.oracle_util_ppm.to_string(),
                f(p.quality),
                f(p.sim_hit_rate),
            ]
        }),
    );
    for p in &pts {
        let cell = format!("{} at {} tenants", p.strategy, p.tenants);
        run.check(
            p.quality > 0.0 && p.quality <= 1.0,
            "ext_cluster: the fluid oracle upper-bounds every policy",
            format!("{cell}: quality {}", f(p.quality)),
        );
        run.check(
            p.placed + p.rejected == p.decisions,
            "ext_cluster: every decision places or rejects the tenant",
            format!(
                "{cell}: {} placed + {} rejected of {}",
                p.placed, p.rejected, p.decisions
            ),
        );
    }
    // One gang per shard wastes what the packing policies fill.
    for rt in pts.iter().filter(|p| p.strategy == "rt_gang") {
        for p in pts
            .iter()
            .filter(|p| p.tenants == rt.tenants && p.strategy != "rt_gang")
        {
            run.check(
                rt.quality < p.quality,
                "ext_cluster: rt_gang packs below every packing policy",
                format!(
                    "{} tenants: rt_gang {} vs {} {}",
                    rt.tenants,
                    f(rt.quality),
                    p.strategy,
                    f(p.quality)
                ),
            );
        }
    }
    // Each strategy's largest cell.
    let tenants = pts.iter().map(|p| p.tenants).max().unwrap_or(0);
    let at_scale: Vec<String> = pts
        .iter()
        .filter(|p| p.tenants == tenants)
        .map(|p| format!("{} {}", p.strategy, f(p.quality)))
        .collect();
    run.row(
        "Extension: cluster admission (DESIGN §6g)",
        "beyond the paper; rt_gang is RT-Gang's one-gang-at-a-time policy as the baseline",
        format!(
            "packing quality vs fluid oracle at {tenants} tenants: {}",
            at_scale.join(", ")
        ),
    );
}

fn ext_faults(run: &mut Run<'_>) {
    let (pts, stats) = fault_sweep::sweep_with_stats(run.hc, run.scale, 77);
    println!("ext_faults: {stats}");
    run.csv(
        "fault_sweep.csv",
        &[
            "intensity",
            "period_us",
            "slice_pct",
            "jobs",
            "miss_rate",
            "kicks_dropped",
            "kicks_delayed",
            "timer_overshoots",
            "freq_dips",
            "spurious_irqs",
            "cpu_stalls",
            "faults_total",
            "sporadic_demotions",
            "periodic_widenings",
            "periodic_demotions",
        ],
        pts.iter().map(|p| {
            vec![
                f(p.intensity),
                p.period_us.to_string(),
                p.slice_pct.to_string(),
                p.jobs.to_string(),
                f(p.miss_rate),
                p.faults.kicks_dropped.to_string(),
                p.faults.kicks_delayed.to_string(),
                p.faults.timer_overshoots.to_string(),
                p.faults.freq_dips.to_string(),
                p.faults.spurious_irqs.to_string(),
                p.faults.cpu_stalls.to_string(),
                p.faults.total().to_string(),
                p.degrade.sporadic_demotions.to_string(),
                p.degrade.periodic_widenings.to_string(),
                p.degrade.periodic_demotions.to_string(),
            ]
        }),
    );
    // How injection load translates into misses and degradation responses.
    let rollup: Vec<String> = fault_sweep::INTENSITIES
        .iter()
        .map(|&i| {
            let cells: Vec<_> = pts.iter().filter(|p| p.intensity == i).collect();
            let miss = cells.iter().map(|p| p.miss_rate).sum::<f64>() / cells.len() as f64;
            let faults: u64 = cells.iter().map(|p| p.faults.total()).sum();
            let responses: u64 = cells.iter().map(|p| p.degrade.total()).sum();
            format!("{} -> {} / {faults} / {responses}", f(i), f(miss))
        })
        .collect();
    run.row(
        "Extension: fault injection under graceful degradation (DESIGN §6c)",
        "beyond the paper; intensity 0 is fault-free and miss-free",
        format!(
            "intensity -> mean miss rate / faults injected / degradation responses: {}",
            rollup.join("; ")
        ),
    );
}

fn ext_layers(run: &mut Run<'_>) {
    let (pts, stats) = layers::sweep(run.hc, run.scale, 23);
    println!("ext_layers: {stats}");
    run.csv(
        "layers.csv",
        &[
            "rt_pct",
            "bg_guarantee_ppm",
            "bg_share_layered",
            "bg_share_unlayered",
            "rt_miss_layered",
            "rt_miss_unlayered",
            "throttles",
            "replenishes",
        ],
        pts.iter().map(|p| {
            vec![
                p.rt_pct.to_string(),
                p.bg_guarantee_ppm.to_string(),
                f(p.bg_share_layered),
                f(p.bg_share_unlayered),
                f(p.rt_miss_layered),
                f(p.rt_miss_unlayered),
                p.throttles.to_string(),
                p.replenishes.to_string(),
            ]
        }),
    );
    for p in &pts {
        let cell = format!("rt {}% bg {} ppm", p.rt_pct, p.bg_guarantee_ppm);
        let cap = p.bg_guarantee_ppm as f64 / 1e6 + layers::SHARE_SLACK;
        run.check(
            p.bg_share_layered <= cap,
            "ext_layers: the background hog stays within its guarantee",
            format!("{cell}: share {}, cap {}", f(p.bg_share_layered), f(cap)),
        );
        run.check(
            p.rt_miss_layered == p.rt_miss_unlayered,
            "ext_layers: layering leaves the RT miss rate unchanged",
            format!(
                "{cell}: {} layered vs {} unlayered",
                f(p.rt_miss_layered),
                f(p.rt_miss_unlayered)
            ),
        );
    }
    // The hog's share as a multiple of its guarantee, worst cell.
    let worst = |share: fn(&layers::LayerPoint) -> f64| {
        pts.iter()
            .map(|p| share(p) * 1e6 / p.bg_guarantee_ppm as f64)
            .fold(0.0, f64::max)
    };
    run.row(
        "Extension: layered bandwidth control (DESIGN §6h)",
        "beyond the paper; the hog is held to its guarantee and the RT probe cannot tell",
        format!(
            "hog share at most {}x its guarantee layered, up to {}x unlayered; \
             RT miss rate equal in {} of {} cells",
            f(worst(|p| p.bg_share_layered)),
            f(worst(|p| p.bg_share_unlayered)),
            pts.iter()
                .filter(|p| p.rt_miss_layered == p.rt_miss_unlayered)
                .count(),
            pts.len()
        ),
    );
}

fn ext_topology(run: &mut Run<'_>) {
    let (pts, sections) = topology::sweep_with_stats(run.hc, run.scale, 11);
    for (name, stats) in &sections {
        println!("{name}: {stats}");
    }
    run.csv(
        "topology.csv",
        &[
            "workload",
            "n_cpus",
            "topology",
            "events",
            "makespan_ms",
            "miss_rate",
            "spread_mean_cycles",
            "steals",
            "steal_llc",
            "steal_pkg",
            "steal_xpkg",
            "locality_hit_rate",
            "ipi_llc",
            "ipi_pkg",
            "ipi_xpkg",
            "cross_pkg_kick_frac",
        ],
        pts.iter().map(|p| {
            vec![
                p.workload.to_string(),
                p.n_cpus.to_string(),
                p.topology.clone(),
                p.events.to_string(),
                f(p.makespan_ms),
                f(p.miss_rate),
                f(p.spread_mean_cycles),
                p.steals.to_string(),
                p.steals_by_distance[0].to_string(),
                p.steals_by_distance[1].to_string(),
                p.steals_by_distance[2].to_string(),
                f(p.locality_hit_rate()),
                p.ipis_by_distance[0].to_string(),
                p.ipis_by_distance[1].to_string(),
                p.ipis_by_distance[2].to_string(),
                f(p.cross_package_kick_fraction()),
            ]
        }),
    );
    // The headline A/B at every tree cell, the largest reported. Both
    // storm sections run the same cells in the same order.
    let storm = |workload: &'static str| {
        pts.iter()
            .filter(move |p| p.workload == workload && p.topology != "flat")
    };
    let mut largest = String::new();
    for (llc, uni) in storm("steal_llcfirst").zip(storm("steal_uniform")) {
        assert_eq!((llc.n_cpus, &llc.topology), (uni.n_cpus, &uni.topology));
        largest = format!(
            "{} CPUs {}: steal locality {} LLC-first vs {} uniform; storm makespan {} vs {} ms",
            llc.n_cpus,
            llc.topology,
            f(llc.locality_hit_rate()),
            f(uni.locality_hit_rate()),
            f(llc.makespan_ms),
            f(uni.makespan_ms)
        );
        run.check(
            llc.locality_hit_rate() > uni.locality_hit_rate(),
            "ext_topology: LLC-first stealing beats uniform on steal locality",
            largest.clone(),
        );
    }
    run.row(
        "Extension: topology-aware stealing (DESIGN §6e)",
        "beyond the paper; LLC-first victim selection keeps steals local on a tree machine",
        largest,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_names_selects_the_whole_table_and_names_select_in_table_order() {
        let (scale, all) = parse_args(&args(&["--paper"])).unwrap();
        assert_eq!(scale, Scale::Paper);
        assert_eq!(all.len(), TABLE.len());
        let (scale, two) = parse_args(&args(&["abl_timer_mode", "fig06_missrate_phi"])).unwrap();
        assert_eq!(scale, Scale::Quick);
        let names: Vec<&str> = two.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig06_missrate_phi", "abl_timer_mode"]);
    }

    #[test]
    fn unknown_flags_and_names_are_errors_that_list_the_table() {
        assert!(parse_args(&args(&["--papr"])).is_err());
        // A removed binary that is not an entry: Figure 8 is fig06's columns.
        let err = parse_args(&args(&["fig06_missrate_phi", "fig08_misstime_phi"])).unwrap_err();
        assert!(err.contains("`fig08_misstime_phi`"), "{err}");
        assert!(TABLE.iter().all(|e| err.contains(e.name)), "{err}");
    }

    #[test]
    fn a_failed_check_comes_back_on_the_run_and_exits_1() {
        fn broken(run: &mut Run<'_>) {
            run.check(true, "holds", String::new());
            run.check(false, "synthetic claim", "cell 7: 2 vs 1".to_string());
        }
        let entry = Experiment {
            name: "synthetic",
            title: "a claim that does not hold",
            csvs: &[],
            run: broken,
        };
        let out = std::env::temp_dir().join(format!("nautix_check_{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let hc = HarnessConfig::serial();
        let failing = run(&hc, Scale::Quick, &out, &[&entry]);
        let want = ("synthetic claim".to_string(), "cell 7: 2 vs 1".to_string());
        assert_eq!(failing.failed, [want]);
        assert_eq!(failing.exit_status(), 1);
        assert_eq!(run(&hc, Scale::Quick, &out, &[]).exit_status(), 0);
        std::fs::remove_dir_all(&out).unwrap();
    }
}

//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound, plus the
//! order statistics the runner, the result file and `--compare` share.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`--manifest`), so the names the driver expects and the names the
//! binary prints cannot drift apart.

use crate::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "paper_repro",
        why: "the seven instrumented repro_all --paper sections: 64-CPU BSP gangs at mid event backlog, the headline events/s",
    },
    WorkloadInfo {
        name: "small_trials",
        why: "fig06-09 grid x 144 seeds on 2-CPU nodes: tiny event backlog, per-trial reset cost dominates, bypasses large-backlog queue wins",
    },
    WorkloadInfo {
        name: "storm_1024",
        why: "1024-CPU 2x4 steal storm + miss-rate + gang sync x 20 seeds: large backlog, 1024 timer slots, distance-classed IPIs, a 1024-CPU boot a trial",
    },
    WorkloadInfo {
        name: "cluster_churn",
        why: "closed loop, one client: 16x8 fleet, best_fit then po2, 500k tenants each; admission transactions and memoised sims, no event pump",
    },
    WorkloadInfo {
        name: "armed_repro",
        why: "paper_repro sections in the trace-feature build with oracles armed and a stats hub streaming: emission on the blocking path",
    },
];

/// An end-to-end metric: what a user of the simulator or of the admission
/// service sees. `bound` is the share of the baseline median by which it
/// may worsen before the change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these. An *op* is one simulated
/// machine event on the four DES workloads and one placement decision on
/// `cluster_churn`; a *unit* is one trial, respectively one decision.
///
/// The three timing bounds are three times the widest run-to-run spread
/// (4.6%) seen on any workload over sets of ten seeds on a shared 2-core
/// host, which is also above the 13% drift seen once between two sets ten
/// minutes apart; `setup_s`, a sub-millisecond figure, has the widest
/// (README, "How the bounds were chosen"). A timing that could not be held
/// inside a tenth (`decision_p99_us`, `peak_rss_mb`) is a per-layer metric.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "unit_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric. `exact` marks counts and simulated statistics that
/// must repeat bit-for-bit at a fixed seed. `on` names the workloads whose
/// traced run measures it: a count or a share belongs to every workload
/// that produces it, a direct-drive cost to the one workload whose
/// end-to-end metrics it should move most, so that each cost is measured
/// once. In a result line (which carries every name) the others read 0;
/// the result file and the tables leave them out.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
    pub on: &'static [&'static str],
}

use Better::{Higher, Lower};

const PAPER: &[&str] = &["paper_repro"];
const SMALL: &[&str] = &["small_trials"];
const STORM: &[&str] = &["storm_1024"];
const CLUSTER: &[&str] = &["cluster_churn"];
const ARMED: &[&str] = &["armed_repro"];
const DES: &[&str] = &["paper_repro", "small_trials", "storm_1024", "armed_repro"];
const ALL: &[&str] = &[
    "paper_repro",
    "small_trials",
    "storm_1024",
    "cluster_churn",
    "armed_repro",
];

const fn cost(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        on,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        on,
    }
}

pub const PER_LAYER: [PerLayer; 72] = [
    // Exact counts of the traced workload: explain ops_per_s shifts.
    count("core.local.invocations_per_kevent", "count", Lower, DES),
    count("core.local.switches_per_kevent", "count", Lower, DES),
    count("hw.timer.programmings_per_kevent", "count", Lower, DES),
    count("hw.apic.ipis_per_kevent", "count", Lower, DES),
    count("core.steal.steals_per_kevent", "count", Lower, DES),
    count("core.steal.llc_locality", "ratio", Higher, STORM),
    count("core.admission.sims_run", "count", Lower, CLUSTER),
    count("core.admission.sim_hit_rate", "ratio", Higher, CLUSTER),
    count("core.admission.rollbacks", "count", Lower, CLUSTER),
    count("cluster.probes_per_decision", "count", Lower, CLUSTER),
    count("cluster.reject_rate", "ratio", Lower, CLUSTER),
    count("trace.records_per_event", "count", Lower, ARMED),
    count("core.oracle.checks_per_event", "count", Lower, ARMED),
    count("bench.harness.events_per_trial", "count", Lower, DES),
    count("des.queue.backlog_p50", "count", Lower, DES),
    count("des.queue.backlog_max", "count", Lower, DES),
    // Simulated results, exact at a fixed seed.
    count("placement_quality", "ratio", Higher, CLUSTER),
    count("sim_makespan_ms", "ms", Lower, STORM),
    // Demoted from end-to-end: spread above a tenth between sets of runs.
    cost("decision_p99_us", "us", CLUSTER),
    cost("peak_rss_mb", "MB", ALL),
    // des: direct drive of `EventQueue::new()`.
    cost("des.queue.churn_ns_b4", "ns", SMALL),
    cost("des.queue.churn_ns_b128", "ns", PAPER),
    cost("des.queue.churn_ns_b2048", "ns", STORM),
    cost("des.queue.cancel_ns", "ns", PAPER),
    cost("des.queue.batch_pop_ns", "ns", PAPER),
    // hw
    cost("hw.timer.rearm_ns_c2", "ns", SMALL),
    cost("hw.timer.rearm_ns_c1024", "ns", STORM),
    cost("hw.machine.advance_ns_c2", "ns", SMALL),
    cost("hw.machine.advance_ns_c64", "ns", PAPER),
    cost("hw.machine.advance_ns_c1024", "ns", STORM),
    cost("hw.apic.set_tpr_ns", "ns", PAPER),
    // kernel
    cost("kernel.queue.push_pop_ns_n8", "ns", SMALL),
    cost("kernel.queue.push_pop_ns_n256", "ns", STORM),
    // core
    cost("core.local.invoke_ns_q1", "ns", PAPER),
    cost("core.local.invoke_ns_q8", "ns", PAPER),
    cost("core.node.step_ns_c2", "ns", SMALL),
    cost("core.node.step_ns_c64", "ns", PAPER),
    cost("core.node.step_ns_c1024", "ns", STORM),
    cost("core.node.sched_side_ns_c64", "ns", PAPER),
    cost("core.node.boot_us_c2", "us", SMALL),
    cost("core.node.boot_us_c64", "us", PAPER),
    cost("core.node.boot_us_c256", "us", PAPER),
    cost("core.node.boot_us_c1024", "us", STORM),
    cost("core.node.reset_us_c2", "us", SMALL),
    cost("core.node.reset_us_c64", "us", PAPER),
    cost("core.node.reset_us_c1024", "us", STORM),
    cost("core.admission.ledger_cycle_ns", "ns", CLUSTER),
    cost("core.admission.sim_hit_ns", "ns", CLUSTER),
    cost("core.admission.sim_miss_us", "us", CLUSTER),
    cost("core.node.admit_team_us_g8", "us", CLUSTER),
    // cluster
    cost("cluster.policy.candidates_ns", "ns", CLUSTER),
    cost("cluster.decision_rest_us", "us", CLUSTER),
    cost("cluster.decision_p999_us", "us", CLUSTER),
    cost("cluster.boot_ms", "ms", CLUSTER),
    cost("cluster.tenant.next_request_ns", "ns", CLUSTER),
    // groups / bsp
    cost("groups.barrier.arrive_ns", "ns", PAPER),
    cost("bsp.spawn_us_p63", "us", PAPER),
    cost("bsp.collect_us_p63", "us", PAPER),
    // stats / trace: costs of the armed build, where they block.
    cost("stats.snapshot_us_c64", "us", ARMED),
    cost("stats.hub.delta_ns", "ns", ARMED),
    cost("stats.codec.roundtrip_us", "us", ARMED),
    cost("trace.overhead_ns_per_event", "ns", ARMED),
    PerLayer {
        name: "trace.records_per_s",
        unit: "1/s",
        better: Higher,
        exact: false,
        on: ARMED,
    },
    // bench
    cost("bench.scenario.codec_roundtrip_us", "us", SMALL),
    cost("bench.harness.dispatch_ns", "ns", SMALL),
    PerLayer {
        name: "bench.harness.speedup_2t",
        unit: "ratio",
        better: Higher,
        exact: false,
        on: PAPER,
    },
    // Traced run: self-time shares of one trial, and what tracing costs.
    cost("bench.trial.build_share", "ratio", DES),
    cost("core.node.boot_share", "ratio", DES),
    cost("bench.trial.spawn_share", "ratio", DES),
    cost("core.node.run_share", "ratio", DES),
    cost("bench.trial.collect_share", "ratio", DES),
    cost("bench.trace.overhead_pct", "%", ALL),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `(unit, better, bound, exact)` of any registered metric.
pub fn describe(name: &str) -> Option<(&'static str, Better, Option<f64>, bool)> {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return Some((m.unit, m.better, Some(m.bound), false));
    }
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better, None, m.exact))
}

/// The per-layer metrics `workload`'s traced run measures.
pub fn per_layer_on(workload: &str) -> impl Iterator<Item = &'static PerLayer> + '_ {
    PER_LAYER.iter().filter(move |m| m.on.contains(&workload))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::str(s)).collect());
    Value::obj(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the spreads printed here are the
/// ones the driver computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median):
/// the spread the driver holds against a metric's bound.
pub fn spread((q1, median, q3): (f64, f64, f64)) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// The `p`-quantile (0..1) of an ascending-sorted sample by nearest rank,
/// lowered until at least `beyond` samples lie above it: a tail
/// percentile is only reported where enough samples back it.
pub fn tail_percentile(sorted: &[f64], p: f64, beyond: usize) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let capped = rank.min(n.saturating_sub(beyond).max(1));
    sorted[capped - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_percentile_backs_off_on_small_samples() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99, 10), 50.0);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.99, 10), 1980.0);
        assert_eq!(tail_percentile(&[7.0], 0.99, 10), 7.0);
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `bash benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(per_layer_on(w.name).count() > 0, "{}", w.name);
        }
        for m in &PER_LAYER {
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            for on in m.on {
                assert!(WORKLOADS.iter().any(|w| w.name == *on), "{}", m.name);
            }
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}

//! Satellite 2: the replay regression corpus.
//!
//! Ten hand-picked scenarios live as `.replay` files under
//! `tests/replays/`; each has its simulated event count and headline
//! stats pinned here. Any change to the scheduler, machine model, fault
//! injection, or the codec that shifts one of these histories fails this
//! test — regenerate the corpus with
//! `cargo run -p nautix-bench --bin make_corpus` only for *intentional*
//! behavior changes, and say so in the commit.
//!
//! The pins must hold at any worker thread count and with or without
//! armed oracles (`NAUTIX_ORACLES=1`):
//! [`nautix_stats::StatsSnapshot::headline`] deliberately excludes the
//! oracle tallies, and each trial is a single-node simulation whose
//! history never depends on host threading. CI runs this suite at
//! `NAUTIX_THREADS=1` and `4` with oracles armed.

use nautix_bench::harness::run_trials_pooled;
use nautix_bench::{Scenario, TrialOutcome};
use nautix_rt::HarnessConfig;
use std::path::PathBuf;

/// `name -> (events, headline)` pins, from `make_corpus` output.
const PINS: &[(&str, u64, &str)] = &[
    (
        "flat_heap_feasible",
        835,
        "events=835 jobs=79 met=79 missed=0 miss_rate=0.000000 faults=0 degrade=0 steals=0 switches=161 ipis=0 cluster=0/0/0",
    ),
    (
        "t2x4_wheel_tight",
        358,
        "events=358 jobs=79 met=79 missed=0 miss_rate=0.000000 faults=0 degrade=0 steals=0 switches=161 ipis=0 cluster=0/0/0",
    ),
    (
        "phi_edge_infeasible",
        249,
        "events=249 jobs=59 met=0 missed=59 miss_rate=1.000000 faults=0 degrade=0 steals=0 switches=121 ipis=0 cluster=0/0/0",
    ),
    // The kick lanes are per-IPI-send draws and this workload sends no
    // kicks, so faults stays 0 — the pin still fixes the codec fields
    // and the exact RNG/event stream of a kick-lane-armed machine.
    (
        "lane_kick",
        1037,
        "events=1037 jobs=169 met=169 missed=0 miss_rate=0.000000 faults=0 degrade=0 steals=0 switches=342 ipis=0 cluster=0/0/0",
    ),
    (
        "lane_timer_overshoot",
        1038,
        "events=1038 jobs=169 met=169 missed=0 miss_rate=0.000000 faults=16 degrade=0 steals=0 switches=342 ipis=0 cluster=0/0/0",
    ),
    (
        "lane_freq_dip",
        1044,
        "events=1044 jobs=169 met=169 missed=0 miss_rate=0.000000 faults=7 degrade=0 steals=0 switches=342 ipis=0 cluster=0/0/0",
    ),
    (
        "lane_spurious_stall",
        1081,
        "events=1081 jobs=168 met=167 missed=1 miss_rate=0.005952 faults=23 degrade=0 steals=0 switches=340 ipis=0 cluster=0/0/0",
    ),
    (
        "widening_churn",
        659,
        "events=659 jobs=132 met=128 missed=4 miss_rate=0.030303 faults=20 degrade=1 steals=0 switches=268 ipis=0 cluster=0/0/0",
    ),
    // The cluster engine measures admission, not dispatch: its event
    // count is legitimately zero and the `cluster=` triple carries the
    // whole placement/departure history.
    (
        "cluster_po2_churn",
        0,
        "events=0 jobs=0 met=0 missed=0 miss_rate=0.000000 faults=0 degrade=0 steals=0 switches=0 ipis=0 cluster=200/164/36",
    ),
    // Layered bandwidth control (codec v3): the background hog's layer
    // throttles every replenish window while the RT probe stays clean.
    (
        "layer_starve_bg",
        1778,
        "events=1778 jobs=119 met=119 missed=0 miss_rate=0.000000 faults=0 degrade=0 steals=0 switches=264 ipis=0 cluster=0/0/0",
    ),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/replays")
}

fn load(name: &str) -> Scenario {
    let path = corpus_dir().join(format!("{name}.replay"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus file {path:?} missing: {e} (run make_corpus)"));
    let sc = Scenario::from_replay_string(&text)
        .unwrap_or_else(|e| panic!("corpus file {path:?} does not parse: {e}"));
    assert_eq!(sc.name, name, "corpus file name must match its scenario");
    sc.check_bootable()
        .unwrap_or_else(|e| panic!("corpus file {path:?} cannot boot: {e}"))
}

#[test]
fn corpus_is_complete_and_has_no_strays() {
    let mut on_disk: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut pinned: Vec<String> = PINS.iter().map(|(n, _, _)| format!("{n}.replay")).collect();
    pinned.sort();
    assert_eq!(
        on_disk, pinned,
        "tests/replays/ and the PINS table must list the same scenarios"
    );
}

#[test]
fn every_corpus_scenario_reproduces_its_pins() {
    // Fan the corpus across the harness exactly like a sweep; results
    // must match the pins regardless of NAUTIX_THREADS.
    let scenarios: Vec<Scenario> = PINS.iter().map(|(name, _, _)| load(name)).collect();
    let outs: Vec<TrialOutcome> =
        run_trials_pooled(&HarnessConfig::from_env(), scenarios, |pool, sc| {
            let out = sc.run_recorded(pool);
            let events = out.events;
            (out, events)
        })
        .results;
    for ((name, events, headline), out) in PINS.iter().zip(&outs) {
        assert_eq!(
            out.events, *events,
            "`{name}`: event count drifted from its pin"
        );
        assert_eq!(
            out.snapshot.headline(),
            *headline,
            "`{name}`: headline stats drifted from their pin"
        );
    }
}

#[test]
fn corpus_trials_are_pool_reset_invariant() {
    // Replay the whole corpus twice on ONE pooled node (worst-case reset
    // churn: every trial reconfigures the machine) and once fresh each;
    // all three answers must be identical.
    let mut pool = nautix_bench::harness::NodePool::new();
    let first: Vec<TrialOutcome> = PINS
        .iter()
        .map(|(n, _, _)| load(n).run_pooled(&mut pool))
        .collect();
    let second: Vec<TrialOutcome> = PINS
        .iter()
        .map(|(n, _, _)| load(n).run_pooled(&mut pool))
        .collect();
    let fresh: Vec<TrialOutcome> = PINS.iter().map(|(n, _, _)| load(n).run_fresh()).collect();
    assert_eq!(first, second, "pooled replays must not leak state");
    assert_eq!(first, fresh, "pooled replay must equal fresh construction");
}

#[test]
fn corpus_files_are_canonical() {
    // Each on-disk file must be the byte-exact canonical encoding of the
    // scenario it parses to — no hand-edited drift.
    for (name, _, _) in PINS {
        let path = corpus_dir().join(format!("{name}.replay"));
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::from_replay_string(&text).unwrap();
        assert_eq!(
            sc.to_replay_string(),
            text,
            "`{name}`: corpus file is not canonical; regenerate with make_corpus"
        );
    }
}

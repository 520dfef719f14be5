//! Oracle regression: a deliberately broken scheduler must be caught.
//!
//! The EDF oracle's value is only demonstrated by a scheduler that
//! actually violates EDF. `LocalScheduler::set_sabotage_fifo` (test hook)
//! replaces eager EDF selection with FIFO-by-tid — the classic wrong
//! answer — and the oracle, rebuilding the runnable-RT
//! set independently from queue-transition records, must flag the first
//! dispatch that skips an earlier deadline. The same workload with the
//! sabotage off must run clean, proving the detection isn't noise.

use nautix::kernel::FnProgram;
use nautix::prelude::*;
use nautix::rt::oracle::OracleConfig;

/// Two periodic threads on CPU 1: `slow` (created first, so lower tid)
/// has a 1 ms period; `fast` a 200 µs period. Whenever both jobs are
/// runnable, EDF must pick `fast`; FIFO-by-tid picks `slow`.
fn run_competing_periodics(sabotage: bool) -> (Vec<(&'static str, String)>, u64) {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(77);
    let sched = cfg.sched;
    let machine = cfg.machine.clone();
    let mut node = Node::new(cfg);
    let suite = node.enable_oracles_with(
        OracleConfig::for_node(node.freq(), &sched, &CostModel::phi(), &machine).collecting(),
    );
    node.set_sabotage_fifo(1, sabotage);

    let spawn_periodic = |node: &mut Node, name: &'static str, period: Nanos, slice: Nanos| {
        let prog = FnProgram::new(move |_cx, n| {
            if n == 0 {
                Action::Call(SysCall::ChangeConstraints(
                    Constraints::periodic(period, slice).build(),
                ))
            } else {
                Action::Compute(1_000_000)
            }
        });
        node.spawn_on(1, name, Box::new(prog)).unwrap()
    };
    spawn_periodic(&mut node, "slow", 1_000_000, 100_000);
    spawn_periodic(&mut node, "fast", 200_000, 20_000);
    node.run_for_ns(10_000_000);

    let suite = suite.borrow();
    let violations = suite
        .violations()
        .iter()
        .map(|v| (v.oracle, v.message.clone()))
        .collect();
    (violations, suite.stats().edf_checks)
}

/// An RT probe plus an always-runnable aperiodic hog on CPU 1 under the
/// canonical three-layer table (background guaranteed 10%). With
/// `set_sabotage_layer` the bucket refill grants four windows' worth of
/// tokens, so the hog overdraws its layer while the honest consumption
/// tally keeps counting — the next replenish record then reports more
/// wall time than the cap admits and the layer oracle must flag it.
fn run_layered_hog(sabotage: bool) -> (Vec<(&'static str, String)>, u64) {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(91);
    cfg.sched.layers = nautix::rt::LayerTable::three_way(
        nautix::rt::LayerSpec {
            guarantee_ppm: 750_000,
            burst_ppm: 0,
        },
        nautix::rt::LayerSpec {
            guarantee_ppm: 100_000,
            burst_ppm: 0,
        },
        nautix::rt::LayerSpec {
            guarantee_ppm: 100_000,
            burst_ppm: 0,
        },
        10_000_000,
    )
    .unwrap();
    let sched = cfg.sched;
    let machine = cfg.machine.clone();
    let mut node = Node::new(cfg);
    let suite = node.enable_oracles_with(
        OracleConfig::for_node(node.freq(), &sched, &CostModel::phi(), &machine).collecting(),
    );
    node.set_sabotage_layer(1, sabotage);

    let probe = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(1_000_000, 300_000).build(),
            ))
        } else {
            Action::Compute(100_000)
        }
    });
    node.spawn_on(1, "probe", Box::new(probe)).unwrap();
    let hog = FnProgram::new(move |_cx, _n| Action::Compute(100_000));
    node.spawn_on(1, "hog", Box::new(hog)).unwrap();
    node.run_for_ns(100_000_000);

    let suite = suite.borrow();
    let violations = suite
        .violations()
        .iter()
        .map(|v| (v.oracle, v.message.clone()))
        .collect();
    (violations, suite.stats().layer_checks)
}

#[test]
fn over_replenish_sabotage_is_caught_by_the_layer_oracle() {
    let (violations, checks) = run_layered_hog(true);
    assert!(checks > 0, "oracle saw no layer records — wiring broken");
    assert!(
        violations
            .iter()
            .any(|(oracle, m)| *oracle == "layer" && m.contains("consumed")),
        "over-generous bucket refill went undetected: {violations:?}"
    );
}

#[test]
fn the_same_layered_workload_unsabotaged_runs_clean() {
    let (violations, checks) = run_layered_hog(false);
    assert!(checks > 0, "oracle saw no layer records — wiring broken");
    assert!(
        violations.is_empty(),
        "clean layered run flagged spuriously: {violations:?}"
    );
}

#[test]
fn fifo_sabotage_is_caught_by_the_edf_oracle() {
    let (violations, checks) = run_competing_periodics(true);
    assert!(checks > 0, "oracle saw no dispatches — wiring broken");
    assert!(
        violations.iter().any(|(oracle, _)| *oracle == "edf"),
        "FIFO dispatch over an earlier deadline went undetected: {violations:?}"
    );
}

#[test]
fn the_same_workload_unsabotaged_runs_clean() {
    let (violations, checks) = run_competing_periodics(false);
    assert!(checks > 0, "oracle saw no dispatches — wiring broken");
    assert!(
        violations.is_empty(),
        "clean EDF run flagged spuriously: {violations:?}"
    );
}

//! Regression tests for the fault-injection determinism contract.
//!
//! 1. A fault-laden workload is a pure function of its grid point and
//!    seed: worker-thread count and node pooling (arena reuse through
//!    `Node::reset`) must never leak into results, even with every
//!    injection lane firing and degradation responding.
//! 2. A disabled `FaultPlan` is free: the machine draws nothing from the
//!    deterministic RNG and schedules nothing for it, so the paper-scale
//!    reproduction's total simulated-event count stays byte-identical to
//!    the seed value `repro_all --paper` prints as its harness total.

use nautix_bench::harness::NodePool;
use nautix_bench::throttle::Granularity;
use nautix_bench::{ablations, fault_sweep, groupsync, missrate, throttle, Scale};
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;

#[test]
fn fault_laden_sweep_is_identical_across_thread_counts() {
    let (serial, s1) =
        fault_sweep::sweep_with_stats(&HarnessConfig::with_threads(1), Scale::Quick, 77);
    let (parallel, s4) =
        fault_sweep::sweep_with_stats(&HarnessConfig::with_threads(4), Scale::Quick, 77);
    assert_eq!(s1.threads, 1);
    assert_eq!(s4.threads, 4);
    assert_eq!(serial, parallel, "thread count changed fault-sweep results");
    assert_eq!(s1.events, s4.events, "simulated event counts must match");
    // The sweep genuinely injected: this is not a vacuous comparison.
    assert!(serial.iter().any(|p| p.faults.total() > 0));
}

#[test]
fn fault_laden_pooled_node_matches_fresh_construction() {
    // Warm the pool on a different grid point first, so what's under test
    // is `Node::reset` replaying fault-lane arming on a dirty node.
    let mut pool = NodePool::new();
    let _ = fault_sweep::measure_point_pooled(&mut pool, 1.0, 1_000_000, 30, 40, 3);

    for &(intensity, period_ns, slice_pct) in &[
        (0.0, 1_000_000u64, 30u64),
        (0.5, 100_000, 60),
        (1.0, 30_000, 60),
    ] {
        let fresh = fault_sweep::measure_point(intensity, period_ns, slice_pct, 80, 77);
        let pooled =
            fault_sweep::measure_point_pooled(&mut pool, intensity, period_ns, slice_pct, 80, 77);
        assert_eq!(
            fresh, pooled,
            "reset node diverged from fresh node at \
             ({intensity}, {period_ns}, {slice_pct})"
        );
    }
}

/// The seed event count of the full paper-scale reproduction (the
/// simulated-event total `repro_all --paper` prints): the sum over its
/// instrumented sections, reconstructed here with the same scales and
/// seeds `repro_all` uses. Every node in these sections carries the default —
/// disabled — `FaultPlan`, so the count proves disabled lanes perturb
/// nothing: no RNG draw, no scheduled event, no drift.
const SEED_EVENT_COUNT: u64 = 45_472_710;

#[test]
#[ignore = "paper scale: ~30 s in a debug build; CI's oracles job runs it with --include-ignored"]
fn disabled_fault_plan_reproduces_the_seed_event_count() {
    let hc = HarnessConfig::with_threads(4);
    let mut events = 0u64;
    events += missrate::sweep_with_stats(&hc, Platform::Phi, Scale::Paper, 5)
        .1
        .events;
    events += missrate::sweep_with_stats(&hc, Platform::R415, Scale::Paper, 5)
        .1
        .events;
    events += groupsync::fig12_with_stats(&hc, Scale::Paper, 21).1.events;
    events += throttle::run_with_stats(&hc, Granularity::Coarse, Scale::Paper, 3)
        .1
        .events;
    events += throttle::run_with_stats(&hc, Granularity::Fine, Scale::Paper, 3)
        .1
        .events;
    events += ablations::eager_vs_lazy_with_stats(&hc, 31).1.events;
    events += ablations::util_limit_knob_with_stats(&hc, 31).1.events;
    assert_eq!(
        events, SEED_EVENT_COUNT,
        "disabled fault lanes changed the paper-scale event count"
    );
}

//! Regression test: a pooled node reset in place is byte-identical to a
//! freshly constructed one. `Node::reset` replays construction exactly
//! (same RNG draw order, same ThreadId assignment, same queue tie-break
//! state), so arena reuse must be invisible in every trial result. CI runs
//! this binary under both `NAUTIX_THREADS=1` and `NAUTIX_THREADS=4`, which
//! also varies how trials are distributed over warm pools.

use nautix_bench::harness::NodePool;
use nautix_bench::topology::{self, TopoPoint};
use nautix_bench::{missrate, Scale};
use nautix_hw::{MachineConfig, Platform, Topology};
use nautix_kernel::{Action, Constraints, FnProgram, SysCall};
use nautix_rt::{AdmissionPolicy, HarnessConfig, Node, NodeConfig, SchedConfig, StealPolicy};

/// A wider, thread-heavier trial than any missrate point: 64 CPUs on a
/// 2×4 tree and 128 stolen workers, so the node it leaves behind has a
/// thread high-water mark of 192 and 64 CPUs' worth of queues.
fn storm(pool: &mut NodePool) -> TopoPoint {
    topology::steal_storm(pool, 64, Topology::tree(2, 4), StealPolicy::LlcFirst, 16, 7)
}

#[test]
fn pooled_reset_node_matches_fresh_construction() {
    // Warm the pool on a *different* configuration first, so what's under
    // test is the reset path of a dirty node, not first construction: a
    // wider node with more threads, which every point below must shrink.
    let mut pool = NodePool::new();
    let _ = storm(&mut pool);

    for &(platform, period, slice, jobs, seed) in &[
        (Platform::Phi, 1_000_000u64, 500_000u64, 50u64, 5u64),
        (Platform::Phi, 10_000, 7_000, 80, 9),
        (Platform::R415, 4_000, 400, 80, 7),
    ] {
        let fresh = missrate::measure_point(platform, period, slice, jobs, seed);
        let pooled = missrate::measure_point_pooled(&mut pool, platform, period, slice, jobs, seed);
        assert_eq!(
            fresh, pooled,
            "reset node diverged from fresh node at \
             ({platform:?}, {period}, {slice}, {jobs}, {seed})"
        );
    }
}

/// The reverse direction: a node grown from a small trial to the storm
/// reproduces the storm on a fresh pool.
#[test]
fn pooled_node_grown_from_a_small_trial_matches_fresh_construction() {
    let mut pool = NodePool::new();
    let _ = missrate::measure_point_pooled(&mut pool, Platform::Phi, 10_000, 7_000, 80, 9);
    assert_eq!(storm(&mut pool), storm(&mut NodePool::new()));
}

/// Node configuration for the widening-churn trial: every admission
/// verdict runs (or memo-serves) the hyperperiod simulation.
fn churn_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(64);
    cfg.sched = SchedConfig {
        policy: AdmissionPolicy::HyperperiodSim {
            overhead_ns: 1_000,
            window_cap_ns: 20_000_000,
        },
        ..SchedConfig::throughput()
    };
    cfg
}

/// One widen → re-admit → (rejected) → demote trial with real compute
/// between the constraint changes; returns everything a warm memo could
/// conceivably perturb.
fn churn_trial(node: &mut Node) -> (Constraints, u64, u64) {
    let tight = Constraints::periodic(1_000_000, 300_000).build();
    let wide = Constraints::periodic(1_250_000, 300_000).build();
    let hog = Constraints::periodic(1_000_000, 990_100).build();
    let prog = FnProgram::new(move |_cx, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(tight)),
        2 => Action::Call(SysCall::ChangeConstraints(wide)),
        4 => Action::Call(SysCall::ChangeConstraints(tight)),
        6 => Action::Call(SysCall::ChangeConstraints(wide)),
        8 => Action::Call(SysCall::ChangeConstraints(hog)), // rejected
        10 => Action::Call(SysCall::ChangeConstraints(Constraints::default_aperiodic())),
        n if n < 12 => Action::Compute(130_000),
        _ => Action::Exit,
    });
    let tid = node.spawn_on(1, "churn", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    let st = node.thread_state(tid);
    (st.constraints, st.stats.missed, st.stats.executed_cycles)
}

/// The warm sim memo of a pooled node must be invisible in trial results:
/// the widen → re-admit → demote churn returns byte-identical outcomes on
/// a reset node, while the admission counters prove the memo actually
/// served the pooled run (all hits where the fresh run simulated).
#[test]
fn warm_sim_memo_is_invisible_in_pooled_trial_results() {
    let mut fresh_node = Node::new(churn_cfg());
    let fresh = churn_trial(&mut fresh_node);
    let fa = fresh_node.admission_stats();
    assert_eq!(fa.sim_misses, 2, "fresh run simulates both canonical sets");
    assert_eq!(fa.sim_hits, 3, "re-admissions and rollback hit the memo");
    assert_eq!(fa.rollbacks, 1, "the over-budget change rolls back");

    // Dirty the pool on a different workload, then run the same trial
    // twice: the second pass sees a node whose memo is fully warm.
    let mut pool = NodePool::new();
    let _ = missrate::measure_point_pooled(&mut pool, Platform::Phi, 100_000, 50_000, 20, 11);
    let warm = churn_trial(pool.node(churn_cfg()));
    assert_eq!(warm, fresh, "reset node diverged from fresh node");
    let node = pool.node(churn_cfg());
    let pooled = churn_trial(node);
    let pa = node.admission_stats();
    assert_eq!(pooled, fresh, "warm memo perturbed a trial result");
    assert_eq!(pa.sim_misses, 0, "warm memo: nothing left to simulate");
    assert_eq!(pa.sim_hits, fa.sim_hits + fa.sim_misses);
    assert_eq!(pa.rollbacks, fa.rollbacks);
    assert_eq!(node.sim_cache_len(), 2);
}

#[test]
fn pooled_sweep_matches_fresh_per_point_results() {
    // The full sweep runs on per-worker pools; every point must equal an
    // isolated fresh run.
    let (sweep, _) = missrate::sweep_with_stats(
        &HarnessConfig::with_threads(4),
        Platform::Phi,
        Scale::Quick,
        5,
    );
    let grid = missrate::trial_grid(Platform::Phi, Scale::Quick);
    assert_eq!(sweep.len(), grid.len());
    for (point, &(period, slice, jobs)) in sweep.iter().zip(&grid) {
        let fresh = missrate::measure_point(Platform::Phi, period, slice, jobs, 5);
        assert_eq!(
            *point, fresh,
            "pooled sweep diverged from fresh node at ({period}, {slice})"
        );
    }
}

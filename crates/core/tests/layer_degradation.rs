//! Degradation stays inside the victim's layer.
//!
//! The PR-4 degradation ladder (widen the period, then demote to
//! aperiodic) interacts with layered bandwidth control in exactly one
//! sanctioned way: a faulting periodic thread stays in the RT layer
//! while it is widened (its class never changes) and lands in the
//! *aperiodic* layer when demoted. It never passes through the sporadic
//! class, so it can never be charged against the batch layer's budget —
//! and a batch-layer thread co-resident with a chronically faulting RT
//! probe keeps its full bandwidth guarantee throughout the churn.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, SysCall, ThreadId};
use nautix_rt::{DegradePolicy, LayerSpec, LayerTable, Node, NodeConfig, Timeline};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const HORIZON_NS: u64 = 400_000_000;
const REPLENISH_NS: u64 = 10_000_000;

/// rt 60%, batch 20%, bg 20%.
fn layers() -> LayerTable {
    LayerTable::three_way(
        LayerSpec {
            guarantee_ppm: 600_000,
            burst_ppm: 0,
        },
        LayerSpec {
            guarantee_ppm: 200_000,
            burst_ppm: 0,
        },
        LayerSpec {
            guarantee_ppm: 200_000,
            burst_ppm: 0,
        },
        REPLENISH_NS,
    )
    .unwrap()
}

fn node(seed: u64, degrade: DegradePolicy) -> Node {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(seed);
    // Admission off so the deliberately infeasible probe gets mapped at
    // all — degradation is the mechanism under test, not the gate.
    cfg.sched.admission_enabled = false;
    cfg.sched.degrade = degrade;
    cfg.sched.layers = layers();
    Node::new(cfg)
}

/// A periodic probe whose every job needs more service than one full
/// replenish window of its layer can supply before the deadline: period
/// equal to the replenish window, slice 9.5 ms against a 6 ms-per-window
/// RT bucket (admission is off, so the overcommit maps). Each job drains
/// the window, waits out the throttle, and completes past its deadline —
/// no job can ever meet, so the consecutive-miss counter climbs straight
/// through any threshold: the canonical "faulting RT thread". Widening
/// lowers the per-period demand until the 60% service rate covers a
/// whole job inside its (stretched) deadline, at which point the probe
/// stabilizes.
fn spawn_faulting_probe(node: &mut Node) -> ThreadId {
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(10_000_000, 9_500_000)
                    .phase(10_000_000)
                    .build(),
            ))
        } else {
            Action::Compute(100_000)
        }
    });
    node.spawn_on(1, "faulty", Box::new(prog)).unwrap()
}

/// An always-runnable batch-layer thread: one enormous sporadic burst
/// whose deadline never arrives inside the horizon, so it stays in the
/// sporadic class (and therefore the batch layer) for the whole run.
fn spawn_batch_worker(node: &mut Node) -> ThreadId {
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::sporadic(2_000_000_000, 4_000_000_000).build(),
            ))
        } else {
            Action::Compute(100_000)
        }
    });
    node.spawn_on(1, "batch", Box::new(prog)).unwrap()
}

/// Record `node`'s execution timeline.
fn record_timeline(node: &mut Node) -> Rc<RefCell<Timeline>> {
    node.observe(Timeline::new(node.machine.n_cpus(), 1 << 22, node.freq()))
}

/// Wall-time share `tid` received, from the execution timeline.
fn share_of(node: &Node, timeline: &RefCell<Timeline>, tid: ThreadId) -> f64 {
    timeline.borrow_mut().finish(node.machine.now());
    let ns: u64 = timeline
        .borrow()
        .spans()
        .iter()
        .filter(|s| s.tid == Some(tid))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    ns as f64 / HORIZON_NS as f64
}

/// The batch worker's guaranteed share, minus replenish-quantization
/// slack (one scheduling pass of overdraft per window plus phase skew).
const BATCH_FLOOR: f64 = 0.2 - 0.03;

#[test]
fn widening_probe_never_steals_batch_bandwidth() {
    // max_widen high enough that the probe widens for the whole horizon
    // without ever being demoted: it must stay periodic (RT layer) and
    // the batch worker must keep its full 20%.
    let mut n = node(
        41,
        DegradePolicy {
            enabled: true,
            miss_threshold: 2,
            widen_pct: 25,
            max_widen: 1_000,
        },
    );
    let timeline = record_timeline(&mut n);
    let batch = spawn_batch_worker(&mut n);
    let probe = spawn_faulting_probe(&mut n);
    n.run_for_ns(HORIZON_NS);

    let d = n.degrade_stats();
    assert!(d.periodic_widenings > 0, "the probe must actually widen");
    assert_eq!(d.periodic_demotions, 0, "max_widen must never be reached");
    assert!(
        matches!(
            n.thread_state(probe).constraints,
            Constraints::Periodic { .. }
        ),
        "a widened probe stays periodic (RT layer)"
    );
    let share = share_of(&n, &timeline, batch);
    assert!(
        share >= BATCH_FLOOR,
        "widening churn ate the batch guarantee: share {share:.4} < {BATCH_FLOOR}"
    );
}

#[test]
fn demoted_probe_lands_in_the_aperiodic_layer_not_batch() {
    // max_widen 0: the first threshold crossing demotes outright. The
    // probe must end aperiodic (background layer) — and the batch
    // worker's guarantee still holds while the demoted probe competes
    // from the background bucket.
    let mut n = node(
        43,
        DegradePolicy {
            enabled: true,
            miss_threshold: 2,
            widen_pct: 25,
            max_widen: 0,
        },
    );
    let timeline = record_timeline(&mut n);
    let batch = spawn_batch_worker(&mut n);
    let probe = spawn_faulting_probe(&mut n);
    n.run_for_ns(HORIZON_NS);

    let d = n.degrade_stats();
    assert!(d.periodic_demotions > 0, "the probe must be demoted");
    assert!(
        matches!(
            n.thread_state(probe).constraints,
            Constraints::Aperiodic { .. }
        ),
        "a demoted probe is aperiodic (background layer)"
    );
    let share = share_of(&n, &timeline, batch);
    assert!(
        share >= BATCH_FLOOR,
        "demotion churn ate the batch guarantee: share {share:.4} < {BATCH_FLOOR}"
    );
}

proptest! {
    /// Any degradation policy, any seed: the ladder only ever leaves the
    /// faulting thread periodic (widened) or aperiodic (demoted) — never
    /// sporadic, so never mapped into the batch layer — and the batch
    /// worker keeps its guarantee through the whole churn.
    #[test]
    fn degradation_ladder_respects_layer_boundaries(
        seed in 0u64..u64::MAX,
        miss_threshold in 1u32..4,
        widen_pct in prop::sample::select(vec![10u32, 25, 50]),
        max_widen in 0u32..4,
    ) {
        let mut n = node(
            seed,
            DegradePolicy {
                enabled: true,
                miss_threshold,
                widen_pct,
                max_widen,
            },
        );
        let timeline = record_timeline(&mut n);
        let batch = spawn_batch_worker(&mut n);
        let probe = spawn_faulting_probe(&mut n);
        n.run_for_ns(HORIZON_NS);

        let d = n.degrade_stats();
        prop_assert!(
            d.periodic_widenings + d.periodic_demotions > 0,
            "vacuous case: the probe never degraded"
        );
        let end = n.thread_state(probe).constraints;
        prop_assert!(
            !matches!(end, Constraints::Sporadic { .. }),
            "degradation must never produce a sporadic (batch-layer) class"
        );
        let table = layers();
        prop_assert!(
            table.layer_of(&end) != table.map_sporadic(),
            "the degraded probe ended in the batch layer"
        );
        let share = share_of(&n, &timeline, batch);
        prop_assert!(
            share >= BATCH_FLOOR,
            "degradation churn ate the batch guarantee: share {share:.4}"
        );
    }
}

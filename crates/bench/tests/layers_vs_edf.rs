//! Differential suite: the layered scheduler degenerates to plain EDF.
//!
//! A single layer guaranteeing 100% of the CPU can never throttle, so the
//! entire layer mechanism — bucket charging, epoch rolls, throttle-aware
//! selection, replenish timer clamps — must be *observably absent*. The
//! contract locked down here is ordering: layers restrict which threads
//! are eligible, they never reorder the eligible ones. Any divergence in
//! the execution timeline, per-thread deadline outcomes, event count, or
//! stats (beyond the replenish tally itself) between the unlayered
//! default and a 100%-guarantee single layer is a bug in that contract.
//!
//! The randomized cases feed both engines the same constraint-churn
//! script: threads that hop between periodic points, sporadic bursts,
//! and plain aperiodic compute at random invoke indices. CI runs this at
//! `PROPTEST_CASES=256`.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, SysCall};
use nautix_rt::{LayerTable, Node, NodeConfig, Span, Timeline, PPM};
use nautix_stats::StatsSnapshot;
use proptest::prelude::*;
use proptest::TestRng;

const HORIZON_NS: u64 = 20_000_000;

/// One thread of a churn script: where it lives and which constraints it
/// requests at which invoke counts. Generated once per case and fed
/// verbatim to both runs.
#[derive(Clone, Debug)]
struct ThreadPlan {
    cpu: usize,
    work_cycles: u64,
    script: Vec<(u64, Constraints)>,
}

fn pick_constraints(rng: &mut TestRng) -> Constraints {
    match rng.below(4) {
        0 => Constraints::default_aperiodic(),
        1 => {
            let size = 50_000 + rng.below(100_000);
            let deadline = size * (3 + rng.below(5));
            Constraints::sporadic(size, deadline).build()
        }
        _ => {
            let period = [100_000u64, 200_000, 250_000, 500_000, 1_000_000][rng.below(5) as usize];
            let slice = (period * (5 + rng.below(20)) / 100).max(2_000);
            Constraints::periodic(period, slice).phase(period).build()
        }
    }
}

/// 2–5 threads on CPUs 1–2, each with 1–4 constraint changes at
/// increasing invoke indices. Thread 0 always opens periodic so every
/// case exercises RT dispatch, not just aperiodic round-robin.
fn gen_plans(seed: u64) -> Vec<ThreadPlan> {
    let mut rng = TestRng::seed_from(seed);
    let n = 2 + rng.below(4) as usize;
    (0..n)
        .map(|i| {
            let cpu = 1 + rng.below(2) as usize;
            let work_cycles = 50_000 + rng.below(150_000);
            let mut script = Vec::new();
            let first = if i == 0 {
                let period = 250_000 + 50_000 * rng.below(10);
                Constraints::periodic(period, period / 5)
                    .phase(period)
                    .build()
            } else {
                pick_constraints(&mut rng)
            };
            script.push((0, first));
            let mut at = 0;
            for _ in 0..rng.below(4) {
                at += 5 + rng.below(40);
                script.push((at, pick_constraints(&mut rng)));
            }
            ThreadPlan {
                cpu,
                work_cycles,
                script,
            }
        })
        .collect()
}

struct Run {
    events: u64,
    snapshot: StatsSnapshot,
    spans: Vec<Span>,
    outcomes: Vec<(u64, u64)>,
}

fn build_node(layers: LayerTable, seed: u64) -> Node {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(3).with_seed(seed);
    cfg.sched.layers = layers;
    Node::new(cfg)
}

fn spawn_plans(node: &mut Node, plans: &[ThreadPlan]) -> Vec<nautix_kernel::ThreadId> {
    plans
        .iter()
        .map(|p| {
            let script = p.script.clone();
            let work = p.work_cycles;
            let prog = FnProgram::new(move |_cx, n| match script.iter().find(|(at, _)| *at == n) {
                Some((_, c)) => Action::Call(SysCall::ChangeConstraints(*c)),
                None => Action::Compute(work),
            });
            node.spawn_on(p.cpu, "churn", Box::new(prog)).unwrap()
        })
        .collect()
}

fn run_churn(layers: LayerTable, plans: &[ThreadPlan], seed: u64) -> Run {
    let mut node = build_node(layers, seed);
    let timeline = node.observe(Timeline::new(node.machine.n_cpus(), 1 << 20, node.freq()));
    let tids = spawn_plans(&mut node, plans);
    node.run_for_ns(HORIZON_NS);
    let outcomes = tids
        .iter()
        .map(|&t| {
            let s = &node.thread_state(t).stats;
            (s.met, s.missed)
        })
        .collect();
    timeline.borrow_mut().finish(node.machine.now());
    let spans = timeline.borrow().spans().to_vec();
    Run {
        events: node.machine.events_processed(),
        snapshot: node.stats_snapshot(),
        spans,
        outcomes,
    }
}

/// The equivalence judgment. The replenish tally is the one legitimate
/// difference (the active table rolls its epoch counter); everything
/// else must be byte-identical, and the layered run must demonstrably
/// have exercised the layer path.
fn assert_equivalent(mut base: Run, mut layered: Run) {
    assert_eq!(
        layered.snapshot.layer_throttles, 0,
        "an exempt layer can never throttle"
    );
    assert!(
        layered.snapshot.layer_replenishes > 0,
        "vacuous case: the layer path never ran"
    );
    assert_eq!(
        base.snapshot.layer_replenishes, 0,
        "the default table must keep the unlayered fast path"
    );
    base.snapshot.layer_replenishes = 0;
    layered.snapshot.layer_replenishes = 0;
    assert_eq!(base.events, layered.events, "event counts diverged");
    assert_eq!(
        base.outcomes, layered.outcomes,
        "per-thread met/missed diverged"
    );
    assert_eq!(base.spans, layered.spans, "dispatch order diverged");
    assert_eq!(base.snapshot, layered.snapshot, "stats diverged");
}

/// Deterministic anchor at a fixed seed, independent of the generator.
#[test]
fn reference_churn_script_is_layer_invisible() {
    let plans = gen_plans(0xED0F);
    let base = run_churn(LayerTable::default(), &plans, 7);
    let layered = run_churn(
        LayerTable::single(PPM as u32, 0, 2_000_000).unwrap(),
        &plans,
        7,
    );
    assert_equivalent(base, layered);
}

/// Lockstep variant: the two nodes advance event by event and must agree
/// on the machine clock after every single step, not just at the end —
/// a divergence is pinned to the exact event where it first appears.
#[test]
fn lockstep_runs_agree_at_every_event() {
    let plans = gen_plans(0x10C5);
    let mut a = build_node(LayerTable::default(), 11);
    let mut b = build_node(LayerTable::single(PPM as u32, 0, 1_000_000).unwrap(), 11);
    spawn_plans(&mut a, &plans);
    spawn_plans(&mut b, &plans);
    let mut steps = 0u64;
    loop {
        let ra = a.step();
        let rb = b.step();
        assert_eq!(ra, rb, "one run went quiescent first (step {steps})");
        assert_eq!(
            a.machine.now(),
            b.machine.now(),
            "machine clocks diverged at step {steps}"
        );
        steps += 1;
        if !ra || steps >= 20_000 {
            break;
        }
    }
    assert!(steps > 1_000, "lockstep run did too little work");
}

proptest! {
    /// Random churn scripts, random replenish windows and burst budgets:
    /// the 100%-guarantee single layer reproduces plain EDF exactly.
    #[test]
    fn exempt_single_layer_reproduces_plain_edf(
        seed in 0u64..u64::MAX,
        replenish in prop::sample::select(vec![
            500_000u64, 1_000_000, 2_000_000, 3_333_333, 7_000_000,
        ]),
        burst in prop::sample::select(vec![0u32, 250_000]),
    ) {
        let plans = gen_plans(seed);
        let base = run_churn(LayerTable::default(), &plans, seed);
        let layered = run_churn(
            LayerTable::single(PPM as u32, burst, replenish).unwrap(),
            &plans,
            seed,
        );
        assert_equivalent(base, layered);
    }
}

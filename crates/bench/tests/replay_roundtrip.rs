//! Satellite 1: the replay codec round-trips every representable
//! scenario, and a replayed quick trial reproduces the original's event
//! count and stats snapshot byte for byte — pooled and fresh, serial and
//! fanned across 4 worker threads.

use nautix_bench::harness::{run_trials_pooled, NodePool};
use nautix_bench::{Scenario, TrialOutcome, Workload};
use nautix_des::text::Value;
use nautix_hw::{Cost, FaultPlan, MachineConfig, Platform, SmiConfig, TimerMode, Topology};
use nautix_rt::{AdmissionPolicy, DegradePolicy, HarnessConfig, SchedMode, StealPolicy};
use proptest::prelude::*;
use proptest::TestRng;

/// A randomized but structurally valid scenario, derived entirely from
/// `seed`. Covers both workloads, both platforms, both queue backends,
/// flat and hierarchical topologies, every admission policy, SMI and
/// fault plans on and off, and perturbed node knobs — the whole codec
/// surface, not just the two sweep presets.
fn arb_scenario(seed: u64) -> Scenario {
    let mut rng = TestRng::seed_from(seed);
    let mut sc = match rng.below(3) {
        0 => {
            let platform = if rng.below(2) == 0 {
                Platform::Phi
            } else {
                Platform::R415
            };
            let period_ns = 10_000 + rng.below(1_000_000);
            let slice_ns = (period_ns * (10 + rng.below(80)) / 100).max(50);
            Scenario::missrate(platform, period_ns, slice_ns, 10 + rng.below(200), seed)
        }
        1 => {
            let intensity = rng.below(5) as f64 / 4.0;
            Scenario::fault_mix(
                intensity,
                30_000 + rng.below(500_000),
                20 + rng.below(60),
                10 + rng.below(200),
                seed,
            )
        }
        _ => Scenario::cluster(
            1 + rng.below(16) as usize,
            1 + rng.below(16) as usize,
            rng.below(100_000),
            nautix_cluster::PlacementStrategy::ALL[rng.below(4) as usize],
            seed,
        ),
    };
    sc.name = format!("arb_{seed:016x}");
    let m = &mut sc.machine;
    if rng.below(2) == 0 {
        m.topology =
            Topology::parse(&format!("{}x{}", 1 + rng.below(4), 1 + rng.below(4))).unwrap();
    }
    if rng.below(3) == 0 {
        m.timer_mode = match rng.below(2) {
            0 => TimerMode::OneShot {
                tick_cycles: 1 + rng.below(64),
            },
            _ => TimerMode::TscDeadline,
        };
    }
    if rng.below(3) == 0 {
        m.smi = SmiConfig::noisy(m.platform.freq(), 1 + rng.below(10_000), 1 + rng.below(100));
    }
    if rng.below(3) == 0 {
        m.faults = FaultPlan::noisy(m.platform.freq(), (1 + rng.below(8)) as f64 / 4.0);
    }
    m.tsc_writable = rng.below(2) == 0;
    m.boot_skew_max = rng.below(1 << 20);
    let s = &mut sc.sched;
    s.policy = match rng.below(3) {
        0 => AdmissionPolicy::EdfBound,
        1 => AdmissionPolicy::RmBound,
        _ => AdmissionPolicy::HyperperiodSim {
            overhead_ns: rng.below(10_000),
            window_cap_ns: 1 + rng.below(1 << 30),
        },
    };
    s.mode = if rng.below(2) == 0 {
        SchedMode::Eager
    } else {
        SchedMode::Lazy
    };
    s.steal = if rng.below(2) == 0 {
        StealPolicy::LlcFirst
    } else {
        StealPolicy::Uniform
    };
    s.work_stealing = rng.below(2) == 0;
    s.lazy_margin_ns = rng.below(100_000);
    s.util_limit_ppm = 500_000 + rng.below(500_000);
    s.degrade = DegradePolicy {
        enabled: rng.below(2) == 0,
        miss_threshold: 1 + rng.below(8) as u32,
        widen_pct: rng.below(100) as u32,
        max_widen: rng.below(5) as u32,
    };
    sc.laden = (0..1 + rng.below(3)).map(|c| c as usize).collect();
    sc.calib_rounds = 1 + rng.below(64) as u32;
    sc.max_threads = 8 + rng.below(120) as usize;
    sc.steal_poll_ns = 1_000 + rng.below(10_000_000);
    sc.phase_correction = rng.below(2) == 0;
    sc.oracles = rng.below(4) == 0;
    sc.sabotage_fifo = if rng.below(8) == 0 { Some(1) } else { None };
    sc
}

proptest! {
    #[test]
    fn any_scenario_round_trips_canonically(seed in 0u64..u64::MAX) {
        let sc = arb_scenario(seed);
        let text = sc.to_replay_string();
        let back = Scenario::from_replay_string(&text).unwrap();
        prop_assert_eq!(&back, &sc);
        // Canonical: re-encoding the parse is byte-identical.
        prop_assert_eq!(back.to_replay_string(), text);
    }

    #[test]
    fn any_single_line_corruption_is_detected_or_equivalent(seed in 0u64..u64::MAX) {
        // Deleting any one line of a replay must never parse into the
        // same scenario silently; the strict ordered codec rejects it.
        let sc = arb_scenario(seed);
        let text = sc.to_replay_string();
        let lines: Vec<&str> = text.lines().collect();
        let mut rng = TestRng::seed_from(seed ^ 0x9E3779B97F4A7C15);
        let victim = rng.below(lines.len() as u64) as usize;
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        prop_assert!(Scenario::from_replay_string(&mutated).is_err());
    }
}

/// The quick trials the replay-reproduction tests rerun; small enough
/// that each runs in milliseconds.
fn quick_trials() -> Vec<Scenario> {
    vec![
        Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 40, 5),
        Scenario::fault_mix(0.5, 100_000, 60, 60, 11),
        Scenario::cluster(2, 4, 80, nautix_cluster::PlacementStrategy::BestFit, 13),
    ]
}

#[test]
fn replayed_trial_reproduces_snapshot_byte_for_byte_fresh_and_pooled() {
    for sc in quick_trials() {
        let original = sc.run_fresh();
        let replayed = Scenario::from_replay_string(&sc.to_replay_string()).unwrap();

        // Fresh node.
        let fresh = replayed.run_fresh();
        assert_eq!(fresh, original, "fresh replay diverged for `{}`", sc.name);
        assert_eq!(
            fresh.snapshot.to_text(),
            original.snapshot.to_text(),
            "snapshot text must be byte-identical"
        );

        // Pooled node, pre-dirtied by a different trial so reset is real.
        let mut pool = NodePool::new();
        let _ = Scenario::missrate(Platform::R415, 50_000, 10_000, 30, 9).run_pooled(&mut pool);
        let pooled = replayed.run_pooled(&mut pool);
        assert_eq!(pooled, original, "pooled replay diverged for `{}`", sc.name);
        assert_eq!(pooled.events, original.events);
    }
}

#[test]
fn replayed_batch_is_thread_count_invariant() {
    // Run a batch of replay-parsed scenarios through the trial harness at
    // 1 and 4 threads: outcome vectors (snapshots included) must match.
    let scenarios: Vec<Scenario> = quick_trials()
        .iter()
        .flat_map(|sc| {
            (0..3u64).map(|k| {
                let mut v = Scenario::from_replay_string(&sc.to_replay_string()).unwrap();
                v.machine.seed = v.machine.seed.wrapping_add(k);
                v
            })
        })
        .collect();
    let run = |threads: usize| -> Vec<TrialOutcome> {
        run_trials_pooled(
            &HarnessConfig::with_threads(threads),
            scenarios.clone(),
            |pool, sc| {
                let out = sc.run_recorded(pool);
                let events = out.events;
                (out, events)
            },
        )
        .results
    };
    let serial = run(1);
    let fanned = run(4);
    assert_eq!(serial, fanned);
    for out in &serial {
        assert_eq!(out.snapshot.trials, 1);
        assert_eq!(out.snapshot.events, out.events);
    }
}

#[test]
fn workload_variants_are_distinguished_by_the_codec() {
    let a = Workload::MissRate {
        period_ns: 1,
        slice_ns: 2,
        jobs: 3,
    };
    let b = Workload::FaultMix {
        period_ns: 1,
        slice_pct: 2,
        jobs: 3,
    };
    assert_ne!(a.encode(), b.encode());
}

/// Guard the constructor-capture path: recording a scenario from the live
/// sweep machinery and re-deriving its `MachineConfig` must agree with
/// building the config directly.
#[test]
fn node_config_rebuild_is_lossless() {
    let sc = Scenario::fault_mix(1.0, 30_000, 60, 150, 7);
    let cfg = sc.node_config();
    let direct = {
        let machine = MachineConfig::for_platform(Platform::Phi)
            .with_cpus(3)
            .with_seed(7);
        let mut cfg = nautix_rt::NodeConfig::for_machine(machine);
        cfg.machine.faults = FaultPlan::noisy(cfg.machine.platform.freq(), 1.0);
        cfg.sched.degrade = DegradePolicy {
            miss_threshold: 2,
            ..DegradePolicy::enabled()
        };
        cfg
    };
    assert_eq!(cfg.machine, direct.machine);
    assert_eq!(cfg.sched, direct.sched);
    assert_eq!(cfg.laden, direct.laden);
    assert_eq!(cfg.calib_rounds, direct.calib_rounds);
    assert_eq!(cfg.max_threads, direct.max_threads);
    assert_eq!(cfg.steal_poll_ns, direct.steal_poll_ns);
    assert_eq!(cfg.phase_correction, direct.phase_correction);
    // Smi/Cost types are in the codec surface; exercise their encodes.
    let c = Cost::new(10, 3);
    assert_eq!(Cost::decode(&c.encode()).unwrap(), c);
    let s = SmiConfig::disabled();
    assert_eq!(SmiConfig::decode(&s.encode()).unwrap(), s);
}

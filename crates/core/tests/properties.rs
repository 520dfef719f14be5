//! Property-based tests of the scheduler's core invariants: admission
//! soundness, ledger conservation, phase-correction alignment, EDF
//! simulation consistency, and calibration bounds.

use nautix_kernel::{task_set_signature, AdmissionError, Constraints};
use nautix_rt::admission::{edf_demand_feasible, simulate_edf_feasible};
use nautix_rt::{compile_cyclic, AdmissionPolicy, CpuLoad, CyclicTask, SchedConfig, SimCache, PPM};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn arb_periodic() -> impl Strategy<Value = Constraints> {
    // Periods 10 µs .. 10 ms (multiples of the 100 ns granularity),
    // slices 5..90% of the period.
    (100u64..100_000, 5u64..90).prop_map(|(p100, pct)| {
        let period = p100 * 100;
        let slice = (period * pct / 100).max(500);
        Constraints::periodic(period, slice).build()
    })
}

/// A tenant-shaped task: a harmonic period from the cluster's palette
/// (1–16 ms) and a slice of 0.1–40% of it.
fn arb_harmonic() -> impl Strategy<Value = (u64, u64)> {
    let periods = prop::sample::select(vec![
        1_000_000u64,
        2_000_000,
        4_000_000,
        8_000_000,
        16_000_000,
    ]);
    (periods, 1_000u64..400_000).prop_map(|(period, ppm)| (period, period * ppm / PPM))
}

/// A periodic constraint's `(period, slice)`.
fn shape(c: &Constraints) -> (u64, u64) {
    match *c {
        Constraints::Periodic { period, slice, .. } => (period, slice),
        _ => unreachable!(),
    }
}

/// Windows for `set` under a cap of `cap`: the capped hyperperiod and the
/// cap itself (both at least the hyperperiod when it fits), one task's
/// deadline inside that, the nanosecond before it, and an arbitrary cut.
fn windows(set: &[(u64, u64)], cap: u64, pick: usize, cut: u64) -> [u64; 5] {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let h = set
        .iter()
        .fold(1u64, |h, &(p, _)| (h / gcd(h, p)).saturating_mul(p));
    let limit = h.min(cap);
    let period = set[pick % set.len()].0;
    let deadline = period * (1 + cut % (limit / period));
    [limit, cap, deadline, deadline - 1, limit / 1_000 * cut]
}

proptest! {
    /// The EDF-bound ledger never admits past its budget, and the admitted
    /// utilization it reports is exactly the sum of the admitted tasks'.
    #[test]
    fn ledger_conserves_utilization(cs in prop::collection::vec(arb_periodic(), 1..20)) {
        let cfg = SchedConfig::default();
        let mut load = CpuLoad::new();
        let mut admitted: Vec<Constraints> = Vec::new();
        for c in &cs {
            if load.admit(&cfg, c).is_ok() {
                admitted.push(*c);
            }
        }
        let expect: u64 = admitted.iter().map(|c| c.utilization_ppm()).sum();
        prop_assert_eq!(load.periodic_util_ppm(), expect);
        prop_assert!(load.periodic_util_ppm() <= cfg.periodic_budget_ppm());
        // Releasing everything drains the ledger completely.
        for c in &admitted {
            load.release(c);
        }
        prop_assert_eq!(load.periodic_util_ppm(), 0);
        prop_assert_eq!(load.periodic_count(), 0);
    }

    /// A rejected admission leaves the ledger exactly as it was.
    #[test]
    fn rejection_is_side_effect_free(
        cs in prop::collection::vec(arb_periodic(), 1..12),
        greedy_pct in 85u64..99,
    ) {
        let cfg = SchedConfig::default();
        let mut load = CpuLoad::new();
        for c in &cs {
            let _ = load.admit(&cfg, c);
        }
        let before_util = load.periodic_util_ppm();
        let before_count = load.periodic_count();
        // An oversized request that must fail.
        let hog = Constraints::periodic(1_000_000, greedy_pct * 10_000).build();
        if load.admit(&cfg, &hog).is_err() {
            prop_assert_eq!(load.periodic_util_ppm(), before_util);
            prop_assert_eq!(load.periodic_count(), before_count);
        } else {
            // It fit; release to restore.
            load.release(&hog);
            prop_assert_eq!(load.periodic_util_ppm(), before_util);
        }
    }

    /// Any set the EDF bound admits at <=100% is feasible in the
    /// zero-overhead EDF simulation (Liu & Layland optimality), and adding
    /// overhead can only ever make a feasible set infeasible, not the
    /// reverse. The processor-demand criterion the ledger decides with
    /// returns the simulation's verdict on every arbitrary and every
    /// harmonic (tenant-palette) set, under each modeled overhead, for
    /// windows that hold the whole hyperperiod and windows that cut it —
    /// at a deadline, one nanosecond before it, and anywhere.
    #[test]
    fn edf_bound_agrees_with_simulation(
        cs in prop::collection::vec(arb_periodic(), 1..6),
        harmonic in prop::collection::vec(arb_harmonic(), 1..12),
        pick in 0usize..64,
        cut in 0u64..1_000,
    ) {
        let arbitrary: Vec<(u64, u64)> = cs.iter().map(shape).collect();
        for (set, cap) in [(&arbitrary, 50_000_000), (&harmonic, 200_000_000)] {
            for window in windows(set, cap, pick, cut) {
                for overhead in [0, 1, 2_000, 9_200] {
                    prop_assert_eq!(
                        edf_demand_feasible(set, overhead, window),
                        simulate_edf_feasible(set, overhead, window),
                        "{:?} at {} ns/job, window {}", set, overhead, window
                    );
                }
            }
        }
        let util: u64 = cs.iter().map(|c| c.utilization_ppm()).sum();
        let window = 50_000_000; // cap the hyperperiod for test speed
        if util <= PPM {
            prop_assert!(
                simulate_edf_feasible(&arbitrary, 0, window),
                "EDF-optimal: any set within 100% utilization is schedulable"
            );
        }
        if !simulate_edf_feasible(&arbitrary, 0, window) {
            prop_assert!(
                !simulate_edf_feasible(&arbitrary, 5_000, window),
                "overhead can never rescue an infeasible set"
            );
        }
    }

    /// Phase correction aligns all first arrivals to the same instant,
    /// regardless of release order, group size, or measured delta.
    #[test]
    fn phase_correction_aligns_arrivals(
        n in 2usize..256,
        delta in 0u64..10_000,
        phase in 0u64..1_000_000,
    ) {
        let arrivals: Vec<u64> = (0..n)
            .map(|i| {
                let departure = i as u64 * delta;
                departure + nautix_groups::corrected_phase(phase, i, n, delta)
            })
            .collect();
        prop_assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
    }

    /// Calibration keeps residuals within the paper's envelope for any
    /// seed, and wall clocks agree across CPUs afterwards.
    #[test]
    fn calibration_envelope_holds_for_any_seed(seed in 0u64..5_000) {
        let mut m = nautix_hw::Machine::new(
            nautix_hw::MachineConfig::phi().with_cpus(16).with_seed(seed),
        );
        let sync = nautix_rt::calibrate(&mut m, 16);
        let s = sync.residual_summary();
        prop_assert!(s.max <= 1_200, "residual {} beyond envelope (seed {})", s.max, seed);
    }

    /// Sporadic admissions and releases keep the reservation accounting
    /// balanced.
    #[test]
    fn sporadic_reservation_balances(
        bursts in prop::collection::vec((500u64..50_000, 100_000u64..1_000_000), 1..12),
    ) {
        let cfg = SchedConfig::default();
        let mut load = CpuLoad::new();
        let mut admitted = Vec::new();
        for &(size, deadline) in &bursts {
            let c = Constraints::sporadic(size, deadline).build();
            if load.admit(&cfg, &c).is_ok() {
                admitted.push(c);
            }
            prop_assert!(load.sporadic_util_ppm() <= cfg.sporadic_reserve_ppm);
        }
        for c in &admitted {
            load.release(c);
        }
        prop_assert_eq!(load.sporadic_util_ppm(), 0);
    }
}

/// Admit-then-release probe: returns the verdict without perturbing the
/// ledger (rejection is side-effect-free; release undoes an admission).
fn probe(load: &mut CpuLoad, cfg: &SchedConfig, c: &Constraints) -> bool {
    if load.admit(cfg, c).is_ok() {
        load.release(c);
        true
    } else {
        false
    }
}

proptest! {
    /// Admission is monotone in requested utilization: against the same
    /// ledger state, if the larger of two slices admits at a given
    /// period, the smaller one must admit too (equivalently, rejection
    /// is monotone upward).
    #[test]
    fn admission_is_monotone_in_slice(
        preload in prop::collection::vec(arb_periodic(), 0..10),
        p100 in 100u64..100_000,
        pct_a in 5u64..90,
        pct_b in 5u64..90,
    ) {
        let period = p100 * 100;
        let (lo, hi) = if pct_a <= pct_b { (pct_a, pct_b) } else { (pct_b, pct_a) };
        let small = Constraints::periodic(period, (period * lo / 100).max(500)).build();
        let big = Constraints::periodic(period, (period * hi / 100).max(500)).build();
        let cfg = SchedConfig::default();
        let mut load = CpuLoad::new();
        for c in &preload {
            let _ = load.admit(&cfg, c);
        }
        let big_ok = probe(&mut load, &cfg, &big);
        let small_ok = probe(&mut load, &cfg, &small);
        prop_assert!(
            !big_ok || small_ok,
            "slice {} admitted but shorter slice {} rejected at period {}",
            big.utilization_ppm(), small.utilization_ppm(), period
        );
    }

    /// The closed-form utilization test and the hyperperiod EDF
    /// simulation (zero overhead) return the *same verdict sequence* on
    /// any request stream: below 100% total utilization EDF is optimal,
    /// so the 79% periodic budget is the only binding constraint for
    /// both policies.
    #[test]
    fn utilization_test_agrees_with_hyperperiod_simulation(
        cs in prop::collection::vec(arb_periodic(), 1..8),
    ) {
        let bound_cfg = SchedConfig::default();
        let sim_cfg = SchedConfig {
            policy: AdmissionPolicy::HyperperiodSim {
                overhead_ns: 0,
                window_cap_ns: 20_000_000,
            },
            ..SchedConfig::default()
        };
        let mut bound = CpuLoad::new();
        let mut sim = CpuLoad::new();
        for c in &cs {
            let vb = bound.admit(&bound_cfg, c).is_ok();
            let vs = sim.admit(&sim_cfg, c).is_ok();
            prop_assert_eq!(
                vb, vs,
                "policies diverge on {:?} ppm (ledger at {} ppm)",
                c.utilization_ppm(), bound.periodic_util_ppm()
            );
        }
        prop_assert_eq!(bound.periodic_util_ppm(), sim.periodic_util_ppm());
    }
}

/// A ledger running the memoized simulation path: hyperperiod-sim
/// policy, cache installed.
fn cached_sim_load(cfg: &SchedConfig) -> (SchedConfig, CpuLoad) {
    let cfg = SchedConfig {
        policy: AdmissionPolicy::HyperperiodSim {
            overhead_ns: 0,
            window_cap_ns: 20_000_000,
        },
        ..*cfg
    };
    let mut load = CpuLoad::new();
    load.install_sim_cache(Rc::new(RefCell::new(SimCache::new())));
    (cfg, load)
}

proptest! {
    /// The closed-form/simulation agreement holds on the *cached* path
    /// too: the same request stream replayed through a warm memo (drain,
    /// then re-admit) keeps returning the closed-form verdicts, and the
    /// replay is served entirely from the memo.
    #[test]
    fn utilization_test_agrees_with_memoized_simulation(
        cs in prop::collection::vec(arb_periodic(), 1..8),
    ) {
        let bound_cfg = SchedConfig::default();
        let (sim_cfg, mut sim) = cached_sim_load(&bound_cfg);
        let mut bound = CpuLoad::new();
        let mut verdicts = Vec::new();
        for c in &cs {
            let vb = bound.admit(&bound_cfg, c).is_ok();
            let vs = sim.admit(&sim_cfg, c).is_ok();
            prop_assert_eq!(vb, vs, "cached sim diverged from bound on {:?}", c);
            verdicts.push(vs);
        }
        let cold = sim.admission_stats();
        // Drain and replay: identical verdicts, all from the memo.
        let admitted: Vec<_> = cs.iter().zip(&verdicts).filter(|(_, &v)| v).collect();
        for (c, _) in admitted.iter().rev() {
            sim.release(c);
        }
        for (i, c) in cs.iter().enumerate() {
            prop_assert_eq!(sim.admit(&sim_cfg, c).is_ok(), verdicts[i]);
        }
        let warm = sim.admission_stats();
        prop_assert_eq!(
            warm.sim_misses, cold.sim_misses,
            "replaying an identical request stream must not simulate again"
        );
        prop_assert_eq!(bound.periodic_util_ppm(), sim.periodic_util_ppm());
        prop_assert_eq!(sim.periodic_util_ppm(), sim.periodic_util_ppm_rescan());
    }

    /// Distinct canonical task sets never share a memo entry: their
    /// signatures differ, and even a cache primed with one set's verdict
    /// misses on the other (the full canonical set is part of the key, so
    /// a signature collision alone could never cross-serve a verdict).
    #[test]
    fn distinct_canonical_sets_never_share_memo_entries(
        a in prop::collection::vec(arb_periodic(), 1..6),
        b in prop::collection::vec(arb_periodic(), 1..6),
    ) {
        let canon = |cs: &[Constraints]| {
            let mut v: Vec<(u64, u64)> = cs.iter().map(shape).collect();
            v.sort_unstable();
            v
        };
        let (ka, kb) = (canon(&a), canon(&b));
        let (overhead, window) = (1_000u64, 20_000_000u64);
        let (sa, sb) = (
            task_set_signature(&ka, overhead, window),
            task_set_signature(&kb, overhead, window),
        );
        let mut cache = SimCache::new();
        cache.insert(sa, ka.clone(), overhead, window, true);
        if ka == kb {
            prop_assert_eq!(sa, sb, "equal canonical sets must share a signature");
            prop_assert_eq!(cache.lookup(sb, &kb, overhead, window), Some(true));
        } else {
            prop_assert!(sa != sb, "distinct sets {:?} / {:?} collided", ka, kb);
            prop_assert_eq!(cache.lookup(sb, &kb, overhead, window), None);
        }
        // The same set under a different overhead model is a different
        // verdict: never served across models.
        prop_assert_eq!(cache.lookup(sa, &ka, overhead + 1, window), None);
        prop_assert_eq!(cache.lookup(sa, &ka, overhead, window / 2), None);
    }
}

/// The §3.2 exact reservation boundaries hold unchanged on the memoized
/// simulation path: the budget gate still rejects one step past each
/// line, and serving the repeat admission from the memo cannot loosen it.
#[test]
fn reservation_edges_hold_on_the_cached_path() {
    let base = SchedConfig::default();
    let (cfg, mut load) = cached_sim_load(&base);
    assert_eq!(cfg.periodic_budget_ppm(), 790_000);

    // Exactly the 79% budget admits; with it held even the minimum legal
    // slice is refused; draining and re-admitting (a memo hit) behaves
    // identically.
    for pass in 0..2 {
        let full = Constraints::periodic(1_000_000, 790_000).build();
        assert!(load.admit(&cfg, &full).is_ok(), "pass {pass}");
        assert_eq!(
            load.admit(&cfg, &Constraints::periodic(1_000_000, 500).build()),
            Err(AdmissionError::UtilizationExceeded),
            "pass {pass}"
        );
        load.release(&full);
        assert_eq!(load.periodic_util_ppm(), 0);
    }
    let s = load.admission_stats();
    assert!(s.sim_hits > 0, "second pass must be served from the memo");

    // One ppm past the budget is refused by the gate before any
    // simulation runs — rejected sets never enter the memo.
    let probes = s.sim_hits + s.sim_misses;
    assert_eq!(
        load.admit(&cfg, &Constraints::periodic(1_000_000, 790_001).build()),
        Err(AdmissionError::UtilizationExceeded)
    );
    let after = load.admission_stats();
    assert_eq!(after.sim_hits + after.sim_misses, probes);

    // The sporadic and aperiodic reserves are untouched by the policy:
    // exactly 10% admits, one ppm more is refused, aperiodic never fails.
    assert!(load
        .admit(&cfg, &Constraints::sporadic(100_000, 1_000_000).build())
        .is_ok());
    assert_eq!(
        load.admit(&cfg, &Constraints::sporadic(500, 1_000_000).build()),
        Err(AdmissionError::SporadicReservationExceeded)
    );
    assert!(load.admit(&cfg, &Constraints::default_aperiodic()).is_ok());
}

/// The §3.2 default reservations — 99% utilization limit, 10% sporadic,
/// 10% aperiodic — leave exactly 79% for periodic admission, and the
/// ledger honors each boundary exactly (admit at the line, reject one
/// step past it).
#[test]
fn reservation_defaults_hold_at_exact_boundaries() {
    let cfg = SchedConfig::default();
    assert_eq!(cfg.util_limit_ppm, 990_000);
    assert_eq!(cfg.sporadic_reserve_ppm, 100_000);
    assert_eq!(cfg.aperiodic_reserve_ppm, 100_000);
    assert_eq!(cfg.periodic_budget_ppm(), 790_000);

    // Periodic: exactly the 79% budget admits...
    let mut load = CpuLoad::new();
    assert!(load
        .admit(&cfg, &Constraints::periodic(1_000_000, 790_000).build())
        .is_ok());
    // ...and with it held, even the minimum legal slice is refused.
    assert_eq!(
        load.admit(&cfg, &Constraints::periodic(1_000_000, 500).build()),
        Err(AdmissionError::UtilizationExceeded)
    );
    // One ppm past the budget on a fresh ledger is refused outright.
    let mut fresh = CpuLoad::new();
    assert_eq!(
        fresh.admit(&cfg, &Constraints::periodic(1_000_000, 790_001).build()),
        Err(AdmissionError::UtilizationExceeded)
    );

    // Sporadic: exactly the 10% reserve admits; one ppm more is refused,
    // whether in a single burst or on top of a full reserve.
    let mut load = CpuLoad::new();
    assert!(load
        .admit(&cfg, &Constraints::sporadic(100_000, 1_000_000).build())
        .is_ok());
    assert_eq!(load.sporadic_util_ppm(), cfg.sporadic_reserve_ppm);
    assert_eq!(
        load.admit(&cfg, &Constraints::sporadic(500, 1_000_000).build()),
        Err(AdmissionError::SporadicReservationExceeded)
    );
    let mut fresh = CpuLoad::new();
    assert_eq!(
        fresh.admit(&cfg, &Constraints::sporadic(100_001, 1_000_000).build()),
        Err(AdmissionError::SporadicReservationExceeded)
    );

    // Aperiodic admission cannot fail (§3.2), even with every other
    // reservation saturated.
    assert!(load.admit(&cfg, &Constraints::default_aperiodic()).is_ok());

    // The throughput shape folds both reserves back into the periodic
    // budget: the full 99% admits, one ppm more does not.
    let tp = SchedConfig::throughput();
    assert_eq!(tp.periodic_budget_ppm(), 990_000);
    let mut load = CpuLoad::new();
    assert!(load
        .admit(&tp, &Constraints::periodic(1_000_000, 990_000).build())
        .is_ok());
    let mut fresh = CpuLoad::new();
    assert_eq!(
        fresh.admit(&tp, &Constraints::periodic(1_000_000, 990_001).build()),
        Err(AdmissionError::UtilizationExceeded)
    );
}

/// Any descriptor a team could request: periodic (some below the minimum
/// period, so `TooFine`), sporadic or aperiodic.
fn arb_request() -> impl Strategy<Value = Constraints> {
    prop_oneof![
        arb_periodic(),
        (5u64..100, 5u64..90).prop_map(|(p100, pct)| Constraints::Periodic {
            phase: 0,
            period: p100 * 100,
            slice: p100 * pct,
        }),
        (500u64..50_000).prop_map(|size| Constraints::sporadic(size, 100_000).build()),
        (0u64..4).prop_map(|priority| Constraints::Aperiodic { priority }),
    ]
}

proptest! {
    /// The budget gate settles a verdict under every policy: whatever a
    /// ledger holds, a well-formed periodic request over its budget is
    /// refused with `UtilizationExceeded` and leaves the ledger as it was.
    /// `refuses_team_over_budget`, the shortcut the cluster engine takes
    /// without asking a ledger, refuses exactly those requests.
    #[test]
    fn over_budget_is_refused_under_every_policy(
        held in prop::collection::vec(arb_periodic(), 0..12),
        c in arb_request(),
        which in 0usize..3,
    ) {
        let policy = [
            AdmissionPolicy::EdfBound,
            AdmissionPolicy::RmBound,
            AdmissionPolicy::HyperperiodSim { overhead_ns: 2_000, window_cap_ns: 20_000_000 },
        ][which];
        let cfg = SchedConfig { policy, ..SchedConfig::default() };
        // With the gate off a ledger checks only shape, so it can be
        // filled past any budget, and it tells a well-formed request.
        let shape_only = SchedConfig { admission_enabled: false, ..cfg };
        let mut load = CpuLoad::new();
        for h in &held {
            load.admit(&shape_only, h).unwrap();
        }
        let before = load.periodic_util_ppm();
        let well_formed = load.clone().admit(&shape_only, &c).is_ok();
        let over = matches!(c, Constraints::Periodic { .. })
            && well_formed
            && cfg.over_budget(before, c.utilization_ppm());
        prop_assert_eq!(cfg.refuses_team_over_budget(&c, before), over);
        if over {
            prop_assert_eq!(load.admit(&cfg, &c), Err(AdmissionError::UtilizationExceeded));
            prop_assert_eq!(load.periodic_util_ppm(), before);
            prop_assert_eq!(load.periodic_count(), held.len());
        }
    }
}

fn arb_cyclic_set() -> impl Strategy<Value = Vec<CyclicTask>> {
    // Periods drawn from a harmonic-friendly menu keep hyperperiods small.
    let menu = prop::sample::select(vec![
        50_000u64, 100_000, 200_000, 250_000, 400_000, 500_000, 1_000_000,
    ]);
    prop::collection::vec((menu, 2u64..40), 1..5).prop_map(|v| {
        v.into_iter()
            .map(|(period, pct)| CyclicTask {
                period,
                wcet: (period * pct / 100).max(1_000),
            })
            .collect()
    })
}

proptest! {
    /// Whatever table the cyclic compiler emits must pass its own
    /// verifier: every instance placed fully inside its window, frames
    /// never overfull.
    #[test]
    fn cyclic_tables_always_verify(set in arb_cyclic_set()) {
        if let Ok(s) = compile_cyclic(&set) {
            prop_assert!(s.verify().is_ok(), "emitted table failed verification");
            prop_assert_eq!(s.hyperperiod % s.frame, 0);
            prop_assert!(s.peak_frame_load() <= s.frame);
        }
    }

    /// The compiler never accepts an over-utilized set and never rejects
    /// a single-task set with utilization <= 100% whose period admits a
    /// valid frame (the task's own period always does).
    #[test]
    fn cyclic_compiler_boundaries(period in 10_000u64..1_000_000, pct in 1u64..101) {
        let wcet = (period * pct / 100).max(1);
        let res = compile_cyclic(&[CyclicTask { period, wcet }]);
        if pct <= 100 {
            prop_assert!(res.is_ok(), "single feasible task must compile: {res:?}");
        } else {
            prop_assert!(res.is_err());
        }
    }
}

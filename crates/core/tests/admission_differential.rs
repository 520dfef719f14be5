//! Differential suite for the incremental admission engine: at every step
//! of a random admit / revoke / re-admit / widen sequence, the incremental
//! ledger with the memoized hyperperiod simulation must return exactly the
//! verdict the reference returns — a ledger with no [`SimCache`] installed,
//! which re-simulates every request — and both ledgers' incrementally
//! maintained sums must equal a full rescan of the admitted set.
//!
//! Both ledgers run under [`AdmissionPolicy::HyperperiodSim`] so every
//! periodic verdict exercises the simulation (and, on the incremental
//! side, the memo), not just the closed-form bound.

use nautix_kernel::Constraints;
use nautix_rt::{AdmissionPolicy, CpuLoad, SchedConfig, SimCache};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One step of the random constraint-churn sequence. Indices are raw
/// draws, reduced modulo the live set at application time.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit a periodic reservation (period `p100`·100 ns, `pct`% slice).
    Periodic { p100: u64, pct: u64 },
    /// Admit a sporadic burst.
    Sporadic { size: u64, deadline: u64 },
    /// Admit an aperiodic thread (always succeeds, never in the ledger).
    Aperiodic,
    /// Revoke the `idx % live`-th admitted reservation.
    Release { idx: usize },
    /// Widen the `idx % live`-th admitted periodic reservation's period by
    /// `widen_pct`% and re-admit it; on rejection, roll back by
    /// re-admitting the original (which must always succeed).
    Widen { idx: usize, widen_pct: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (100u64..20_000, 5u64..45).prop_map(|(p100, pct)| Op::Periodic { p100, pct }),
        (500u64..20_000, 1_000u64..9_000).prop_map(|(size, d100)| Op::Sporadic {
            size,
            deadline: d100 * 100
        }),
        (0u64..1).prop_map(|_| Op::Aperiodic),
        (0usize..1024).prop_map(|idx| Op::Release { idx }),
        (0usize..1024, 10u64..60).prop_map(|(idx, widen_pct)| Op::Widen { idx, widen_pct }),
    ]
}

fn sim_cfg() -> SchedConfig {
    SchedConfig {
        policy: AdmissionPolicy::HyperperiodSim {
            overhead_ns: 1_000,
            window_cap_ns: 8_000_000,
        },
        ..SchedConfig::default()
    }
}

/// Both ledgers side by side; every operation is applied to both and the
/// verdicts compared. `fresh` has no memo cache: every verdict it gives
/// comes from a simulation run for that request.
struct Pair {
    fresh: CpuLoad,
    incr: CpuLoad,
    cfg: SchedConfig,
}

impl Pair {
    fn new() -> Self {
        let mut incr = CpuLoad::new();
        incr.install_sim_cache(Rc::new(RefCell::new(SimCache::new())));
        Pair {
            fresh: CpuLoad::new(),
            incr,
            cfg: sim_cfg(),
        }
    }

    /// Admit on both; panics on divergence, returns the common verdict.
    fn admit(&mut self, c: &Constraints) -> bool {
        let vf = self.fresh.admit(&self.cfg, c).is_ok();
        let vi = self.incr.admit(&self.cfg, c).is_ok();
        assert_eq!(
            vf,
            vi,
            "cached verdict diverged from fresh recompute on {c:?} \
             (ledger at {} ppm)",
            self.fresh.periodic_util_ppm()
        );
        vf
    }

    fn release(&mut self, c: &Constraints) {
        self.fresh.release(c);
        self.incr.release(c);
    }

    /// The per-step invariant: incremental sums equal a rescan, and the
    /// two ledgers hold identical totals.
    fn check(&self) {
        assert_eq!(
            self.incr.periodic_util_ppm(),
            self.incr.periodic_util_ppm_rescan(),
            "incremental periodic sum drifted from rescan"
        );
        assert_eq!(
            self.fresh.periodic_util_ppm(),
            self.fresh.periodic_util_ppm_rescan()
        );
        assert_eq!(
            self.fresh.periodic_util_ppm(),
            self.incr.periodic_util_ppm()
        );
        assert_eq!(
            self.fresh.sporadic_util_ppm(),
            self.incr.sporadic_util_ppm()
        );
        assert_eq!(self.fresh.periodic_count(), self.incr.periodic_count());
    }
}

/// Round a widened period down to the 100 ns admission granularity.
fn widen_period(period: u64, widen_pct: u64) -> u64 {
    period * (100 + widen_pct) / 100 / 100 * 100
}

proptest! {
    /// The differential property: incremental + memoized verdicts and
    /// sums match the fresh recompute at every step of a random
    /// admit/revoke/re-admit/widen sequence over mixed task sets.
    #[test]
    fn incremental_engine_matches_fresh_recompute(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let mut pair = Pair::new();
        // The live mirror of admitted reservations (verdicts are asserted
        // equal, so one mirror serves both ledgers).
        let mut live: Vec<Constraints> = Vec::new();
        for op in &ops {
            match *op {
                Op::Periodic { p100, pct } => {
                    let period = p100 * 100;
                    let slice = (period * pct / 100).max(500);
                    let c = Constraints::periodic(period, slice).build();
                    if pair.admit(&c) {
                        live.push(c);
                    }
                }
                Op::Sporadic { size, deadline } => {
                    let c = Constraints::sporadic(size, deadline).build();
                    if pair.admit(&c) {
                        live.push(c);
                    }
                }
                Op::Aperiodic => {
                    prop_assert!(pair.admit(&Constraints::default_aperiodic()));
                }
                Op::Release { idx } => {
                    if !live.is_empty() {
                        let c = live.swap_remove(idx % live.len());
                        pair.release(&c);
                    }
                }
                Op::Widen { idx, widen_pct } => {
                    let periodic: Vec<usize> = live
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| matches!(c, Constraints::Periodic { .. }))
                        .map(|(i, _)| i)
                        .collect();
                    if periodic.is_empty() {
                        continue;
                    }
                    let i = periodic[idx % periodic.len()];
                    let Constraints::Periodic { phase, period, slice } = live[i] else {
                        unreachable!()
                    };
                    let old = live[i];
                    pair.release(&old);
                    let wide = Constraints::Periodic {
                        phase,
                        period: widen_period(period, widen_pct),
                        slice,
                    };
                    if pair.admit(&wide) {
                        live[i] = wide;
                    } else {
                        // All-or-nothing: the freed reservation must
                        // always re-admit.
                        prop_assert!(
                            pair.admit(&old),
                            "rollback re-admission of {old:?} rejected"
                        );
                    }
                }
            }
            pair.check();
        }
        // Every simulated verdict on the fresh side was either served from
        // the memo or simulated on the incremental side — never skipped,
        // never duplicated.
        let fs = pair.fresh.admission_stats();
        let is = pair.incr.admission_stats();
        prop_assert_eq!(is.sim_hits + is.sim_misses, fs.sim_misses);
    }
}

/// Draining the whole live set and re-admitting it in reverse hits the
/// memo for the full prefix chain and ends byte-identical.
#[test]
fn drain_and_readmit_round_trips_through_the_memo() {
    let mut pair = Pair::new();
    let set: Vec<Constraints> = (0..6)
        .map(|i| Constraints::periodic(1_000_000 + i * 200_000, 80_000).build())
        .collect();
    for c in &set {
        assert!(pair.admit(c));
        pair.check();
    }
    let first_pass = pair.incr.admission_stats();
    assert_eq!(first_pass.sim_hits, 0, "fresh prefixes cannot hit the memo");
    for c in set.iter().rev() {
        pair.release(c);
        pair.check();
    }
    for c in &set {
        assert!(pair.admit(c));
        pair.check();
    }
    let second_pass = pair.incr.admission_stats();
    assert_eq!(
        second_pass.sim_hits,
        set.len() as u64,
        "re-admitting the same prefix chain must be all memo hits"
    );
    assert_eq!(second_pass.sim_misses, first_pass.sim_misses);
}

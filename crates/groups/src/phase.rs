//! Phase correction (§4.4).
//!
//! Three effects skew the admission instants of a gang's threads even when
//! their constraints are identical: admission runs in aperiodic context
//! (delayable), barriers release threads one at a time, and wall clocks
//! disagree by the calibration residual. The paper's remedy adjusts the
//! *phase* φ of each thread by its release order from the final group
//! barrier: "the *i*th thread to be released is then given a corrected
//! phase φᵢ = φ + (n − i)·δ where δ is the measured per-thread delay in
//! departing the barrier."
//!
//! With that correction, thread i's first arrival lands at
//! `departure_i + φ + (n − i)δ ≈ departure_last + φ`, aligning every
//! member's first arrival to the *last* departure — the only instant all
//! of them have provably passed.

use nautix_des::Nanos;
use nautix_kernel::Constraints;

/// The corrected phase for the thread released `order`-th (0-based) out of
/// `n`, given the measured per-thread departure delay `delta_ns`.
pub fn corrected_phase(base_phase: Nanos, order: usize, n: usize, delta_ns: Nanos) -> Nanos {
    debug_assert!(order < n);
    base_phase + (n - order) as u64 * delta_ns
}

/// Apply phase correction to a constraint descriptor.
pub fn correct_constraints(c: Constraints, order: usize, n: usize, delta_ns: Nanos) -> Constraints {
    match c.phase() {
        // Unchecked on purpose: correction runs on an already-admitted
        // descriptor and must not panic; if the enlarged phase pushes a
        // sporadic burst past its deadline, re-admission rejects it.
        Some(phase) => c
            .with_phase(corrected_phase(phase, order, n, delta_ns))
            .build_unchecked(),
        None => c,
    }
}

/// Phase-correct a whole team at once: the slot-`i` member of an
/// `n`-member team receives [`correct_constraints`]`(c, i, n, delta_ns)`.
/// The batched form of the per-thread correction, used by team admission
/// (`Node::admit` with a team target / the `GroupAdmitTeam` syscall), where
/// one completer corrects every member inside a single ledger transaction.
pub fn correct_team(c: Constraints, n: usize, delta_ns: Nanos) -> Vec<Constraints> {
    (0..n)
        .map(|i| correct_constraints(c, i, n, delta_ns))
        .collect()
}

/// Estimate δ from observed departure offsets (nanoseconds after the
/// completion instant, indexed by release order): the mean per-order
/// increment, i.e. the slope of a line through the first and last points.
pub fn estimate_delta(departure_offsets: &[Nanos]) -> Nanos {
    if departure_offsets.len() < 2 {
        return 0;
    }
    let n = departure_offsets.len() as u64;
    let span = departure_offsets
        .last()
        .unwrap()
        .saturating_sub(departure_offsets[0]);
    span / (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_release_gets_smaller_phase() {
        let n = 8;
        let d = 100;
        let phases: Vec<_> = (0..n).map(|i| corrected_phase(1000, i, n, d)).collect();
        for w in phases.windows(2) {
            assert_eq!(w[0] - w[1], d);
        }
        assert_eq!(phases[0], 1000 + 8 * d);
        assert_eq!(phases[n - 1], 1000 + d);
    }

    #[test]
    fn corrected_arrivals_align() {
        // Thread i departs the barrier at t = i*δ; its first arrival is at
        // departure + corrected phase. All arrivals must coincide.
        let n = 16;
        let d = 250u64;
        let arrivals: Vec<u64> = (0..n)
            .map(|i| i as u64 * d + corrected_phase(0, i, n, d))
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn aperiodic_constraints_are_untouched() {
        let c = Constraints::default_aperiodic();
        assert_eq!(correct_constraints(c, 0, 4, 100), c);
    }

    #[test]
    fn periodic_phase_is_rewritten() {
        let c = Constraints::Periodic {
            phase: 500,
            period: 10_000,
            slice: 5_000,
        };
        let got = correct_constraints(c, 2, 4, 100);
        assert_eq!(
            got,
            Constraints::Periodic {
                phase: 500 + 2 * 100,
                period: 10_000,
                slice: 5_000
            }
        );
    }

    #[test]
    fn team_correction_matches_per_member_correction() {
        let c = Constraints::Periodic {
            phase: 500,
            period: 10_000,
            slice: 5_000,
        };
        let team = correct_team(c, 4, 100);
        assert_eq!(team.len(), 4);
        for (i, got) in team.iter().enumerate() {
            assert_eq!(*got, correct_constraints(c, i, 4, 100));
        }
        // The corrected first arrivals of a team departing at i·δ align.
        let arrivals: Vec<u64> = team
            .iter()
            .enumerate()
            .map(|(i, c)| i as u64 * 100 + c.phase().unwrap())
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn delta_estimation_recovers_slope() {
        let offsets: Vec<u64> = (0..10).map(|i| 40 + i * 130).collect();
        assert_eq!(estimate_delta(&offsets), 130);
        assert_eq!(estimate_delta(&[5]), 0);
        assert_eq!(estimate_delta(&[]), 0);
    }
}

//! Timing-constraint descriptors: the scheduling ABI of §3.1.
//!
//! The scheduler adopts the classic model of Liu for its *interface* (not
//! its implementation). Threads present one of three constraint classes at
//! admission time; the scheduler either guarantees them until changed, or
//! rejects the request. These descriptor types live in the kernel crate —
//! they are the equivalent of Nautilus's public scheduler header — while
//! their semantics are implemented by `nautix-rt`.

use nautix_des::Nanos;

/// Priority of an aperiodic (non-real-time) thread. Lower is more
/// important, like a nice value.
pub type Priority = u64;

/// A thread's requested timing constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraints {
    /// No real-time constraints; scheduled round-robin (or by priority)
    /// in the background. Newly created threads begin life in this class.
    Aperiodic {
        /// Scheduling priority µ among aperiodic threads.
        priority: Priority,
    },
    /// `(φ, τ, σ)`: first eligible at admission time + `phase`, then every
    /// `period`; guaranteed `slice` of execution before each next arrival
    /// (which is the deadline of the current one).
    Periodic {
        /// Phase φ: offset of the first arrival from the admission time.
        phase: Nanos,
        /// Period τ between arrivals; also the relative deadline.
        period: Nanos,
        /// Slice σ of guaranteed execution per period.
        slice: Nanos,
    },
    /// `(φ, ω, δ, µ)`: arrives once at admission time + `phase`, must
    /// receive `size` of execution by `deadline` (an absolute offset from
    /// admission), then continues as an aperiodic thread with priority
    /// `aperiodic_priority`.
    Sporadic {
        /// Phase φ: offset of the arrival from the admission time.
        phase: Nanos,
        /// Total execution ω guaranteed before the deadline.
        size: Nanos,
        /// Deadline δ, measured from the admission time.
        deadline: Nanos,
        /// Priority the thread drops to after its sporadic burst.
        aperiodic_priority: Priority,
    },
}

impl Constraints {
    /// The default constraints every thread starts with, and the fallback
    /// the group-admission algorithm re-admits with on failure (§4.3 —
    /// "admission control for aperiodic threads cannot fail").
    pub fn default_aperiodic() -> Self {
        Constraints::Aperiodic { priority: 1 }
    }

    /// Builder for a periodic constraint with zero phase. Call
    /// [`ConstraintsBuilder::build`] (validates, panics on a structurally
    /// impossible descriptor) or [`ConstraintsBuilder::try_build`] to get
    /// the [`Constraints`] value.
    pub fn periodic(period: Nanos, slice: Nanos) -> ConstraintsBuilder {
        ConstraintsBuilder(Constraints::Periodic {
            phase: 0,
            period,
            slice,
        })
    }

    /// Builder for a sporadic constraint with zero phase and a post-burst
    /// aperiodic priority of 1. See [`Constraints::periodic`].
    pub fn sporadic(size: Nanos, deadline: Nanos) -> ConstraintsBuilder {
        ConstraintsBuilder(Constraints::Sporadic {
            phase: 0,
            size,
            deadline,
            aperiodic_priority: 1,
        })
    }

    /// True for periodic or sporadic constraints.
    pub fn is_realtime(&self) -> bool {
        !matches!(self, Constraints::Aperiodic { .. })
    }

    /// Requested utilization in parts-per-million: σ/τ for periodic
    /// threads, ω/δ for sporadic ones, 0 for aperiodic.
    pub fn utilization_ppm(&self) -> u64 {
        match *self {
            Constraints::Aperiodic { .. } => 0,
            Constraints::Periodic { period, slice, .. } => {
                if period == 0 {
                    u64::MAX
                } else {
                    ppm_of(slice, period)
                }
            }
            Constraints::Sporadic { size, deadline, .. } => {
                if deadline == 0 {
                    u64::MAX
                } else {
                    ppm_of(size, deadline)
                }
            }
        }
    }

    /// Replace the phase φ (used by the phase-correction step of group
    /// admission, §4.4). No effect on aperiodic constraints. Returns a
    /// builder: a new phase can invalidate a sporadic descriptor
    /// (φ + ω > δ), so the result must be re-validated via
    /// [`ConstraintsBuilder::build`] / [`ConstraintsBuilder::try_build`].
    pub fn with_phase(self, new_phase: Nanos) -> ConstraintsBuilder {
        let c = match self {
            Constraints::Aperiodic { .. } => self,
            Constraints::Periodic { period, slice, .. } => Constraints::Periodic {
                phase: new_phase,
                period,
                slice,
            },
            Constraints::Sporadic {
                size,
                deadline,
                aperiodic_priority,
                ..
            } => Constraints::Sporadic {
                phase: new_phase,
                size,
                deadline,
                aperiodic_priority,
            },
        };
        ConstraintsBuilder(c)
    }

    /// The phase φ, if the class has one.
    pub fn phase(&self) -> Option<Nanos> {
        match *self {
            Constraints::Aperiodic { .. } => None,
            Constraints::Periodic { phase, .. } | Constraints::Sporadic { phase, .. } => {
                Some(phase)
            }
        }
    }

    /// Structural validity: nonzero periods/slices, slice ≤ period,
    /// size ≤ deadline. (Feasibility against overheads is admission
    /// control's job, not the descriptor's.)
    pub fn validate(&self) -> Result<(), ConstraintError> {
        match *self {
            Constraints::Aperiodic { .. } => Ok(()),
            Constraints::Periodic { period, slice, .. } => {
                if period == 0 || slice == 0 {
                    Err(ConstraintError::ZeroDuration)
                } else if slice > period {
                    Err(ConstraintError::SliceExceedsPeriod)
                } else {
                    Ok(())
                }
            }
            Constraints::Sporadic {
                size,
                deadline,
                phase,
                ..
            } => {
                if size == 0 || deadline == 0 {
                    Err(ConstraintError::ZeroDuration)
                } else if phase.saturating_add(size) > deadline {
                    Err(ConstraintError::SizeExceedsDeadline)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A constraint descriptor under construction, returned by
/// [`Constraints::periodic`], [`Constraints::sporadic`], and
/// [`Constraints::with_phase`].
///
/// The builder closes the window in which a structurally impossible
/// descriptor (σ > τ, φ + ω > δ, zero durations) could circulate unchecked
/// until admission: [`ConstraintsBuilder::build`] runs
/// [`Constraints::validate`] eagerly, so every descriptor produced through
/// the convenience constructors is valid by construction.
///
/// ```
/// use nautix_kernel::Constraints;
/// let c = Constraints::periodic(100_000, 25_000).phase(500).build();
/// assert_eq!(c.utilization_ppm(), 250_000);
/// assert!(Constraints::periodic(100, 101).try_build().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "call .build() (or .try_build()) to get the Constraints value"]
pub struct ConstraintsBuilder(Constraints);

impl ConstraintsBuilder {
    /// Set the phase φ. No effect on aperiodic constraints.
    pub fn phase(self, phase: Nanos) -> Self {
        // `with_phase` on the raw descriptor already preserves the class.
        self.0.with_phase(phase)
    }

    /// Set the priority µ a sporadic thread drops to after its burst (or
    /// an aperiodic thread's priority). No effect on periodic constraints.
    pub fn priority(mut self, priority: Priority) -> Self {
        match &mut self.0 {
            Constraints::Aperiodic { priority: p } => *p = priority,
            Constraints::Sporadic {
                aperiodic_priority, ..
            } => *aperiodic_priority = priority,
            Constraints::Periodic { .. } => {}
        }
        self
    }

    /// Validate and return the descriptor.
    ///
    /// # Panics
    /// If the descriptor is structurally impossible; use
    /// [`ConstraintsBuilder::try_build`] where rejection is an expected
    /// outcome.
    #[track_caller]
    pub fn build(self) -> Constraints {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("invalid constraints {:?}: {:?}", self.0, e),
        }
    }

    /// Validate and return the descriptor, or the structural error.
    pub fn try_build(self) -> Result<Constraints, ConstraintError> {
        self.0.validate().map(|()| self.0)
    }

    /// Return the descriptor without validating. For code that must not
    /// panic and defers to admission control's own `validate()` (for
    /// example phase correction on an already-admitted descriptor), and
    /// for tests that need a malformed descriptor on purpose.
    #[doc(hidden)]
    pub fn build_unchecked(self) -> Constraints {
        self.0
    }
}

/// `part` as a share of `whole` in parts per million, floored:
/// `part·10⁶/whole`, exact for every input. The product is formed in 64
/// bits whenever it fits (every realistic slice), so the common case
/// divides in one machine instruction rather than through a 128-bit
/// division routine. `whole` must be nonzero.
#[inline]
pub fn ppm_of(part: u64, whole: u64) -> u64 {
    match part.checked_mul(1_000_000) {
        Some(scaled) => scaled / whole,
        None => (part as u128 * 1_000_000 / whole as u128) as u64,
    }
}

/// Canonical signature of a periodic task set under a given overhead
/// model, for memoizing hyperperiod-simulation verdicts.
///
/// `set` must already be in canonical order (sorted `(period, slice)`
/// pairs): the synchronous critical-instant EDF simulation is invariant
/// under permutation of the set, and phases do not enter it at all (every
/// job is released at time zero), so the canonical key deliberately covers
/// only periods, slices, and the overhead model. FNV-1a taken a whole
/// 64-bit word at a time (not byte by byte) keeps the hash
/// dependency-free, stable across platforms and eight times shorter.
/// Signature equality is a *filter*, not proof of set equality:
/// a memo must still compare the canonical sets before reusing a verdict.
pub fn task_set_signature(set: &[(Nanos, Nanos)], overhead_ns: Nanos, window_cap_ns: Nanos) -> u64 {
    debug_assert!(
        set.windows(2).all(|w| w[0] <= w[1]),
        "signature input must be sorted canonically"
    );
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(FNV_PRIME);
    mix(set.len() as u64);
    for &(period, slice) in set {
        mix(period);
        mix(slice);
    }
    mix(overhead_ns);
    mix(window_cap_ns);
    h
}

/// Structural errors in a constraint descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintError {
    /// A zero period, slice, size, or deadline.
    ZeroDuration,
    /// σ > τ can never be satisfied.
    SliceExceedsPeriod,
    /// φ + ω > δ can never be satisfied.
    SizeExceedsDeadline,
}

/// Why an admission request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The descriptor itself is malformed.
    Invalid(ConstraintError),
    /// The utilization test failed: admitting would exceed the CPU's
    /// limit minus reservations.
    UtilizationExceeded,
    /// Period/slice finer than the configured granularity bounds (§3.3:
    /// "bounds are placed on the granularity and minimum size of the
    /// timing constraints").
    TooFine,
    /// The sporadic reservation cannot cover this burst.
    SporadicReservationExceeded,
    /// The per-CPU thread table or queue capacity is full.
    CapacityExceeded,
    /// Group admission: some member CPU rejected its thread.
    GroupMemberRejected,
    /// Admitting would exceed the guaranteed utilization of the layer the
    /// request's class maps to (layered bandwidth control).
    LayerOvercommit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_slice_over_period() {
        let c = Constraints::periodic(100_000, 25_000).build();
        assert_eq!(c.utilization_ppm(), 250_000); // 25%
    }

    #[test]
    fn ppm_of_matches_the_128_bit_formula_across_the_overflow_edge() {
        let edge = u64::MAX / 1_000_000;
        let parts = [0, 1, 999, edge - 1, edge, edge + 1, u64::MAX / 2, u64::MAX];
        let wholes = [1, 3, 1_000_000, 16_000_000, edge, u64::MAX];
        for part in parts {
            for whole in wholes {
                let reference = (part as u128 * 1_000_000 / whole as u128) as u64;
                assert_eq!(ppm_of(part, whole), reference, "{part} / {whole}");
            }
        }
    }

    #[test]
    fn sporadic_utilization_is_size_over_deadline() {
        let c = Constraints::sporadic(10_000, 40_000).build();
        assert_eq!(c.utilization_ppm(), 250_000);
    }

    #[test]
    fn aperiodic_has_zero_utilization_and_no_phase() {
        let c = Constraints::default_aperiodic();
        assert_eq!(c.utilization_ppm(), 0);
        assert_eq!(c.phase(), None);
        assert!(!c.is_realtime());
    }

    #[test]
    fn with_phase_only_touches_phase() {
        let c = Constraints::periodic(100, 50).phase(7).build();
        assert_eq!(
            c,
            Constraints::Periodic {
                phase: 7,
                period: 100,
                slice: 50
            }
        );
        let a = Constraints::default_aperiodic().with_phase(9).build();
        assert_eq!(a.phase(), None);
    }

    #[test]
    fn validation_catches_degenerate_descriptors() {
        assert_eq!(
            Constraints::periodic(0, 0).try_build(),
            Err(ConstraintError::ZeroDuration)
        );
        assert_eq!(
            Constraints::periodic(100, 101).try_build(),
            Err(ConstraintError::SliceExceedsPeriod)
        );
        assert_eq!(
            Constraints::sporadic(50, 40).try_build(),
            Err(ConstraintError::SizeExceedsDeadline)
        );
        assert!(Constraints::periodic(100, 100).try_build().is_ok());
        assert!(Constraints::default_aperiodic().validate().is_ok());
    }

    #[test]
    fn sporadic_phase_counts_against_deadline() {
        let c = Constraints::Sporadic {
            phase: 30,
            size: 20,
            deadline: 45,
            aperiodic_priority: 0,
        };
        assert_eq!(c.validate(), Err(ConstraintError::SizeExceedsDeadline));
    }

    #[test]
    fn signature_distinguishes_sets_and_overhead_models() {
        let a = task_set_signature(&[(100_000, 25_000)], 0, 1_000_000_000);
        let b = task_set_signature(&[(100_000, 26_000)], 0, 1_000_000_000);
        let c = task_set_signature(&[(100_000, 25_000)], 5_000, 1_000_000_000);
        let d = task_set_signature(&[(100_000, 25_000)], 0, 500_000_000);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Length is mixed in, so a set and its prefix differ.
        let e = task_set_signature(&[(100_000, 25_000), (200_000, 25_000)], 0, 1_000_000_000);
        assert_ne!(a, e);
        // Deterministic.
        assert_eq!(
            a,
            task_set_signature(&[(100_000, 25_000)], 0, 1_000_000_000)
        );
    }

    #[test]
    fn zero_period_utilization_saturates() {
        let c = Constraints::Periodic {
            phase: 0,
            period: 0,
            slice: 1,
        };
        assert_eq!(c.utilization_ppm(), u64::MAX);
    }
}

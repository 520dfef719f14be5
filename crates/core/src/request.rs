//! The typed admission surface.
//!
//! Host-context admission has one entry point whatever its shape (a gang,
//! or a single thread re-negotiating its own reservation):
//! [`AdmissionRequest`], a typed request built in the
//! [`ConstraintsBuilder`](nautix_kernel::ConstraintsBuilder) style and
//! submitted through [`Node::admit`](crate::node::Node::admit), which
//! always answers with an [`AdmissionOutcome`]. The request names *what*
//! should hold the reservation (one thread, or a whole team in one
//! all-or-nothing ledger transaction); the scheduler decides *whether* it
//! can.
//!
//! ```
//! use nautix_rt::{AdmissionRequest, Constraints};
//!
//! let gang = Constraints::periodic(1_000_000, 100_000).build();
//! let req = AdmissionRequest::team(vec![4, 5, 6]).constraints(gang);
//! assert_eq!(req.members(), 3);
//! // let outcome = node.admit(req);
//! ```

use nautix_des::Nanos;
use nautix_kernel::{AdmissionError, Constraints, ThreadId};

/// Who the reservation is for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionTarget {
    /// One thread re-negotiating its own constraints (the host-context
    /// face of the `ChangeConstraints` syscall).
    Thread(ThreadId),
    /// A gang admitted in one all-or-nothing ledger transaction: on
    /// success every member holds the constraints phase-corrected by its
    /// slot, on failure every ledger is back exactly as it was.
    Team(Vec<ThreadId>),
}

/// One typed admission request: a target, the constraints it asks for, and
/// the anchoring knobs. Build with [`AdmissionRequest::thread`] /
/// [`AdmissionRequest::team`] plus the chained setters, then submit via
/// [`Node::admit`](crate::node::Node::admit).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRequest {
    target: AdmissionTarget,
    constraints: Constraints,
    anchor_ns: Option<Nanos>,
    phase_delta_ns: Nanos,
}

impl AdmissionRequest {
    /// A request for one thread. Defaults to the aperiodic class — chain
    /// [`constraints`](AdmissionRequest::constraints) for a real-time
    /// reservation.
    pub fn thread(tid: ThreadId) -> Self {
        AdmissionRequest {
            target: AdmissionTarget::Thread(tid),
            constraints: Constraints::default_aperiodic(),
            anchor_ns: None,
            phase_delta_ns: 0,
        }
    }

    /// A request for a team, admitted all-or-nothing in member order.
    /// An empty team is valid and trivially admitted.
    pub fn team(members: impl Into<Vec<ThreadId>>) -> Self {
        AdmissionRequest {
            target: AdmissionTarget::Team(members.into()),
            constraints: Constraints::default_aperiodic(),
            anchor_ns: None,
            phase_delta_ns: 0,
        }
    }

    /// The constraints every target thread should hold (team members get
    /// the per-slot phase correction applied on commit).
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Anchor the admitted schedule at an explicit instant instead of the
    /// submitting CPU's current wall clock.
    pub fn anchor_at(mut self, anchor_ns: Nanos) -> Self {
        self.anchor_ns = Some(anchor_ns);
        self
    }

    /// Team targets only: the inter-member phase stagger handed to the
    /// slot-order phase correction (the `GroupAdmitTeam` syscall's
    /// `delta_ns`). Ignored for single-thread targets.
    pub fn phase_delta_ns(mut self, delta_ns: Nanos) -> Self {
        self.phase_delta_ns = delta_ns;
        self
    }

    /// The request's target.
    pub fn target(&self) -> &AdmissionTarget {
        &self.target
    }

    /// The requested constraints.
    pub fn requested(&self) -> Constraints {
        self.constraints
    }

    /// The explicit anchor, when one was set.
    pub fn anchor(&self) -> Option<Nanos> {
        self.anchor_ns
    }

    /// The team phase stagger.
    pub fn delta_ns(&self) -> Nanos {
        self.phase_delta_ns
    }

    /// How many threads the request covers.
    pub fn members(&self) -> usize {
        match &self.target {
            AdmissionTarget::Thread(_) => 1,
            AdmissionTarget::Team(m) => m.len(),
        }
    }
}

/// The answer to an [`AdmissionRequest`]: either every targeted thread now
/// holds the reservation, or none does and the first rejection explains
/// why. Either way `members` is the request's size, so callers can account
/// capacity without re-inspecting the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an admission outcome carries the rejection you must handle"]
pub enum AdmissionOutcome {
    /// Every target holds the reservation.
    Admitted {
        /// Threads covered by the request.
        members: usize,
    },
    /// No target changed state; `error` is the first rejection.
    Rejected {
        /// Threads covered by the request.
        members: usize,
        /// Why the ledger (or validation) said no.
        error: AdmissionError,
    },
}

impl AdmissionOutcome {
    /// Whether the reservation was granted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionOutcome::Admitted { .. })
    }

    /// The rejection, if any.
    pub fn error(&self) -> Option<AdmissionError> {
        match self {
            AdmissionOutcome::Admitted { .. } => None,
            AdmissionOutcome::Rejected { error, .. } => Some(*error),
        }
    }

    /// Threads the request covered.
    pub fn members(&self) -> usize {
        match self {
            AdmissionOutcome::Admitted { members } | AdmissionOutcome::Rejected { members, .. } => {
                *members
            }
        }
    }

    /// Collapse to the legacy `Result` shape (member count on success).
    pub fn into_result(self) -> Result<usize, AdmissionError> {
        match self {
            AdmissionOutcome::Admitted { members } => Ok(members),
            AdmissionOutcome::Rejected { error, .. } => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let r = AdmissionRequest::thread(3);
        assert_eq!(r.members(), 1);
        assert_eq!(r.requested(), Constraints::default_aperiodic());
        assert_eq!(r.anchor(), None);
        assert_eq!(r.delta_ns(), 0);

        let c = Constraints::periodic(1_000_000, 50_000).build();
        let r = AdmissionRequest::team(vec![7, 8])
            .constraints(c)
            .anchor_at(42)
            .phase_delta_ns(9);
        assert_eq!(r.members(), 2);
        assert_eq!(r.requested(), c);
        assert_eq!(r.anchor(), Some(42));
        assert_eq!(r.delta_ns(), 9);
        assert_eq!(r.target(), &AdmissionTarget::Team(vec![7, 8]));
    }

    #[test]
    fn outcome_accessors() {
        let ok = AdmissionOutcome::Admitted { members: 4 };
        assert!(ok.is_admitted());
        assert_eq!(ok.error(), None);
        assert_eq!(ok.members(), 4);
        assert_eq!(ok.into_result(), Ok(4));

        let no = AdmissionOutcome::Rejected {
            members: 2,
            error: AdmissionError::UtilizationExceeded,
        };
        assert!(!no.is_admitted());
        assert_eq!(no.error(), Some(AdmissionError::UtilizationExceeded));
        assert_eq!(no.members(), 2);
        assert_eq!(no.into_result(), Err(AdmissionError::UtilizationExceeded));
    }
}

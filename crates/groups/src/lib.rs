//! Thread groups and their coordination substrate (§4.2, §4.4).
//!
//! Parallel execution demands collectively scheduling a *group* of threads
//! across CPUs. This crate provides the group machinery the paper's group
//! admission control (Algorithm 1, implemented in `nautix-rt`) is built
//! from:
//!
//! * [`registry`] — create/join/leave/destroy of named groups with
//!   attached state and the leader lock,
//! * [`coord`] — distributed election, barrier, reduction, and broadcast
//!   as one linear-cost blocking collective,
//! * [`phase`] — the phase-correction arithmetic that converts barrier
//!   release order into aligned first arrivals.

pub mod coord;
pub mod phase;
pub mod registry;

pub use coord::{Collective, CollectiveOutcome, CollectiveRelease, Decision};
pub use phase::{correct_constraints, correct_team, corrected_phase, estimate_delta};
pub use registry::{Group, GroupRegistry, MAX_GROUPS, MAX_GROUP_MEMBERS};

//! Cluster-scale multi-tenant admission: many [`nautix_rt::Node`] shards
//! behind one typed placement API.
//!
//! The paper admits hard real-time gangs onto *one* shared-memory node.
//! This crate asks the next question up the stack: given a fleet of such
//! nodes and a churning population of tenants — each a gang with periodic
//! constraints and a finite residency — which shard should take each
//! gang, and how much does the placement policy cost relative to a fluid
//! oracle? The layering mirrors the node's own admission design: policies
//! ([`PlacementPolicy`]) only *order* shards; the mechanism (one
//! all-or-nothing team admission per candidate via
//! [`nautix_rt::AdmissionRequest`]) is owned by the engine, so no policy
//! can place a gang the per-CPU ledgers would not certify.
//!
//! * [`tenant`] — [`TenantRequest`] and the deterministic heavy-tailed
//!   [`TenantStream`],
//! * [`policy`] — the [`PlacementStrategy`] palette: first-fit, best-fit
//!   by ledger utilization, power-of-two-choices, and the RT-Gang-style
//!   one-gang-per-shard baseline,
//! * [`cluster`] — [`ClusterConfig`], the reusable [`Fleet`], and the
//!   [`run`] / [`run_fresh`] / [`run_pooled`] / [`run_with_policy`] entry
//!   points producing a [`ClusterOutcome`].
//!
//! Everything is a pure function of [`ClusterConfig`] (see the
//! determinism tests): the replay layer records a cluster scenario as a
//! handful of integers and a strategy name.

pub mod cluster;
pub mod policy;
pub mod tenant;

pub use cluster::{
    run, run_fresh, run_pooled, run_with_policy, ClusterConfig, ClusterOutcome, Fleet,
    PlacementOutcome,
};
pub use policy::{ClusterView, PlacementPolicy, PlacementStrategy, ScriptedPolicy, ShardView};
pub use tenant::{TenantRequest, TenantStream, PERIODS_NS, UTILS_PPM};

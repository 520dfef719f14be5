//! `nautix-stats`: the live statistics layer.
//!
//! Three pieces, bottom up:
//!
//! * [`snapshot`] — [`StatsSnapshot`], one flat additive bundle of every
//!   counter the evaluation cares about, with a strict versioned text
//!   codec. Deltas merge by component-wise sum, so totals are independent
//!   of worker scheduling.
//! * [`hub`] — [`StatsHub`], a channel collector that merges per-trial
//!   delta snapshots and per-shard progress beats from harness workers
//!   into a process-level series, and atomically publishes [`Frame`]s to
//!   a stream file for live viewers.
//! * `nautix-top` (binary) — a one-screen terminal view over the stream
//!   file: per-shard throughput, miss rates, fault lanes, steal locality.
//!
//! The whole layer is observation-only: streaming on or off, a run's
//! simulated history is byte-identical.

pub mod hub;
pub mod snapshot;
pub mod text;

pub use hub::{Frame, HubOptions, HubReport, Sampler, ShardStat, StatsHub, StatsTx};
pub use snapshot::{StatsSnapshot, SNAPSHOT_HEADER};

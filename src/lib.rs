//! # nautix — hard real-time scheduling for parallel run-time systems
//!
//! A faithful, simulator-backed reproduction of
//! *Hard Real-time Scheduling for Parallel Run-time Systems*
//! (Dinda, Wang, Wang, Beauchene, Hetland — HPDC 2018).
//!
//! This facade crate re-exports the workspace's layers under one roof:
//!
//! * [`des`] — deterministic discrete-event engine,
//! * [`hw`] — the x64 shared-memory node model (TSCs, APICs, IPIs, SMIs),
//! * [`kernel`] — the Nautilus-like kernel substrate (threads, queues,
//!   tasks, interrupt steering),
//! * [`groups`] — thread groups and their coordination primitives (one
//!   collective type: election, barrier, reduction, broadcast),
//! * [`rt`] — the paper's contribution: the hard real-time scheduler,
//!   admission control, time synchronization, and gang-scheduled groups,
//! * [`bsp`] — the bulk-synchronous-parallel microbenchmark of §6,
//! * [`runtime`] — a fork-join (OpenMP-style) data-parallel run-time on
//!   top of the gang scheduler (§8's direction, implemented).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use nautix_bsp as bsp;
pub use nautix_des as des;
pub use nautix_groups as groups;
pub use nautix_hw as hw;
pub use nautix_kernel as kernel;
pub use nautix_rt as rt;
pub use nautix_runtime as runtime;

/// Commonly used items, for `use nautix::prelude::*`.
pub mod prelude {
    pub use nautix_des::{Cycles, Freq, Nanos};
    pub use nautix_hw::{CostModel, MachineConfig, Platform};
    pub use nautix_kernel::{Action, Program, ResumeCx, SysCall, ThreadId};
    pub use nautix_rt::{AdmissionPolicy, Constraints, Node, NodeConfig, SchedConfig};
}

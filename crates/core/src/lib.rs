//! The paper's primary contribution: a hard real-time scheduler for
//! parallel run-time systems on shared-memory x64 nodes.
//!
//! * [`admission`] — utilization-limit/reservation admission control with
//!   EDF, RM, and hyperperiod-simulation policies (§3.2),
//! * [`local`] — the eager-EDF local scheduler, one per hardware thread
//!   (§3.3, §3.6),
//! * [`timesync`] — boot-time cross-CPU cycle-counter calibration (§3.4),
//! * [`node`] — the global scheduler's event pump: the loop binding local
//!   schedulers, the kernel substrate, interrupt steering, kick IPIs and
//!   lightweight tasks. Its two cross-CPU interactions are private modules
//!   entered from the pump: `gang` (group syscalls and group admission
//!   control, Algorithm 1 of §4.3 with the phase correction of §4.4) and
//!   `global` (the idle path: reaping and work stealing, §3.4),
//! * [`stats`] — the measurements the evaluation (§5) reports,
//! * [`cyclic`] — the §8 future-work direction implemented: compiling
//!   task sets into statically verified cyclic executives.

pub mod admission;
pub mod config;
pub mod cyclic;
mod gang;
mod global;
pub mod local;
pub mod node;
pub mod oracle;
pub mod pool;
mod replay;
pub mod request;
pub mod stats;
pub mod timeline;
pub mod timesync;

pub use admission::{
    admission_global_stats, AdmissionPolicy, CpuLoad, DegradePolicy, LayerConfigError, LayerSpec,
    LayerTable, SchedConfig, SchedMode, SimCache, SimProbe, StealPolicy, MAX_LAYERS, PPM,
};
pub use config::{parse_switch, parse_threads, HarnessConfig};
pub use cyclic::{
    compile as compile_cyclic, CyclicError, CyclicExecutive, CyclicSchedule, CyclicTask,
};
pub use gang::{GaTiming, GaTimings};
pub use local::{
    degrade_global_stats, Decision, InvokeReason, JobOutcome, LocalScheduler, SchedThread,
};
pub use node::{Node, NodeConfig};
pub use pool::NodePool;
pub use request::{AdmissionOutcome, AdmissionRequest, AdmissionTarget};
pub use stats::{
    dispatch_spreads, AdmissionStats, CpuSchedStats, DegradeStats, DispatchStamps,
    OverheadBreakdown, OverheadLog, OverheadSample, ThreadRtStats,
};
pub use timeline::{Span, Timeline};
pub use timesync::{calibrate, wall_cycles, TimeSync};

// Re-export the scheduling ABI so users can stay within this crate.
pub use nautix_kernel::{AdmissionError, ConstraintError, Constraints, ConstraintsBuilder};

//! Nautilus-like kernel substrate.
//!
//! The paper's scheduler is embedded in Nautilus, "a kernel framework
//! designed to support HRT construction": streamlined threads, fixed-size
//! scheduler state, explicit buddy-system NUMA memory management, bounded
//! interrupt handlers, and fully steerable interrupts (§2). This crate is
//! that substrate, rebuilt for the simulated node (memory management is
//! not modeled: nothing in the simulation charges for it):
//!
//! * [`thread`] — the fixed-capacity thread table with reaping/reanimation,
//! * [`program`] — resumable thread bodies and the kernel service ABI,
//! * [`constraints`] — the Liu-model timing-constraint descriptors (§3.1),
//! * [`queue`] — fixed-size priority and round-robin queues (§3.3),
//! * [`task`] — lightweight size-tagged tasks (§3.1),
//! * [`steering`] — interrupt steering and segregation (§3.5).
//!
//! The hard real-time scheduler itself lives in `nautix-rt`.

pub mod constraints;
pub mod ids;
pub mod program;
pub mod queue;
pub mod steering;
pub mod task;
pub mod thread;

pub use constraints::{
    ppm_of, task_set_signature, AdmissionError, ConstraintError, Constraints, ConstraintsBuilder,
    Priority,
};
pub use ids::{GroupId, TaskId};
pub use program::{
    constrained_loop, Action, FnProgram, GroupError, IdleLoop, Program, ResumeCx, Script, SysCall,
    SysResult, ThreadId,
};
pub use queue::{FixedHeap, RrQueue};
pub use steering::{Steering, TPR_HARD_RT, TPR_OPEN};
pub use task::{Task, TaskQueueFull, TaskQueues};
pub use thread::{Thread, ThreadState, ThreadTable, WaitKind, MAX_THREADS};

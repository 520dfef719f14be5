//! Deterministic model of an x64 shared-memory node.
//!
//! This crate supplies the hardware the paper's scheduler runs on — the
//! parts of a Xeon Phi / Opteron box a kernel can see and touch:
//!
//! * per-CPU **TSCs** with boot-time phase skew and optional write support
//!   ([`tsc`]),
//! * per-CPU **APICs** with one-shot timers (tick quantization or TSC
//!   deadline) and processor-priority interrupt filtering ([`apic`]),
//! * **IPIs** and steerable external device interrupts,
//! * **SMIs** that stall every CPU while clocks keep running — the "missing
//!   time" of §3.6 ([`smi`]),
//! * composable **fault lanes** beyond SMIs — kick-IPI loss and delay,
//!   one-shot overshoot, frequency dips, spurious device interrupts, and
//!   single-CPU stalls ([`fault`]),
//! * the Figure 4 **scope**: the paper's parallel-port probe as a trace
//!   observer, and the analysis of its capture ([`gpio`]),
//! * a calibrated **cycle-cost model** for kernel paths ([`cost`]),
//!
//! all glued together by the event-driven [`Machine`].

pub mod apic;
pub mod cost;
pub mod fault;
pub mod gpio;
pub mod machine;
pub mod replay;
pub mod smi;
pub mod timer;
pub mod topology;
pub mod tsc;

pub use apic::{vector_priority, Apic, TimerMode, VEC_DEVICE_BASE, VEC_KICK, VEC_TIMER};
pub use cost::{Cost, CostModel};
pub use fault::{FaultPattern, FaultPlan, FaultStats};
pub use gpio::{scope, GpioProbe, GpioSample};
pub use machine::{CpuId, Machine, MachineConfig, MachineEvent, Platform};
pub use smi::{SmiConfig, SmiStats};
pub use timer::TimerSlots;
pub use topology::{shifted_victim, Distance, StealStages, TopoMap, Topology};
pub use tsc::Tsc;

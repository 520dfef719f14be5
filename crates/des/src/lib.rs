//! Deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the foundation the whole reproduction stands on: a
//! simulation clock measured in machine cycles, a cancellable event queue
//! with a deterministic tie-break order, a small deterministic PRNG wrapper,
//! and summary-statistics helpers used by the evaluation harnesses.
//!
//! Everything above this layer (the hardware model, the kernel, the
//! scheduler) is written as ordinary Rust executed *during* the simulation;
//! the engine only decides *when* things happen. Determinism is a design
//! requirement, not an accident: the paper's gang-scheduling argument
//! (HPDC'18, §4.1) rests on per-CPU schedulers being "completely
//! deterministic by design", and our tests assert that two runs with the
//! same seed produce bit-identical traces.

pub mod event;
pub mod rng;
pub mod stats;
pub mod text;
pub mod time;
pub mod wheel;

pub use event::{EventId, EventQueue};
pub use rng::DetRng;
pub use stats::{Histogram, OnlineStats, Summary};
pub use time::{Cycles, Freq, Nanos};

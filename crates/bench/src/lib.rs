//! Figure-by-figure reproduction harnesses for the HPDC'18 evaluation.
//!
//! Every figure in §5–§6, and every sweep beyond the paper, has a module
//! here exposing its experiment as a library function (so tests can run it
//! at reduced scale) and an entry in [`experiments::TABLE`] that runs it
//! once, writes its CSV under `results/` (override with `NAUTIX_RESULTS`)
//! and reports its paper-vs-measured row. `repro_all [--paper] [entry…]`,
//! the only experiment binary, runs the table or the named entries; the
//! default is a quick configuration that finishes in about a second,
//! `--paper` the paper-scale one.
//!
//! | Figure | Module | Entry |
//! |--------|--------|-------|
//! | 3 | [`fig03`] | `fig03_timesync` |
//! | 4 | [`fig04`] | `fig04_scope` |
//! | 5 | [`fig05`] | `fig05_overheads` |
//! | 6, 8 | [`missrate`] | `fig06_missrate_phi` |
//! | 7, 9 | [`missrate`] | `fig07_missrate_r415` |
//! | 10 | [`fig10`] | `fig10_group_admission` |
//! | 11, 12 | [`groupsync`] | `fig11_group_sync8`, `fig12_group_sync_scale` |
//! | 13, 14 | [`throttle`] | `fig13_14_throttle` |
//! | 15, 16 | [`barrier_removal`] | `fig15_16_barrier` |
//! | ablations | [`ablations`] | `abl_*` |
//! | isolation (§1 claim) | [`isolation`] | `exp_isolation` |
//! | beyond the paper: cluster admission | [`cluster_bench`] | `ext_cluster` |
//! | beyond the paper: fault injection | [`fault_sweep`] | `ext_faults` |
//! | beyond the paper: bandwidth layers | [`layers`] | `ext_layers` |
//! | beyond the paper: machine topology | [`topology`] | `ext_topology` |

pub mod ablations;
pub mod barrier_removal;
pub mod cluster_bench;
pub mod common;
pub mod experiments;
pub mod fault_sweep;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig10;
pub mod groupsync;
pub mod harness;
pub mod isolation;
pub mod layers;
pub mod missrate;
pub mod scenario;
pub mod throttle;
pub mod topology;

pub use common::{banner, f, out_dir, write_csv, Scale};
pub use harness::{run_trials, set_stats_stream, BenchReport, HarnessStats, TrialSet};
pub use scenario::{Scenario, TrialOutcome, Workload, REPLAY_HEADER};

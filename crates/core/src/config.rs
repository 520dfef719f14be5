//! Typed harness configuration.
//!
//! Experiment binaries, the parallel trial harness, and node construction
//! used to read `NAUTIX_THREADS` / `NAUTIX_ORACLES` directly from the
//! environment at scattered points. [`HarnessConfig`] replaces those with
//! one typed value: construct it explicitly in tests (so behavior is a
//! function of arguments, not ambient process state), or call
//! [`HarnessConfig::from_env`] exactly once at a binary's entry point —
//! the environment variables survive only as the compat shim inside that
//! constructor.
//!
//! Every knob parses **strictly**: a malformed value is a hard error at
//! the entry point, never a silent fall-through to the default. A typo'd
//! `NAUTIX_TOPOLOGY=2×4` must kill the run, not quietly benchmark the
//! flat machine.

use nautix_des::text::Value;
use nautix_hw::Topology;
use std::path::PathBuf;

/// A set-but-empty path variable is almost certainly a broken shell
/// expansion; die loudly instead of writing into the current directory.
fn env_path(var: &str) -> Option<PathBuf> {
    let v = std::env::var_os(var)?;
    assert!(!v.is_empty(), "{var}: set but empty");
    Some(PathBuf::from(v))
}

/// Strict worker-count parser behind `NAUTIX_THREADS`.
pub fn parse_threads(s: &str) -> Result<usize, String> {
    usize::decode(s.trim())
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("must be an integer >= 1, got `{s}`"))
}

/// Strict boolean parser behind `NAUTIX_ORACLES`. The empty string is an
/// error like any other junk: a set-but-empty switch is a broken shell
/// expansion, and an armed CI step must not run unarmed and report green.
pub fn parse_switch(s: &str) -> Result<bool, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "0" | "false" | "no" | "off" => Ok(false),
        other => Err(format!(
            "must be one of 1/true/yes/on/0/false/no/off, got `{other}`"
        )),
    }
}

/// How a harness run is configured: worker threads for parallel trials,
/// whether every constructed node arms the online invariant oracles, and
/// where the live stats hub streams. `NAUTIX_TOPOLOGY` and
/// `NAUTIX_REPLAY_DIR` are read where they act (`MachineConfig`
/// construction, trial recording) and are deliberately not fields: a
/// field nothing reads lets a test set it and get the default.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessConfig {
    /// Host worker threads for the parallel trial harness.
    pub threads: usize,
    /// Arm the online invariant oracles on every node (panic on the first
    /// invariant violation).
    pub oracles: bool,
    /// Where the live stats hub publishes frames (`NAUTIX_STATS_STREAM`);
    /// `None` disables streaming.
    pub stats_stream: Option<PathBuf>,
}

impl HarnessConfig {
    /// Serial, oracle-free, no stream: the explicit-configuration
    /// baseline for tests.
    pub fn serial() -> Self {
        HarnessConfig {
            threads: 1,
            oracles: false,
            stats_stream: None,
        }
    }

    /// A config with `threads` workers and everything else off.
    pub fn with_threads(threads: usize) -> Self {
        HarnessConfig {
            threads: threads.max(1),
            ..HarnessConfig::serial()
        }
    }

    /// The single environment entry point:
    ///
    /// * `NAUTIX_THREADS` — worker count (≥ 1); defaults to the host's
    ///   available parallelism,
    /// * `NAUTIX_ORACLES` — `1`/`true`/`yes`/`on` arms the oracles,
    ///   `0`/`false`/`no`/`off` or unset leaves them off; set but empty
    ///   is an error,
    /// * `NAUTIX_STATS_STREAM` — file path for live stats frames,
    ///
    /// and validates the two that are read where they act:
    /// `NAUTIX_TOPOLOGY` (`flat` or `<packages>x<llcs>`) and
    /// `NAUTIX_REPLAY_DIR` (a directory).
    ///
    /// A set-but-malformed value for any knob is a **hard error** — the
    /// run dies at the entry point instead of silently benchmarking the
    /// default. Reads the environment on every call (no caching), so
    /// tests that scope an override around a run observe it; everything
    /// downstream of a binary's entry point should take the constructed
    /// value instead of calling this again.
    pub fn from_env() -> Self {
        let threads = match std::env::var("NAUTIX_THREADS") {
            Ok(v) => parse_threads(&v).unwrap_or_else(|e| panic!("NAUTIX_THREADS: {e}")),
            Err(_) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        // Each of these hard-errors on a malformed value.
        Topology::from_env();
        Self::replay_dir_from_env();
        HarnessConfig {
            threads,
            oracles: Self::oracles_from_env(),
            stats_stream: env_path("NAUTIX_STATS_STREAM"),
        }
    }

    /// [`HarnessConfig::from_env`]'s `oracles` field alone. Node
    /// construction and trial recording run once per trial and read only
    /// the fields they use through these: the full constructor's `threads`
    /// default asks the host for its parallelism, which reads cgroup files.
    pub fn oracles_from_env() -> bool {
        match std::env::var("NAUTIX_ORACLES") {
            Ok(v) => parse_switch(&v).unwrap_or_else(|e| panic!("NAUTIX_ORACLES: {e}")),
            Err(_) => false,
        }
    }

    /// The `NAUTIX_REPLAY_DIR` emission directory, read per recorded trial.
    pub fn replay_dir_from_env() -> Option<PathBuf> {
        env_path("NAUTIX_REPLAY_DIR")
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_baseline_is_inert() {
        let c = HarnessConfig::serial();
        assert_eq!(c.threads, 1);
        assert!(!c.oracles);
        assert_eq!(c.stats_stream, None);
        assert_eq!(HarnessConfig::default(), c);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(HarnessConfig::with_threads(0).threads, 1);
        assert_eq!(HarnessConfig::with_threads(7).threads, 7);
    }

    // The strict parsers are tested pure — no process-global env mutation,
    // which would race against other tests in the same binary.

    #[test]
    fn threads_parser_rejects_junk_and_zero() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 16 "), Ok(16));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("four").is_err());
        assert!(parse_threads("-2").is_err());
    }

    #[test]
    fn switch_parser_rejects_junk() {
        assert_eq!(parse_switch("1"), Ok(true));
        assert_eq!(parse_switch("On"), Ok(true));
        assert_eq!(parse_switch("0"), Ok(false));
        assert_eq!(parse_switch("off"), Ok(false));
        assert!(parse_switch("enable").is_err());
        assert!(parse_switch("2").is_err());
        assert!(parse_switch("").is_err(), "set but empty must not mean off");
    }
}

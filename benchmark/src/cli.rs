//! Command-line arguments.

use crate::metrics::{RUN_SECONDS, WORKLOADS};

pub const USAGE: &str = "\
usage: bash benchmark/run.sh [options]

one run (what the driver calls; one JSON result line ends the output):
  --workload NAME --seed N --seconds S --trace 0|1

all workloads, interleaved, each run in a child process:
  [--reps N] [--seed N] [--seconds S] [--trace] [--out FILE]

other:
  --compare A.json B.json [--strict]   verdict per (metric, workload) row
  --manifest                           print BENCHMARK.json from the registry
";

#[derive(Debug, PartialEq)]
pub enum Mode {
    /// One workload, once, in this process.
    One {
        workload: String,
        trace: bool,
    },
    /// Every workload `reps` times, each run a child process.
    All {
        reps: usize,
        trace: bool,
        out: Option<String>,
    },
    Compare {
        a: String,
        b: String,
        strict: bool,
    },
    Manifest,
    /// Internal: print host ns per event of the repro traced sample.
    SampleRate,
}

#[derive(Debug, PartialEq)]
pub struct Args {
    pub mode: Mode,
    pub seed: u64,
    pub seconds: f64,
}

pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let argv: Vec<String> = argv.collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut reps = 5usize;
    let mut out = None;
    let mut compare = None;
    let mut strict = false;
    let mut manifest = false;
    let mut sample_rate = false;

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => workload = Some(value(&mut i, flag)?),
            "--seed" => {
                seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value(&mut i, flag)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--reps" => {
                reps = value(&mut i, flag)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--reps takes a whole number >= 1")?
            }
            // `--trace 0|1` from the driver; a bare `--trace` means 1.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    trace = false;
                }
                Some("1") => {
                    i += 1;
                    trace = true;
                }
                _ => trace = true,
            },
            "--out" => out = Some(value(&mut i, flag)?),
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                compare = Some((a, b));
            }
            "--strict" => strict = true,
            "--manifest" => manifest = true,
            "--sample-rate" => sample_rate = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let mode = if manifest {
        Mode::Manifest
    } else if sample_rate {
        Mode::SampleRate
    } else if let Some((a, b)) = compare {
        Mode::Compare { a, b, strict }
    } else if let Some(workload) = workload {
        if !WORKLOADS.iter().any(|w| w.name == workload) {
            return Err(format!("unknown workload `{workload}`"));
        }
        Mode::One { workload, trace }
    } else {
        Mode::All { reps, trace, out }
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = args("--workload storm_1024 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a.mode,
            Mode::One {
                workload: "storm_1024".into(),
                trace: true
            }
        );
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        let a = args("--workload storm_1024 --trace 0 --seed 1").unwrap();
        assert!(matches!(a.mode, Mode::One { trace: false, .. }));
    }

    #[test]
    fn bare_trace_and_defaults() {
        let a = args("--trace --reps 3").unwrap();
        match a.mode {
            Mode::All { reps, trace, out } => assert_eq!((reps, trace, out), (3, true, None)),
            other => panic!("{other:?}"),
        }
        assert_eq!(a.seed, 0);
    }

    #[test]
    fn junk_is_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--reps 0",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad} parsed");
        }
    }
}

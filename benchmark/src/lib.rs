//! The nautix benchmark: five named workloads measured end to end and
//! layer by layer, from outside the program — timing calls into public
//! functions and reading public counters. See `README.md` for why each
//! workload exists, which layer metric should move which end-to-end
//! metric, and how to read a traced run.
//!
//! One run (`--workload W --seed N --seconds S --trace 0|1`) measures one
//! workload once in this process and ends its output with one JSON result
//! line. Without `--workload` the same binary runs every workload several
//! times, each run in a child process, and writes `out/result.json`;
//! `--compare` gives the verdict between two such files.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod orchestrate;
pub mod report;
pub mod trace;
pub mod workloads;

use cli::Mode;
use json::Value;
use workloads::Checks;

/// The result line the driver reads: `correct`, `attempted`, `failed`,
/// and every metric of the run with its value and unit.
fn result_line(values: &[(&'static str, f64)], checks: &Checks) -> String {
    let metrics = values
        .iter()
        .map(|&(name, value)| {
            let (unit, ..) = metrics::describe(name).expect("a registered metric");
            (
                name.to_string(),
                Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::str(unit)),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(checks.attempted.max(1) as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_line()
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<i32, String> {
    let (values, checks) = if trace {
        let run = workloads::run_traced(workload, seed)?;
        println!(
            "{workload} seed {seed}: traced run, {} spans in {}",
            run.spans,
            workloads::trace_path(workload).display()
        );
        (run.values, run.checks)
    } else {
        let run = workloads::run_end_to_end(workload, seed, seconds)?;
        println!(
            "{workload} seed {seed}: {} pass(es), set-up measured {} times",
            run.passes, run.setups
        );
        (run.values, run.checks)
    };
    for &(name, value) in &values {
        let (unit, ..) = metrics::describe(name).expect("a registered metric");
        println!("{name:<36} {:>16} {unit}", report::num(value));
    }
    println!(
        "checks: {} failed of {} attempted",
        checks.failed, checks.attempted
    );
    println!("{}", result_line(&values, &checks));
    Ok(0)
}

pub fn main() {
    host::scrub_env();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let outcome = match args.mode {
        Mode::One { workload, trace } => run_one(&workload, args.seed, args.seconds, trace),
        Mode::All { reps, trace, out } => {
            orchestrate::run(reps, args.seed, args.seconds, trace, out)
        }
        Mode::Compare { a, b, strict } => compare::run(&a, &b, strict),
        Mode::Manifest => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(0)
        }
        Mode::SampleRate => {
            println!("{}", workloads::repro_sample_ns_per_event(args.seed));
            Ok(0)
        }
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

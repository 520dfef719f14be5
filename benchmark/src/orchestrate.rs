//! Running every workload several times: each run is a child process of
//! its own (fresh allocator, fresh statics, clean environment), the
//! workloads interleaved so slow drift of the host lands on all of them
//! alike. Collects the children's result lines into one result file.

use crate::json::{self, Value};
use crate::metrics;
use crate::{host, report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "nautix-benchmark/1";

/// The executable that measures `workload`: `armed_repro` lives in the
/// sibling built with the product's `trace` feature.
fn executable(workload: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let armed = cfg!(feature = "trace");
    let name = match (workload == "armed_repro", armed) {
        (true, false) => "nautix-benchmark-armed",
        (false, true) => "nautix-benchmark",
        _ => return Ok(me),
    };
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{path:?} is not built; start the benchmark with `bash benchmark/run.sh`"
        ))
    }
}

/// One child run's result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = executable(workload)?;
    let out = Command::new(&exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{exe:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{exe:?} --workload {workload}: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    let v = json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("{workload}: result line lacks `{key}`"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: result line lacks `metrics`"))?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Samples per metric of one workload, plus its summed checks.
#[derive(Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Collected {
    fn add(&mut self, r: ChildResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for (name, v) in r.metrics {
            self.samples.entry(name).or_default().push(v);
        }
    }
}

fn metric_entry(name: &str, samples: &[f64]) -> Value {
    let (_, better, _, exact) =
        metrics::describe(name).expect("children report registered metrics only");
    let row = report::Row::new(name, samples);
    Value::obj(vec![
        ("unit", Value::str(row.unit)),
        ("direction", Value::str(better.label())),
        match row.bound {
            Some(b) => ("bound", Value::Num(b)),
            None => ("exact", Value::Bool(exact)),
        },
        ("n", Value::Num(row.n as f64)),
        ("median", Value::Num(row.median)),
        ("q1", Value::Num(row.q1)),
        ("q3", Value::Num(row.q3)),
        (
            "samples",
            Value::Arr(samples.iter().map(|&x| Value::Num(x)).collect()),
        ),
    ])
}

fn section(c: &Collected, names: impl Iterator<Item = &'static str>) -> Value {
    Value::Obj(
        names
            .filter_map(|n| {
                c.samples
                    .get(n)
                    .map(|s| (n.to_string(), metric_entry(n, s)))
            })
            .collect(),
    )
}

pub fn run(
    reps: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
) -> Result<i32, String> {
    let workloads: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
    // Fail before the first long run if a sibling executable is missing.
    for w in &workloads {
        executable(w)?;
    }
    let host_meta = host::metadata(seed, reps);
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    for rep in 0..reps {
        for &w in &workloads {
            eprintln!("[{}/{reps}] {w}", rep + 1);
            collected
                .entry(w)
                .or_default()
                .add(run_child(w, seed, seconds, false)?);
        }
    }
    if trace {
        for &w in &workloads {
            eprintln!("[traced] {w}");
            collected
                .entry(w)
                .or_default()
                .add(run_child(w, seed, seconds, true)?);
        }
    }

    let mut any_failed = false;
    let mut by_workload = Vec::new();
    for &w in &workloads {
        let c = &collected[w];
        any_failed |= c.failed > 0;
        println!(
            "\n== {w} ==  checks: {} failed of {} attempted",
            c.failed, c.attempted
        );
        let rows: Vec<report::Row> = metrics::END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(metrics::per_layer_on(w).map(|m| m.name))
            .filter_map(|name| c.samples.get(name).map(|s| report::Row::new(name, s)))
            .collect();
        report::print_rows(&rows);
        by_workload.push((
            w.to_string(),
            Value::obj(vec![
                (
                    "checks",
                    Value::obj(vec![
                        ("attempted", Value::Num(c.attempted as f64)),
                        ("failed", Value::Num(c.failed as f64)),
                    ]),
                ),
                (
                    "end_to_end",
                    section(c, metrics::END_TO_END.iter().map(|m| m.name)),
                ),
                (
                    "per_layer",
                    section(c, metrics::per_layer_on(w).map(|m| m.name)),
                ),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("schema", Value::str(SCHEMA)),
        ("host", host_meta),
        ("workloads", Value::Obj(by_workload)),
    ]);
    let path = out
        .map(PathBuf::from)
        .unwrap_or_else(|| host::out_dir().join("result.json"));
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("\nwrote {}", path.display());

    Ok(i32::from(any_failed))
}

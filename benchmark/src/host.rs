//! What the benchmark needs from the host: a clean environment, where its
//! own directory is, peak memory, and the metadata a result file records.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Remove every product environment knob from this process. The product
/// still reads its configuration from the environment inside
/// `Node::new`, so a stray variable in the caller's shell would silently
/// change what is measured. Called first thing in `main`, before any
/// thread exists.
pub fn scrub_env() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("NAUTIX_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
}

/// The `benchmark/` directory of the checkout this binary was built from.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand: the only place a run writes.
pub fn out_dir() -> PathBuf {
    let p = bench_dir().join("out");
    std::fs::create_dir_all(&p).unwrap_or_else(|e| panic!("create {p:?}: {e}"));
    p
}

/// The repository root (where `results/` and `BENCHMARK.json` live).
pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("benchmark/ sits inside the repository")
        .to_path_buf()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host metadata recorded at the head of a result file.
pub fn metadata(seed: u64, reps: usize) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let root = repo_root();
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("loadavg_start", Value::Str(loadavg)),
        ("rustc", Value::Str(command_line("rustc", &["-V"], &root))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"], &root)),
        ),
        ("seed", Value::Num(seed as f64)),
        ("reps", Value::Num(reps as f64)),
    ])
}

//! `repro_all --replay` on a file it must refuse exits 2 and names the
//! offending key — it never reaches the simulator, where the same file
//! used to die on an index, an `expect` or an `assert!` (exit 101).
//!
//! Five of the files are well-formed and canonical but describe a node
//! that cannot boot (`Scenario::check_bootable`); three give a tick, a
//! mean or an interval of zero, which is not a value of its type; the
//! last spells a number the way `str::parse` tolerates and the codec does
//! not.

use std::process::Command;

const CORPUS_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/replays/flat_heap_feasible.replay"
);

#[test]
fn unbootable_and_non_canonical_files_exit_2_naming_the_key() {
    let good = std::fs::read_to_string(CORPUS_FILE).unwrap();
    let dir = std::env::temp_dir().join(format!("nautix-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (from, to, key)) in [
        (
            "node.sabotage_fifo none",
            "node.sabotage_fifo 99",
            "node.sabotage_fifo",
        ),
        ("node.laden 0", "node.laden ", "node.laden"),
        ("machine.cpus 2", "machine.cpus 1", "machine.cpus"),
        (
            "node.max_threads 1024",
            "node.max_threads 0",
            "node.max_threads",
        ),
        (
            "sched.granularity_ns 1",
            "sched.granularity_ns 0",
            "sched.granularity_ns",
        ),
        (
            "machine.timer_mode oneshot:26",
            "machine.timer_mode oneshot:0",
            "machine.timer_mode",
        ),
        (
            "machine.smi off",
            "machine.smi poisson:0:100:200",
            "machine.smi",
        ),
        (
            "machine.faults off",
            "machine.faults 0;0;0:0;0;0:0;poisson:0;0:0;0;off;0;off;0:0",
            "machine.faults",
        ),
        ("machine.seed 5", "machine.seed +5", "machine.seed"),
    ]
    .into_iter()
    .enumerate()
    {
        let bad = good.replacen(&format!("{from}\n"), &format!("{to}\n"), 1);
        assert_ne!(bad, good, "fixture has no `{from}` line");
        let path = dir.join(format!("case{i}.replay"));
        std::fs::write(&path, bad).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .arg("--replay")
            .arg(&path)
            .output()
            .expect("run repro_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{to}`: {stderr}");
        assert!(stderr.contains(key), "`{to}` must name `{key}`: {stderr}");
    }
    // The file they were edited from replays.
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--replay", CORPUS_FILE])
        .output()
        .expect("run repro_all");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("events: 835"));
    let _ = std::fs::remove_dir_all(&dir);
}

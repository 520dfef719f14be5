//! `repro_all --replay` on a file it must refuse exits 2 and names the
//! offending key — it never reaches the simulator, where the same file
//! used to die on an index, an `expect` or an `assert!` (exit 101).
//!
//! Ten of the files are well-formed and canonical but describe a node
//! that cannot boot or a workload whose reservation cannot exist
//! (`Scenario::check_bootable`); three give a tick, a mean or an interval
//! of zero, which is not a value of its type; the last spells a number the
//! way `str::parse` tolerates and the codec does not.

use std::process::Command;

fn corpus(stem: &str) -> String {
    format!("{}/tests/replays/{stem}.replay", env!("CARGO_MANIFEST_DIR"))
}

const FLAT: &str = "flat_heap_feasible";

#[test]
fn unbootable_and_non_canonical_files_exit_2_naming_the_key() {
    let dir = std::env::temp_dir().join(format!("nautix-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (stem, from, to, key)) in [
        (
            FLAT,
            "node.sabotage_fifo none",
            "node.sabotage_fifo 99",
            "node.sabotage_fifo",
        ),
        (FLAT, "node.laden 0", "node.laden ", "node.laden"),
        (FLAT, "machine.cpus 2", "machine.cpus 1", "machine.cpus"),
        (
            FLAT,
            "node.max_threads 1024",
            "node.max_threads 0",
            "node.max_threads",
        ),
        (
            FLAT,
            "sched.granularity_ns 1",
            "sched.granularity_ns 0",
            "sched.granularity_ns",
        ),
        // A slice of 600% of the period, a slice above the period, a
        // fleet of no shards.
        (
            "widening_churn",
            "workload fault_mix:30000:60:150",
            "workload fault_mix:30000:600:150",
            "workload",
        ),
        (
            "layer_starve_bg",
            "workload layer_mix:1000000:70:100",
            "workload layer_mix:1000000:600:40",
            "workload",
        ),
        (
            FLAT,
            "workload missrate:1000000:500000:60",
            "workload competing:30000:60000:20",
            "workload",
        ),
        // 5 x 2^62 wraps below 5 x 2^61: the slow thread's figures.
        (
            FLAT,
            "workload missrate:1000000:500000:60",
            "workload competing:4611686018427387904:2305843009213693952:20",
            "workload",
        ),
        (
            "cluster_po2_churn",
            "workload cluster:3:200:po2",
            "workload cluster:0:200:po2",
            "workload",
        ),
        (
            FLAT,
            "machine.timer_mode oneshot:26",
            "machine.timer_mode oneshot:0",
            "machine.timer_mode",
        ),
        (
            FLAT,
            "machine.smi off",
            "machine.smi poisson:0:100:200",
            "machine.smi",
        ),
        (
            FLAT,
            "machine.faults off",
            "machine.faults 0;0;0:0;0;0:0;poisson:0;0:0;0;off;0;off;0:0",
            "machine.faults",
        ),
        (FLAT, "machine.seed 5", "machine.seed +5", "machine.seed"),
    ]
    .into_iter()
    .enumerate()
    {
        let good = std::fs::read_to_string(corpus(stem)).unwrap();
        let bad = good.replacen(&format!("{from}\n"), &format!("{to}\n"), 1);
        assert_ne!(bad, good, "{stem} has no `{from}` line");
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
        .args(["--replay", &corpus(FLAT)])
        .output()
        .expect("run repro_all");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("events: 835"));
    let _ = std::fs::remove_dir_all(&dir);
}

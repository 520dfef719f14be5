//! Regression test: the parallel trial harness is bit-for-bit identical to
//! a serial run. Every trial is a pure function of its grid point and
//! seed, and results are collected in input order, so the thread count
//! must never leak into experiment output.

use nautix_bench::experiments::{self, TABLE};
use nautix_bench::throttle::Granularity;
use nautix_bench::{missrate, throttle, Scale};
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;
use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn serial_and_parallel_sweeps_are_identical() {
    // Miss-rate sweep (Figures 6/8): full grid, exact equality.
    let (serial, s1) = missrate::sweep_with_stats(
        &HarnessConfig::with_threads(1),
        Platform::Phi,
        Scale::Quick,
        5,
    );
    let (parallel, s4) = missrate::sweep_with_stats(
        &HarnessConfig::with_threads(4),
        Platform::Phi,
        Scale::Quick,
        5,
    );
    assert_eq!(s1.threads, 1);
    assert_eq!(s4.threads, 4);
    assert_eq!(serial, parallel, "thread count changed miss-rate results");
    assert_eq!(s1.events, s4.events, "simulated event counts must match");

    // Throttle sweep (Figure 13): compare the fields that feed the CSV.
    let (t1, _) = throttle::run_with_stats(
        &HarnessConfig::with_threads(1),
        Granularity::Coarse,
        Scale::Quick,
        3,
    );
    let (t3, _) = throttle::run_with_stats(
        &HarnessConfig::with_threads(3),
        Granularity::Coarse,
        Scale::Quick,
        3,
    );
    let key = |p: &throttle::ThrottlePoint| (p.period_ns, p.slice_ns, p.time_ns, p.admitted);
    assert_eq!(
        t1.iter().map(key).collect::<Vec<_>>(),
        t3.iter().map(key).collect::<Vec<_>>(),
        "thread count changed throttle results"
    );
}

/// Every file under `dir`, by name.
fn read_dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            let name = f.file_name().into_string().unwrap();
            (name, std::fs::read(f.path()).unwrap())
        })
        .collect()
}

#[test]
fn the_whole_figure_table_writes_the_same_bytes_at_one_and_four_threads() {
    let scratch = std::env::temp_dir().join(format!("nautix_determinism_{}", std::process::id()));
    let entries: Vec<_> = TABLE.iter().collect();
    let run = |threads: usize| {
        let dir = scratch.join(threads.to_string());
        std::fs::create_dir_all(&dir).unwrap();
        let hc = HarnessConfig::with_threads(threads);
        let run = experiments::run(&hc, Scale::Quick, &dir, &entries);
        let events: Vec<(String, u64)> = run
            .report
            .sections()
            .iter()
            .map(|(name, st)| (name.clone(), st.events))
            .collect();
        (read_dir_bytes(&dir), events)
    };
    let (files1, events1) = run(1);
    let (files4, events4) = run(4);
    // 25 CSVs and paper_vs_measured.txt.
    assert_eq!(files1.len(), 26);
    assert!(files1.keys().eq(files4.keys()), "file sets differ");
    for (name, bytes) in &files1 {
        assert!(
            files4[name] == *bytes,
            "{name} differs between 1 and 4 threads"
        );
    }
    assert_eq!(events1, events4, "per-section simulated event counts");
    std::fs::remove_dir_all(&scratch).unwrap();
}

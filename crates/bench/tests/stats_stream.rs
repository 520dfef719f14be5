//! Satellite 3: the streaming stats layer is a pure refactoring of
//! single-threaded accounting — merging the per-trial delta snapshots
//! that N harness workers publish gives byte-for-byte the totals a
//! serial accumulation produces, and the published stream file parses
//! back to the same numbers.
//!
//! The installed stream is process-global state, so everything that
//! touches it lives in ONE `#[test]` (integration tests in a file share
//! a process and run on parallel threads).

use nautix_bench::harness::run_trials_pooled;
use nautix_bench::{set_stats_stream, Scenario};
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;
use nautix_stats::{Frame, HubOptions, StatsHub, StatsSnapshot};

/// A small mixed batch: both workload families, several seeds.
fn batch() -> Vec<Scenario> {
    let mut v = Vec::new();
    for seed in [5u64, 6, 7] {
        v.push(Scenario::missrate(Platform::Phi, 100_000, 30_000, 40, seed));
        v.push(Scenario::fault_mix(1.0, 30_000, 60, 150, seed));
    }
    // An infeasible point so the batch genuinely records misses.
    v.push(Scenario::missrate(Platform::Phi, 10_000, 7_000, 60, 5));
    v.push(Scenario::missrate(Platform::R415, 50_000, 10_000, 30, 9));
    v.push(Scenario::competing(200_000, 20_000, 30, 77));
    v
}

#[test]
fn fanned_worker_deltas_merge_to_the_serial_totals() {
    let scenarios = batch();

    // Ground truth: serial accumulation, no hub anywhere.
    let mut expect = StatsSnapshot::default();
    for sc in &scenarios {
        expect.merge(&sc.run_fresh().snapshot);
    }
    assert_eq!(expect.trials, scenarios.len() as u64);
    assert!(expect.events > 0 && expect.missed > 0 && expect.faults_total() > 0);

    // Fanned: 4 workers streaming deltas + beats into a hub that also
    // publishes frames to a file.
    let stream_path =
        std::env::temp_dir().join(format!("nautix-stats-test-{}.stream", std::process::id()));
    let hub = StatsHub::start(HubOptions {
        stream_path: Some(stream_path.clone()),
        flush_every: Some(std::time::Duration::from_millis(1)),
        ..HubOptions::default()
    });
    let prev = set_stats_stream(Some(hub.tx()));
    let outs = run_trials_pooled(
        &HarnessConfig::with_threads(4),
        scenarios.clone(),
        |pool, sc| {
            let out = sc.run_recorded(pool);
            let events = out.events;
            (out, events)
        },
    );
    set_stats_stream(prev);
    let report = hub.finish();

    // The golden equality: worker-merged == serial, byte for byte.
    assert_eq!(report.total, expect);
    assert_eq!(report.total.to_text(), expect.to_text());

    // Beats feed the shard table without touching totals: shard trial
    // and event sums must both equal the batch totals.
    assert_eq!(
        report.shards.iter().map(|s| s.trials).sum::<u64>(),
        expect.trials
    );
    assert_eq!(
        report.shards.iter().map(|s| s.events).sum::<u64>(),
        expect.events
    );

    // The last published frame matches the final totals and survives a
    // file round-trip.
    let frame = Frame::read(&stream_path).expect("stream file parses");
    assert_eq!(frame.snapshot, expect);
    assert_eq!(
        outs.results.iter().map(|o| o.events).sum::<u64>(),
        expect.events
    );
    let _ = std::fs::remove_file(&stream_path);

    // Re-running the same batch serially through the harness (1 thread,
    // fresh hub) must stream the identical total: order independence.
    let hub2 = StatsHub::start(HubOptions::default());
    let prev = set_stats_stream(Some(hub2.tx()));
    run_trials_pooled(&HarnessConfig::with_threads(1), scenarios, |pool, sc| {
        let out = sc.run_recorded(pool);
        let events = out.events;
        (out, events)
    });
    set_stats_stream(prev);
    assert_eq!(hub2.finish().total, expect);
}

//! Regression lock on admission work: a quick-scale repro workload's event
//! count is pinned, and rerunning it in the same process (memo caches warm,
//! pooled nodes reused) is byte-identical. Admission is an implementation
//! strategy, never an observable of the schedule.

use nautix_bench::missrate;
use nautix_bench::Scale;
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;

/// Quick-scale events of the missrate sweep (the repro_all section this
/// test replays), pinned. A change here means the schedule itself moved —
/// that must be a deliberate decision, never a side effect of admission
/// engine work.
const QUICK_SWEEP_EVENTS: u64 = 13_389;

#[test]
fn quick_sweep_event_count_is_pinned_and_self_identical() {
    let hc = HarnessConfig::serial();
    let (points, stats) = missrate::sweep_with_stats(&hc, Platform::Phi, Scale::Quick, 5);
    assert_eq!(
        stats.events, QUICK_SWEEP_EVENTS,
        "quick-scale event count moved; if intentional, re-pin the constant"
    );
    let (again, again_stats) = missrate::sweep_with_stats(&hc, Platform::Phi, Scale::Quick, 5);
    assert_eq!(again, points);
    assert_eq!(again_stats.events, stats.events);
}

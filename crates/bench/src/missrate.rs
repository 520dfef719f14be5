//! Figures 6–9: deadline miss rates and miss times vs. period and slice.
//!
//! Admission control is disabled so infeasible constraints can be mapped
//! (§5.3): "for too small of a period or slice, or too large of a slice
//! within a period, misses will be virtually guaranteed ... once the period
//! and slice are feasible given the scheduler overhead, we expect a zero
//! miss rate." The feasibility edge lands near a 10 µs period on the Phi
//! (Figure 6) and near 4 µs on the R415 (Figure 7); miss *times* in the
//! infeasible region stay small (Figures 8 and 9).

use crate::common::Scale;
use crate::harness::{run_trials_pooled, HarnessStats, NodePool};
use crate::scenario::Scenario;
use nautix_des::Nanos;
use nautix_hw::Platform;
use nautix_rt::HarnessConfig;

/// One (period, slice) sample of the sweep.
///
/// `PartialEq` is derived so determinism tests can compare whole sweeps
/// (serial vs. parallel) for exact equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissPoint {
    /// Period τ in µs.
    pub period_us: u64,
    /// Slice as % of period.
    pub slice_pct: u64,
    /// Fraction of jobs completing after their deadline.
    pub miss_rate: f64,
    /// Mean lateness of missing jobs, ns.
    pub miss_mean_ns: f64,
    /// Standard deviation of lateness, ns.
    pub miss_std_ns: f64,
    /// Jobs observed.
    pub jobs: u64,
    /// Simulated machine events this trial processed (throughput metric).
    pub events: u64,
}

/// The sweep grid for a platform.
pub fn periods_us(platform: Platform) -> Vec<u64> {
    match platform {
        Platform::Phi => vec![1000, 100, 50, 40, 30, 20, 10],
        Platform::R415 => vec![1000, 100, 50, 40, 30, 20, 10, 4],
    }
}

/// Slice percentages for the sweep.
pub fn slice_pcts(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => (10..=90).step_by(20).collect(),
        Scale::Paper => (10..=90).step_by(5).collect(),
    }
}

/// Measure one (period, slice) point on a fresh node.
pub fn measure_point(
    platform: Platform,
    period_ns: Nanos,
    slice_ns: Nanos,
    jobs: u64,
    seed: u64,
) -> MissPoint {
    measure_point_pooled(
        &mut NodePool::new(),
        platform,
        period_ns,
        slice_ns,
        jobs,
        seed,
    )
}

/// Measure one (period, slice) point, reusing `pool`'s node arenas.
///
/// The trial itself is described by [`Scenario::missrate`] and executed
/// through [`Scenario::run_recorded`], so every sweep point is
/// automatically streamable to the stats hub and replayable from its
/// scenario text if an armed oracle flags it.
pub fn measure_point_pooled(
    pool: &mut NodePool,
    platform: Platform,
    period_ns: Nanos,
    slice_ns: Nanos,
    jobs: u64,
    seed: u64,
) -> MissPoint {
    let sc = Scenario::missrate(platform, period_ns, slice_ns, jobs, seed);
    let out = sc.run_recorded(pool);
    MissPoint {
        period_us: period_ns / 1000,
        slice_pct: slice_ns * 100 / period_ns,
        miss_rate: out.miss_rate,
        miss_mean_ns: out.miss_mean_ns,
        miss_std_ns: out.miss_std_ns,
        jobs: out.jobs,
        events: out.events,
    }
}

/// The (period_ns, slice_ns, jobs) trial grid for a platform.
pub fn trial_grid(platform: Platform, scale: Scale) -> Vec<(Nanos, Nanos, u64)> {
    let jobs = match scale {
        Scale::Quick => 60,
        Scale::Paper => 300,
    };
    let mut grid = Vec::new();
    for period_us in periods_us(platform) {
        for pct in slice_pcts(scale) {
            let period_ns = period_us * 1000;
            let slice_ns = (period_ns * pct / 100).max(50);
            grid.push((period_ns, slice_ns, jobs));
        }
    }
    grid
}

/// Run the full sweep for a platform (Figures 6+8 or 7+9), with trials
/// fanned across worker threads. Each grid point is an independent
/// simulation seeded only by `(grid point, seed)`, so the result vector is
/// identical at any thread count.
pub fn sweep_with_stats(
    hc: &HarnessConfig,
    platform: Platform,
    scale: Scale,
    seed: u64,
) -> (Vec<MissPoint>, HarnessStats) {
    let set = run_trials_pooled(
        hc,
        trial_grid(platform, scale),
        |pool, &(period_ns, slice_ns, jobs)| {
            let p = measure_point_pooled(pool, platform, period_ns, slice_ns, jobs, seed);
            (p, p.events)
        },
    );
    (set.results, set.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_periods_never_miss_on_phi() {
        // 1 ms period, 50% slice: trivially feasible.
        let p = measure_point(Platform::Phi, 1_000_000, 500_000, 50, 5);
        assert!(p.jobs >= 40);
        assert_eq!(p.miss_rate, 0.0, "feasible point must not miss");
    }

    #[test]
    fn ten_us_with_fat_slice_always_misses_on_phi() {
        // Figure 6: at τ = 10 µs the overhead (~2 interrupts x ~4.6 µs)
        // leaves no room for a 70% slice.
        let p = measure_point(Platform::Phi, 10_000, 7_000, 100, 5);
        assert!(
            p.miss_rate > 0.9,
            "expected ~100% misses at the infeasible point, got {}",
            p.miss_rate
        );
        // Figure 8: miss times stay small (a few µs).
        assert!(
            p.miss_mean_ns < 20_000.0,
            "miss times {} ns should be small",
            p.miss_mean_ns
        );
    }

    #[test]
    fn r415_sustains_4us_with_thin_slice() {
        // Figure 7: the R415's edge of feasibility is ~4 µs.
        let p = measure_point(Platform::R415, 4_000, 400, 100, 5);
        assert!(
            p.miss_rate < 0.1,
            "R415 at 4 µs / 10% should be near the feasible edge, got {}",
            p.miss_rate
        );
    }

    #[test]
    fn phi_cannot_sustain_4us_at_all() {
        let p = measure_point(Platform::Phi, 4_000, 1_200, 100, 5);
        assert!(
            p.miss_rate > 0.5,
            "the Phi's edge is ~10 µs; 4 µs must fail (rate {})",
            p.miss_rate
        );
    }

    #[test]
    fn feasibility_edge_moves_with_slice_share() {
        // At 20 µs on the Phi: a thin slice fits, a fat one does not.
        let thin = measure_point(Platform::Phi, 20_000, 2_000, 100, 5);
        let fat = measure_point(Platform::Phi, 20_000, 16_000, 100, 5);
        assert!(thin.miss_rate < fat.miss_rate);
        assert!(fat.miss_rate > 0.9);
    }
}

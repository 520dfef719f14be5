//! Fault sweep: deterministic injection under graceful degradation.
//!
//! Sweeps the [`nautix_hw::FaultPlan::noisy`] intensity knob over an admitted
//! mixed-criticality workload (one periodic probe, one sporadic burst) and
//! reports, per grid point, the deadline miss rate, the per-lane injection
//! counts the machine recorded, and the degradation responses the local
//! schedulers took (sporadic demotion, periodic widening/demotion).
//!
//! Intensity 0.0 is always the first column: it runs the identical
//! workload with a disabled [`nautix_hw::FaultPlan`] and must match a fault-free
//! build byte for byte — the determinism contract the
//! `fault_determinism` test pins down.

use crate::common::Scale;
use crate::harness::{run_trials_pooled, HarnessStats, NodePool};
use crate::scenario::Scenario;
use nautix_des::Nanos;
use nautix_hw::FaultStats;
use nautix_rt::{DegradeStats, HarnessConfig};

/// One (intensity, period, slice) sample of the sweep.
///
/// `PartialEq` is derived so determinism tests can compare whole sweeps
/// (serial vs. parallel, fresh vs. pooled) for exact equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// Injection intensity passed to [`nautix_hw::FaultPlan::noisy`] (0 = disabled).
    pub intensity: f64,
    /// Probe period τ in µs.
    pub period_us: u64,
    /// Probe slice as % of period.
    pub slice_pct: u64,
    /// Periodic jobs observed.
    pub jobs: u64,
    /// Fraction of periodic jobs completing after their deadline.
    pub miss_rate: f64,
    /// Per-lane injection counters from the machine.
    pub faults: FaultStats,
    /// Degradation responses across the node's local schedulers.
    pub degrade: DegradeStats,
    /// Simulated machine events this trial processed.
    pub events: u64,
}

/// The intensities every sweep visits.
pub const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// The (intensity, period_ns, slice_pct, jobs) grid for a scale.
pub fn trial_grid(scale: Scale) -> Vec<(f64, Nanos, u64, u64)> {
    // Every point is feasible fault-free (the intensity-0 column must run
    // miss-free, or an armed oracle would flag a violated admission
    // guarantee); the short-period points leave only a few µs of slack,
    // so injected interference surfaces as misses and — sustained — as
    // degradation responses.
    let (periods_us, pcts, jobs): (Vec<u64>, Vec<u64>, u64) = match scale {
        Scale::Quick => (vec![1000, 100, 30], vec![30, 60], 150),
        Scale::Paper => (vec![1000, 100, 50, 30], vec![30, 50, 60], 400),
    };
    let mut grid = Vec::new();
    for i in INTENSITIES {
        for &p in &periods_us {
            for &pct in &pcts {
                grid.push((i, p * 1000, pct, jobs));
            }
        }
    }
    grid
}

/// Measure one grid point on a fresh node.
pub fn measure_point(
    intensity: f64,
    period_ns: Nanos,
    slice_pct: u64,
    jobs: u64,
    seed: u64,
) -> FaultPoint {
    measure_point_pooled(
        &mut NodePool::new(),
        intensity,
        period_ns,
        slice_pct,
        jobs,
        seed,
    )
}

/// Measure one grid point, reusing `pool`'s node arenas.
///
/// The trial itself is described by [`Scenario::fault_mix`] and executed
/// through [`Scenario::run_recorded`], so every sweep point is
/// automatically streamable to the stats hub and replayable from its
/// scenario text if an armed oracle flags it.
pub fn measure_point_pooled(
    pool: &mut NodePool,
    intensity: f64,
    period_ns: Nanos,
    slice_pct: u64,
    jobs: u64,
    seed: u64,
) -> FaultPoint {
    let sc = Scenario::fault_mix(intensity, period_ns, slice_pct, jobs, seed);
    let out = sc.run_recorded(pool);
    FaultPoint {
        intensity,
        period_us: period_ns / 1000,
        slice_pct,
        jobs: out.jobs,
        miss_rate: out.miss_rate,
        faults: out.faults,
        degrade: out.degrade,
        events: out.events,
    }
}

/// Run the full sweep, grid points fanned across worker threads as
/// independent trials on pooled nodes.
pub fn sweep_with_stats(
    hc: &HarnessConfig,
    scale: Scale,
    seed: u64,
) -> (Vec<FaultPoint>, HarnessStats) {
    let set = run_trials_pooled(
        hc,
        trial_grid(scale),
        |pool, &(intensity, period_ns, slice_pct, jobs)| {
            let p = measure_point_pooled(pool, intensity, period_ns, slice_pct, jobs, seed);
            (p, p.events)
        },
    );
    (set.results, set.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_intensity_runs_clean_and_injects_nothing() {
        let p = measure_point(0.0, 1_000_000, 30, 40, 7);
        assert_eq!(p.faults.total(), 0, "disabled plan must inject nothing");
        assert_eq!(p.miss_rate, 0.0, "feasible fault-free point must not miss");
        assert_eq!(p.degrade.total(), 0);
    }

    #[test]
    fn full_intensity_injects_on_every_configured_lane() {
        let p = measure_point(1.0, 100_000, 60, 200, 7);
        assert!(p.faults.total() > 0, "noisy plan must inject faults");
        assert!(
            p.faults.freq_dips + p.faults.spurious_irqs + p.faults.cpu_stalls > 0,
            "patterned lanes must fire over 20 ms: {:?}",
            p.faults
        );
    }

    #[test]
    fn same_inputs_reproduce_byte_identically() {
        let a = measure_point(0.5, 100_000, 60, 60, 11);
        let b = measure_point(0.5, 100_000, 60, 60, 11);
        assert_eq!(a, b);
    }
}

//! Figures 13 and 14: resource control with commensurate performance.
//!
//! The BSP benchmark is admitted as a gang with (τ, σ) constraints across
//! a sweep of period/slice combinations; the paper plots execution time
//! against utilization (σ/τ) and finds the execution rate "roughly matches
//! the time resources given", with more variation at the finest
//! granularity where the task execution time approaches the constraints
//! themselves.

use crate::common::Scale;
use crate::harness::{run_trials, HarnessStats};
use nautix_bsp::{run_bsp, BspMode, BspParams};
use nautix_des::Nanos;
use nautix_hw::MachineConfig;
use nautix_rt::{HarnessConfig, NodeConfig, SchedConfig};

/// One (τ, σ) sample.
#[derive(Debug, Clone, Copy)]
pub struct ThrottlePoint {
    /// Period τ, ns.
    pub period_ns: Nanos,
    /// Slice σ, ns.
    pub slice_ns: Nanos,
    /// Utilization σ/τ.
    pub utilization: f64,
    /// Benchmark execution time (slowest thread), ns.
    pub time_ns: Nanos,
    /// Whether admission succeeded.
    pub admitted: bool,
}

/// Granularity of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Figure 13: coarse — compute dominates.
    Coarse,
    /// Figure 14: fine — per-iteration work is comparable to constraints.
    Fine,
}

fn params(g: Granularity, p: usize, scale: Scale) -> BspParams {
    let iters = match (g, scale) {
        (Granularity::Coarse, Scale::Quick) => 6,
        (Granularity::Coarse, Scale::Paper) => 12,
        (Granularity::Fine, Scale::Quick) => 40,
        (Granularity::Fine, Scale::Paper) => 120,
    };
    match g {
        Granularity::Coarse => BspParams::coarse(p, iters),
        Granularity::Fine => BspParams::fine(p, iters),
    }
}

fn node_cfg(p: usize, seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(p + 1).with_seed(seed);
    cfg.sched = SchedConfig::throughput();
    cfg
}

/// The (period, slice%) grid.
pub fn grid(scale: Scale) -> (Vec<Nanos>, Vec<u64>) {
    match scale {
        Scale::Quick => (vec![200_000, 500_000, 1_000_000], vec![20, 50, 80]),
        Scale::Paper => (
            // 900 combinations like the paper: 30 periods x 30 slices.
            (1..=30).map(|i| 100_000 * i as u64).collect(),
            (1..=30).map(|i| 3 * i as u64).collect(),
        ),
    }
}

/// Number of worker CPUs.
pub fn worker_count(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 8,
        Scale::Paper => 63,
    }
}

/// Measure one point.
pub fn measure(
    g: Granularity,
    p: usize,
    period_ns: Nanos,
    slice_ns: Nanos,
    scale: Scale,
    seed: u64,
) -> ThrottlePoint {
    measure_instrumented(g, p, period_ns, slice_ns, scale, seed).0
}

/// [`measure`] plus the trial's simulated-event count.
pub fn measure_instrumented(
    g: Granularity,
    p: usize,
    period_ns: Nanos,
    slice_ns: Nanos,
    scale: Scale,
    seed: u64,
) -> (ThrottlePoint, u64) {
    let bsp = params(g, p, scale).with_mode(BspMode::RtGroup {
        period: period_ns,
        slice: slice_ns,
    });
    let r = run_bsp(node_cfg(p, seed), bsp);
    (
        ThrottlePoint {
            period_ns,
            slice_ns,
            utilization: slice_ns as f64 / period_ns as f64,
            time_ns: r.max_ns,
            admitted: r.admitted,
        },
        r.events,
    )
}

/// Run the full sweep for one granularity, grid points fanned across
/// worker threads as independent trials.
pub fn run_with_stats(
    hc: &HarnessConfig,
    g: Granularity,
    scale: Scale,
    seed: u64,
) -> (Vec<ThrottlePoint>, HarnessStats) {
    let (periods, slice_pcts) = grid(scale);
    let p = worker_count(scale);
    let mut points = Vec::new();
    for &period in &periods {
        for &pct in &slice_pcts {
            let slice = (period * pct / 100).max(1000);
            if slice * 100 >= period * 99 {
                continue; // beyond the 99% utilization limit
            }
            points.push((period, slice));
        }
    }
    let set = run_trials(hc, points, |&(period, slice)| {
        measure_instrumented(g, p, period, slice, scale, seed)
    });
    (set.results, set.stats)
}

/// Linear-control figure of merit: for each admitted point, the product
/// `time x utilization` should be roughly constant (perfect throttling);
/// returns (mean, coefficient of variation) of that product.
pub fn control_quality(points: &[ThrottlePoint]) -> (f64, f64) {
    let products: Vec<f64> = points
        .iter()
        .filter(|p| p.admitted && p.time_ns > 0)
        .map(|p| p.time_ns as f64 * p.utilization)
        .collect();
    if products.is_empty() {
        return (0.0, f64::INFINITY);
    }
    let mean = products.iter().sum::<f64>() / products.len() as f64;
    let var = products.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / products.len() as f64;
    (mean, var.sqrt() / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_throttling_is_commensurate() {
        // Same period, three utilizations: time scales inversely.
        let p = 4;
        let a = measure(Granularity::Coarse, p, 1_000_000, 800_000, Scale::Quick, 3);
        let b = measure(Granularity::Coarse, p, 1_000_000, 400_000, Scale::Quick, 3);
        let c = measure(Granularity::Coarse, p, 1_000_000, 200_000, Scale::Quick, 3);
        assert!(a.admitted && b.admitted && c.admitted);
        let r_ab = b.time_ns as f64 / a.time_ns as f64;
        let r_ac = c.time_ns as f64 / a.time_ns as f64;
        assert!((1.5..3.0).contains(&r_ab), "2x throttle ratio {r_ab}");
        assert!((2.8..6.0).contains(&r_ac), "4x throttle ratio {r_ac}");
    }

    #[test]
    fn throttling_holds_across_periods_at_equal_utilization() {
        // Figure 13: "regardless of the specific period chosen, benchmark
        // execution rate roughly matches the time resources given."
        let p = 4;
        let a = measure(Granularity::Coarse, p, 250_000, 125_000, Scale::Quick, 3);
        let b = measure(Granularity::Coarse, p, 1_000_000, 500_000, Scale::Quick, 3);
        let ratio = a.time_ns as f64 / b.time_ns as f64;
        assert!(
            (0.6..1.6).contains(&ratio),
            "same utilization, different periods: ratio {ratio}"
        );
    }

    #[test]
    fn fine_granularity_has_more_variation_than_coarse() {
        let run_g = |g| {
            let p = 4;
            let mut pts = Vec::new();
            for period in [200_000u64, 500_000, 1_000_000] {
                for pct in [25u64, 50, 75] {
                    pts.push(measure(g, p, period, period * pct / 100, Scale::Quick, 3));
                }
            }
            control_quality(&pts).1
        };
        let cv_coarse = run_g(Granularity::Coarse);
        let cv_fine = run_g(Granularity::Fine);
        assert!(
            cv_fine > cv_coarse,
            "fine granularity should vary more (fine {cv_fine} vs coarse {cv_coarse})"
        );
        assert!(
            cv_coarse < 0.35,
            "coarse control should be clean ({cv_coarse})"
        );
    }
}

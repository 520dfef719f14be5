//! Cluster-scale admission throughput experiment.
//!
//! Sweeps the synthetic multi-tenant stream over every placement
//! strategy at growing tenant counts and reports, per cell: packing
//! quality against the fluid oracle and the hyperperiod-sim memo hit rate
//! under churn. All cells share one stream seed, so every strategy faces
//! the *identical* arrival/departure sequence and the comparison is
//! apples to apples. Host throughput (decisions per second) is not a
//! result: `benchmark/`'s `cluster_churn` workload measures it.
//!
//! The `ext_cluster` entry of [`crate::experiments::TABLE`] writes
//! `results/cluster.csv`; `--paper` scales the sweep to a 16-shard fleet
//! and one million tenant gangs per strategy.

use crate::harness::{run_trials, stream_delta, HarnessStats};
use crate::Scale;
use nautix_cluster::{ClusterConfig, PlacementStrategy};
use nautix_rt::HarnessConfig;

/// One (strategy, tenant-count) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPoint {
    /// Strategy codec name (`first_fit`, `best_fit`, `po2`, `rt_gang`).
    pub strategy: &'static str,
    /// Fleet width in shards (nodes).
    pub shards: usize,
    /// CPUs per shard.
    pub cpus: usize,
    /// Tenant arrivals processed.
    pub tenants: u64,
    /// Placement decisions taken (one per arrival).
    pub decisions: u64,
    /// Tenants admitted.
    pub placed: u64,
    /// Tenants rejected.
    pub rejected: u64,
    /// Reservations released before the run ended.
    pub departures: u64,
    /// Shard admission transactions attempted.
    pub probes: u64,
    /// Summed admitted demand, parts-per-million of one CPU.
    pub placed_util_ppm: u64,
    /// The fluid oracle's admitted demand from the identical stream.
    pub oracle_util_ppm: u64,
    /// `placed_util_ppm / oracle_util_ppm` — 1.0 is a perfect packing.
    pub quality: f64,
    /// Hyperperiod-simulation memo hit rate over the run's churn.
    pub sim_hit_rate: f64,
}

/// The sweep grid for a scale: `(shards, cpus, tenant_counts)`.
pub fn grid(scale: Scale) -> (usize, usize, Vec<u64>) {
    match scale {
        Scale::Quick => (4, 8, vec![1_000, 4_000]),
        Scale::Paper => (16, 8, vec![50_000, 250_000, 1_000_000]),
    }
}

/// Run an explicit list of `(strategy, tenants)` cells on a
/// `shards`-by-`cpus` fleet, fanned across `hc.threads` workers. Every
/// cell derives from the same `seed`, so results are a pure function of
/// `(shards, cpus, cells, seed)` — thread count and worker fleet reuse
/// cannot change them.
pub fn run_cells(
    hc: &HarnessConfig,
    shards: usize,
    cpus: usize,
    cells: Vec<(PlacementStrategy, u64)>,
    seed: u64,
) -> (Vec<ClusterPoint>, HarnessStats) {
    let set = run_trials(hc, cells, |&(strategy, tenants)| {
        let cfg = ClusterConfig::new(shards, cpus, tenants, strategy).with_seed(seed);
        // Per-worker fleet: shard nodes are rebuilt (reset) per cell, so
        // pooled arenas are reused without leaking state between cells.
        let out = nautix_cluster::run_pooled(&cfg);
        stream_delta(&out.snapshot);
        let point = ClusterPoint {
            strategy: strategy.name(),
            shards,
            cpus,
            tenants,
            decisions: out.decisions,
            placed: out.placed,
            rejected: out.rejected,
            departures: out.departures,
            probes: out.probes,
            placed_util_ppm: out.placed_util_ppm,
            oracle_util_ppm: out.oracle_util_ppm,
            quality: out.quality(),
            sim_hit_rate: out.sim_hit_rate(),
        };
        (point, out.events)
    });
    (set.results, set.stats)
}

/// The full sweep for a scale: every strategy crossed with the scale's
/// tenant counts.
pub fn run_with_stats(
    hc: &HarnessConfig,
    scale: Scale,
    seed: u64,
) -> (Vec<ClusterPoint>, HarnessStats) {
    let (shards, cpus, tenant_counts) = grid(scale);
    let cells: Vec<(PlacementStrategy, u64)> = PlacementStrategy::ALL
        .iter()
        .flat_map(|&s| tenant_counts.iter().map(move |&t| (s, t)))
        .collect();
    run_cells(hc, shards, cpus, cells, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_thread_count_invariant_and_accounts_cleanly() {
        let cells = vec![
            (PlacementStrategy::FirstFit, 300),
            (PlacementStrategy::BestFit, 300),
            (PlacementStrategy::PowerOfTwo, 300),
        ];
        let (serial, _) = run_cells(&HarnessConfig::with_threads(1), 3, 4, cells.clone(), 77);
        let (fanned, _) = run_cells(&HarnessConfig::with_threads(3), 3, 4, cells, 77);
        assert_eq!(serial, fanned);
        for p in &serial {
            assert_eq!(p.decisions, p.tenants);
            assert_eq!(p.placed + p.rejected, p.decisions);
            assert!(p.placed > 0, "{}: nothing placed", p.strategy);
            assert!(p.quality > 0.0 && p.quality <= 1.0, "{}", p.quality);
        }
        // Identical stream: every strategy saw the same offered demand,
        // so oracle admissions agree across strategies too.
        assert!(serial
            .windows(2)
            .all(|w| { w[0].oracle_util_ppm == w[1].oracle_util_ppm }));
    }
}

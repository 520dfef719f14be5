//! Layered bandwidth-control sweep (the `ext_layers` entry).
//!
//! The experiment behind `results/layers.csv`: an RT probe and an
//! always-runnable background hog share one CPU, once under the default
//! (unlayered) table and once under the canonical three-layer table with
//! the background guaranteed `bg_guarantee_ppm`. Two claims are measured
//! at every sweep cell:
//!
//! 1. **Containment** — the hog's share of wall time under layering
//!    never exceeds its guarantee (plus replenish-quantization slack),
//!    no matter how much slack the RT point leaves on the table.
//! 2. **RT indifference** — the probe's miss rate is identical with and
//!    without layering: layers only take time from lower layers, never
//!    from the guaranteed RT work.
//!
//! Shares are computed from the execution timeline (per-thread wall-time
//! spans), so the measurement is independent of the stats plumbing it is
//! meant to check.

use nautix_des::Nanos;
use nautix_hw::MachineConfig;
use nautix_kernel::{constrained_loop, Action, Constraints, FnProgram};
use nautix_rt::{HarnessConfig, LayerSpec, LayerTable, Node, NodeConfig, Timeline};

use crate::common::Scale;
use crate::harness::{run_trials, HarnessStats};

/// One sweep cell: an (RT utilization, background guarantee) pair
/// measured layered and unlayered.
#[derive(Debug, Clone)]
pub struct LayerPoint {
    /// RT probe slice as a percentage of its 1 ms period.
    pub rt_pct: u64,
    /// Background layer guarantee, ppm of the CPU.
    pub bg_guarantee_ppm: u32,
    /// Hog share of wall time under the three-layer table.
    pub bg_share_layered: f64,
    /// Hog share of wall time under the default table (all the slack).
    pub bg_share_unlayered: f64,
    /// Probe miss rate under the three-layer table.
    pub rt_miss_layered: f64,
    /// Probe miss rate under the default table.
    pub rt_miss_unlayered: f64,
    /// Throttle events the layered run recorded.
    pub throttles: u64,
    /// Replenish events the layered run recorded.
    pub replenishes: u64,
}

struct TrialRun {
    bg_share: f64,
    rt_miss: f64,
    throttles: u64,
    replenishes: u64,
    events: u64,
}

/// The replenish window used throughout the sweep.
pub const REPLENISH_NS: Nanos = 10_000_000;

fn run_cell(layers: LayerTable, rt_pct: u64, horizon_ns: Nanos, seed: u64) -> TrialRun {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(seed);
    cfg.sched.layers = layers;
    let mut node = Node::new(cfg);
    let timeline = node.observe(Timeline::new(node.machine.n_cpus(), 1 << 22, node.freq()));

    let period = 1_000_000;
    let slice = period * rt_pct / 100;
    let requested = Constraints::periodic(period, slice).phase(period).build();
    let probe = constrained_loop(requested, 100_000);
    let probe_tid = node.spawn_on(1, "probe", Box::new(probe)).unwrap();
    let hog = FnProgram::new(move |_cx, _n| Action::Compute(100_000));
    let hog_tid = node.spawn_on(1, "hog", Box::new(hog)).unwrap();
    node.run_for_ns(horizon_ns);

    timeline.borrow_mut().finish(node.machine.now());
    let hog_ns: u64 = timeline
        .borrow()
        .spans()
        .iter()
        .filter(|s| s.tid == Some(hog_tid))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let snap = node.stats_snapshot();
    TrialRun {
        bg_share: hog_ns as f64 / horizon_ns as f64,
        rt_miss: node.thread_state(probe_tid).stats.miss_rate(),
        throttles: snap.layer_throttles,
        replenishes: snap.layer_replenishes,
        events: node.machine.events_processed(),
    }
}

/// Measure one sweep cell (layered and unlayered runs share the seed and
/// workload). Returns the point and the total simulated events.
pub fn measure(
    rt_pct: u64,
    bg_guarantee_ppm: u32,
    horizon_ns: Nanos,
    seed: u64,
) -> (LayerPoint, u64) {
    // RT gets the whole non-background residual: the sweep's claim is
    // about containing the hog, not about starving the probe, so the RT
    // layer must never be the binding constraint. Batch is unused by
    // this workload and sits at a zero guarantee (a boundary the config
    // layer explicitly allows).
    let table = LayerTable::three_way(
        LayerSpec {
            guarantee_ppm: 1_000_000 - bg_guarantee_ppm,
            burst_ppm: 0,
        },
        LayerSpec {
            guarantee_ppm: 0,
            burst_ppm: 0,
        },
        LayerSpec {
            guarantee_ppm: bg_guarantee_ppm,
            burst_ppm: 0,
        },
        REPLENISH_NS,
    )
    .expect("sweep layer table is valid");
    let layered = run_cell(table, rt_pct, horizon_ns, seed);
    let base = run_cell(LayerTable::default(), rt_pct, horizon_ns, seed);
    let point = LayerPoint {
        rt_pct,
        bg_guarantee_ppm,
        bg_share_layered: layered.bg_share,
        bg_share_unlayered: base.bg_share,
        rt_miss_layered: layered.rt_miss,
        rt_miss_unlayered: base.rt_miss,
        throttles: layered.throttles,
        replenishes: layered.replenishes,
    };
    (point, layered.events + base.events)
}

/// The full sweep grid for `scale`, fanned over the harness.
pub fn sweep(hc: &HarnessConfig, scale: Scale, seed: u64) -> (Vec<LayerPoint>, HarnessStats) {
    let horizon_ns = match scale {
        Scale::Quick => 100_000_000,
        Scale::Paper => 1_000_000_000,
    };
    let cells: Vec<(u64, u32)> = [30u64, 50, 70]
        .iter()
        .flat_map(|&rt| [50_000u32, 100_000, 200_000].iter().map(move |&g| (rt, g)))
        .collect();
    let set = run_trials(hc, cells, |&(rt_pct, g)| {
        measure(rt_pct, g, horizon_ns, seed)
    });
    (set.results, set.stats)
}

/// Replenish-quantization slack on the measured share: a throttled layer
/// can overdraw each window by roughly one scheduling pass, and the
/// probe's own phase shifts where windows land. Three points of share is
/// comfortably above what the quick horizon quantizes to.
pub const SHARE_SLACK: f64 = 0.03;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Vec<LayerPoint> {
        sweep(&HarnessConfig::serial(), Scale::Quick, 23).0
    }

    #[test]
    fn background_never_exceeds_its_guarantee() {
        for p in quick() {
            let cap = p.bg_guarantee_ppm as f64 / 1e6 + SHARE_SLACK;
            assert!(
                p.bg_share_layered <= cap,
                "rt {}%, bg {} ppm: hog took {:.4} of the CPU, cap {:.4}",
                p.rt_pct,
                p.bg_guarantee_ppm,
                p.bg_share_layered,
                cap
            );
            assert!(p.throttles > 0, "hog demand must exhaust its bucket");
            assert!(p.replenishes > 0, "windows must roll over the horizon");
        }
    }

    #[test]
    fn rt_miss_rate_matches_the_unlayered_run() {
        for p in quick() {
            assert_eq!(
                p.rt_miss_layered, p.rt_miss_unlayered,
                "rt {}%, bg {} ppm: layering changed the probe's misses",
                p.rt_pct, p.bg_guarantee_ppm
            );
        }
    }

    #[test]
    fn unlayered_hog_soaks_up_the_slack() {
        // The containment claim is only interesting if the hog *would*
        // have taken more: unlayered it must exceed every guarantee in
        // the grid at the low-RT points.
        for p in quick().iter().filter(|p| p.rt_pct <= 50) {
            assert!(
                p.bg_share_unlayered > p.bg_guarantee_ppm as f64 / 1e6 + SHARE_SLACK,
                "rt {}%, bg {} ppm: unlayered hog share {:.4} never exceeded the guarantee — \
                 the cell is vacuous",
                p.rt_pct,
                p.bg_guarantee_ppm,
                p.bg_share_unlayered
            );
        }
    }
}

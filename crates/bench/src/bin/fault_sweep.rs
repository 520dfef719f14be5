//! Fault sweep: deterministic injection + graceful degradation.
//!
//! Sweeps `FaultPlan::noisy` intensities over an admitted workload and
//! writes `results/fault_sweep.csv`. Run with
//! `NAUTIX_ORACLES=1` to have every node check the online
//! invariant oracles and attribute environment-induced misses to fault
//! lanes; `NAUTIX_FAULTS=<x>` appends an extra intensity to the grid.

use nautix_bench::{banner, f, fault_sweep, out_dir, write_csv, Scale};
use nautix_rt::HarnessConfig;

fn main() {
    let scale = Scale::from_args();
    let hc = HarnessConfig::from_env();
    banner("Fault sweep: injection lanes + degradation responses");
    println!(
        "scale: {scale:?}; {} worker threads; intensities {:?}\n",
        hc.threads,
        fault_sweep::intensities(&hc)
    );
    let (pts, stats) = fault_sweep::sweep_with_stats(&hc, scale, 77);

    write_csv(
        &out_dir().join("fault_sweep.csv"),
        &[
            "intensity",
            "period_us",
            "slice_pct",
            "jobs",
            "miss_rate",
            "kicks_dropped",
            "kicks_delayed",
            "timer_overshoots",
            "freq_dips",
            "spurious_irqs",
            "cpu_stalls",
            "faults_total",
            "sporadic_demotions",
            "periodic_widenings",
            "periodic_demotions",
        ],
        pts.iter().map(|p| {
            vec![
                f(p.intensity),
                p.period_us.to_string(),
                p.slice_pct.to_string(),
                p.jobs.to_string(),
                f(p.miss_rate),
                p.faults.kicks_dropped.to_string(),
                p.faults.kicks_delayed.to_string(),
                p.faults.timer_overshoots.to_string(),
                p.faults.freq_dips.to_string(),
                p.faults.spurious_irqs.to_string(),
                p.faults.cpu_stalls.to_string(),
                p.faults.total().to_string(),
                p.degrade.sporadic_demotions.to_string(),
                p.degrade.periodic_widenings.to_string(),
                p.degrade.periodic_demotions.to_string(),
            ]
        }),
    );
    println!("wrote {:?}", out_dir().join("fault_sweep.csv"));

    // Per-intensity rollup: how injection load translates into misses and
    // degradation responses.
    println!("\nintensity  points  miss_rate(mean)  faults  demotions  widenings");
    for &i in &fault_sweep::intensities(&hc) {
        let rows: Vec<_> = pts.iter().filter(|p| p.intensity == i).collect();
        if rows.is_empty() {
            continue;
        }
        let mean_miss = rows.iter().map(|p| p.miss_rate).sum::<f64>() / rows.len() as f64;
        let faults: u64 = rows.iter().map(|p| p.faults.total()).sum();
        let demotions: u64 = rows
            .iter()
            .map(|p| p.degrade.sporadic_demotions + p.degrade.periodic_demotions)
            .sum();
        let widenings: u64 = rows.iter().map(|p| p.degrade.periodic_widenings).sum();
        println!(
            "{:>9}  {:>6}  {:>15}  {:>6}  {:>9}  {:>9}",
            f(i),
            rows.len(),
            f(mean_miss),
            faults,
            demotions,
            widenings
        );
    }

    if hc.oracles {
        let (suites, o) = nautix_rt::oracle::global_stats();
        println!(
            "\noracles: CLEAN over {} node lifetimes — {} records consumed; \
             {} admitted-miss checks, {} environment-attributed",
            suites, o.records, o.miss_checks, o.environment_misses
        );
        for lane in nautix_trace::FaultLane::all() {
            if o.fault_records[lane.idx()] > 0 || o.env_miss_by_lane[lane.idx()] > 0 {
                println!(
                    "  fault lane {:>14}: {} injected, {} misses attributed",
                    lane.name(),
                    o.fault_records[lane.idx()],
                    o.env_miss_by_lane[lane.idx()],
                );
            }
        }
    }

    println!("\nfault_sweep: {stats}");
}

//! Cluster-scale multi-tenant admission service benchmark.
//!
//! Sweeps the synthetic tenant stream over every placement strategy at
//! growing tenant counts (to one million gangs per strategy with
//! `--paper`) and reports admission decisions/second, packing quality
//! against the fluid oracle, and the hyperperiod-sim memo hit rate.
//! Writes `results/cluster.csv` (simulated quantities only; decisions/s
//! is host timing and is printed, not stored). Set
//! `NAUTIX_STATS_STREAM=<path>` to watch cluster admission throughput
//! live with `nautix-top <path>`.

use nautix_bench::cluster_bench::run_with_stats;
use nautix_bench::{banner, f, out_dir, set_stats_stream, write_csv, Scale};
use nautix_rt::HarnessConfig;
use nautix_stats::{HubOptions, StatsHub};

fn main() {
    let scale = Scale::from_args();
    let hc = HarnessConfig::from_env();
    banner("Cluster admission service: placement strategies vs fluid oracle");
    println!(
        "scale: {scale:?} (pass --paper for 16 shards and 1M tenant gangs \
         per strategy); {} worker threads\n",
        hc.threads
    );
    let hub = hc.stats_stream.clone().map(|path| {
        let hub = StatsHub::start(HubOptions {
            stream_path: Some(path.clone()),
            ..HubOptions::default()
        });
        set_stats_stream(Some(hub.tx()));
        println!(
            "streaming live stats to {path:?} (watch with `nautix-top {}`)\n",
            path.display()
        );
        hub
    });

    let (points, stats) = run_with_stats(&hc, scale, 0xC1);

    println!("strategy   shards  tenants   placed  rejected  quality  sim_hit  kdec/s");
    for p in &points {
        println!(
            "{:<9}  {:>6}  {:>7}  {:>7}  {:>8}  {:>7}  {:>7}  {:>6}",
            p.strategy,
            p.shards,
            p.tenants,
            p.placed,
            p.rejected,
            f(p.quality),
            f(p.sim_hit_rate),
            f(p.decisions_per_sec / 1e3),
        );
    }
    let decisions: u64 = points.iter().map(|p| p.decisions).sum();
    let overall_dps = if stats.cpu_secs > 0.0 {
        decisions as f64 / stats.cpu_secs
    } else {
        0.0
    };
    println!(
        "\ntotal: {} decisions in {:.2}s serial-equivalent ({} decisions/s); \
         {:.2}s wall on {} threads",
        decisions,
        stats.cpu_secs,
        f(overall_dps),
        stats.wall_secs,
        stats.threads
    );

    write_csv(
        &out_dir().join("cluster.csv"),
        &[
            "strategy",
            "shards",
            "cpus",
            "tenants",
            "decisions",
            "placed",
            "rejected",
            "departures",
            "probes",
            "placed_util_ppm",
            "oracle_util_ppm",
            "quality",
            "sim_hit_rate",
        ],
        points.iter().map(|p| {
            vec![
                p.strategy.to_string(),
                p.shards.to_string(),
                p.cpus.to_string(),
                p.tenants.to_string(),
                p.decisions.to_string(),
                p.placed.to_string(),
                p.rejected.to_string(),
                p.departures.to_string(),
                p.probes.to_string(),
                p.placed_util_ppm.to_string(),
                p.oracle_util_ppm.to_string(),
                f(p.quality),
                f(p.sim_hit_rate),
            ]
        }),
    );
    println!("wrote {:?}", out_dir().join("cluster.csv"));

    if let Some(hub) = hub {
        set_stats_stream(None);
        let live = hub.finish();
        println!(
            "live stats: {} trials streamed over {} frames; final {}",
            live.total.trials,
            live.series.len(),
            live.total.headline()
        );
    }
}

//! Topology scale sweep: flat vs 2-package × 4-LLC machines at
//! 256/512/1024 CPUs (DESIGN.md §6e).
//!
//! Runs the miss-rate, group-sync, and steal-storm workloads over every
//! (CPU count, topology) cell — the storm additionally A/Bs
//! `StealPolicy::LlcFirst` against `Uniform` — and reports events/s,
//! steal locality hit rate, and cross-package kick fraction. Writes
//! `results/topology.csv`. Default scale is quick (the CI smoke run: 1024
//! CPUs only); pass `--paper` for the full 256/512/1024 curve. Exits 1
//! when LLC-first stealing fails to beat uniform on locality at a tree
//! cell.

use nautix_bench::{banner, f, out_dir, topology, write_csv, Scale};
use nautix_rt::HarnessConfig;

fn main() {
    let scale = Scale::from_args();
    banner("Topology scale sweep: flat vs 2x4, LLC-biased vs uniform stealing");
    let hc = HarnessConfig::from_env();
    let (rows, sections) = topology::sweep_with_stats(&hc, scale, 11);

    println!(
        "workload,n_cpus,topology,events,makespan_ms,miss_rate,spread_mean_cycles,\
         steals,steal_llc,steal_pkg,steal_xpkg,locality_hit_rate,\
         ipi_llc,ipi_pkg,ipi_xpkg,cross_pkg_kick_frac"
    );
    for p in &rows {
        println!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.workload,
            p.n_cpus,
            p.topology,
            p.events,
            f(p.makespan_ms),
            f(p.miss_rate),
            f(p.spread_mean_cycles),
            p.steals,
            p.steals_by_distance[0],
            p.steals_by_distance[1],
            p.steals_by_distance[2],
            f(p.locality_hit_rate()),
            p.ipis_by_distance[0],
            p.ipis_by_distance[1],
            p.ipis_by_distance[2],
            f(p.cross_package_kick_fraction()),
        );
    }
    write_csv(
        &out_dir().join("topology.csv"),
        &[
            "workload",
            "n_cpus",
            "topology",
            "events",
            "makespan_ms",
            "miss_rate",
            "spread_mean_cycles",
            "steals",
            "steal_llc",
            "steal_pkg",
            "steal_xpkg",
            "locality_hit_rate",
            "ipi_llc",
            "ipi_pkg",
            "ipi_xpkg",
            "cross_pkg_kick_frac",
        ],
        rows.iter().map(|p| {
            vec![
                p.workload.to_string(),
                p.n_cpus.to_string(),
                p.topology.clone(),
                p.events.to_string(),
                f(p.makespan_ms),
                f(p.miss_rate),
                f(p.spread_mean_cycles),
                p.steals.to_string(),
                p.steals_by_distance[0].to_string(),
                p.steals_by_distance[1].to_string(),
                p.steals_by_distance[2].to_string(),
                f(p.locality_hit_rate()),
                p.ipis_by_distance[0].to_string(),
                p.ipis_by_distance[1].to_string(),
                p.ipis_by_distance[2].to_string(),
                f(p.cross_package_kick_fraction()),
            ]
        }),
    );
    println!("wrote {:?}", out_dir().join("topology.csv"));

    for (name, stats) in sections {
        println!("{name}: {stats}");
    }

    // The headline A/B: at each tree cell, LLC-biased stealing must beat
    // uniform on locality hit rate.
    let mut broken = 0;
    for p in rows.iter().filter(|p| p.workload == "steal_llcfirst") {
        if let Some(u) = rows.iter().find(|u| {
            u.workload == "steal_uniform" && u.n_cpus == p.n_cpus && u.topology == p.topology
        }) {
            // Simulated throughput (events per simulated second) is the
            // deterministic form of the events/s comparison: uniform
            // stealing burns extra probe events *and* extra simulated
            // time, so it completes the same backlog slower even when
            // its host-side event grind rate looks similar.
            let sim_rate = |x: &nautix_bench::topology::TopoPoint| {
                if x.makespan_ms > 0.0 {
                    x.events as f64 / (x.makespan_ms / 1e3)
                } else {
                    0.0
                }
            };
            println!(
                "{} cpus {}: LlcFirst locality {} vs Uniform {}; makespan {} ms vs {} ms; \
                 {:.0} vs {:.0} simulated events/s",
                p.n_cpus,
                p.topology,
                f(p.locality_hit_rate()),
                f(u.locality_hit_rate()),
                f(p.makespan_ms),
                f(u.makespan_ms),
                sim_rate(p),
                sim_rate(u),
            );
            if p.topology != "flat" && p.locality_hit_rate() <= u.locality_hit_rate() {
                broken += 1;
                eprintln!(
                    "FAIL: LLC-biased stealing did not beat uniform on locality \
                     at {} cpus {}",
                    p.n_cpus, p.topology
                );
            }
        }
    }
    if broken > 0 {
        std::process::exit(1);
    }
}

//! Layered bandwidth-control sweep: RT probe + background hog at every
//! (RT utilization, background guarantee) grid cell, layered vs
//! unlayered (see `nautix_bench::layers`). Writes `results/layers.csv`;
//! pass `--paper` for the long-horizon sweep. Exits 1 when a cell breaks
//! one of the two deterministic claims: the background hog stays within
//! its guarantee, and layering leaves every RT miss rate unchanged.

use nautix_bench::{banner, f, layers, out_dir, write_csv, Scale};
use nautix_rt::HarnessConfig;

fn main() {
    let scale = Scale::from_args();
    banner("Layered scheduling: per-layer bandwidth control vs plain EDF");
    let hc = HarnessConfig::from_env();
    let (points, stats) = layers::sweep(&hc, scale, 23);

    println!(
        "rt_pct,bg_guarantee_ppm,bg_share_layered,bg_share_unlayered,\
         rt_miss_layered,rt_miss_unlayered,throttles,replenishes"
    );
    for p in &points {
        println!(
            "{},{},{},{},{},{},{},{}",
            p.rt_pct,
            p.bg_guarantee_ppm,
            f(p.bg_share_layered),
            f(p.bg_share_unlayered),
            f(p.rt_miss_layered),
            f(p.rt_miss_unlayered),
            p.throttles,
            p.replenishes
        );
    }
    write_csv(
        &out_dir().join("layers.csv"),
        &[
            "rt_pct",
            "bg_guarantee_ppm",
            "bg_share_layered",
            "bg_share_unlayered",
            "rt_miss_layered",
            "rt_miss_unlayered",
            "throttles",
            "replenishes",
        ],
        points.iter().map(|p| {
            vec![
                p.rt_pct.to_string(),
                p.bg_guarantee_ppm.to_string(),
                f(p.bg_share_layered),
                f(p.bg_share_unlayered),
                f(p.rt_miss_layered),
                f(p.rt_miss_unlayered),
                p.throttles.to_string(),
                p.replenishes.to_string(),
            ]
        }),
    );
    println!("wrote {:?}", out_dir().join("layers.csv"));

    println!("layer_sweep: {stats}");

    // The two headline claims. Both are simulated quantities, so a cell
    // that breaks one is a wrong result, not a slow host.
    let mut broken = 0;
    for p in &points {
        let cap = p.bg_guarantee_ppm as f64 / 1e6 + layers::SHARE_SLACK;
        println!(
            "rt {}% bg {} ppm: hog share {} layered vs {} unlayered; probe miss {} vs {}; \
             {} throttles",
            p.rt_pct,
            p.bg_guarantee_ppm,
            f(p.bg_share_layered),
            f(p.bg_share_unlayered),
            f(p.rt_miss_layered),
            f(p.rt_miss_unlayered),
            p.throttles
        );
        if p.bg_share_layered > cap {
            broken += 1;
            eprintln!(
                "FAIL: background exceeded its guarantee at rt {}% bg {} ppm \
                 (share {}, cap {})",
                p.rt_pct,
                p.bg_guarantee_ppm,
                f(p.bg_share_layered),
                f(cap)
            );
        }
        if p.rt_miss_layered != p.rt_miss_unlayered {
            broken += 1;
            eprintln!(
                "FAIL: layering changed the RT miss rate at rt {}% bg {} ppm \
                 ({} vs {})",
                p.rt_pct,
                p.bg_guarantee_ppm,
                f(p.rt_miss_layered),
                f(p.rt_miss_unlayered)
            );
        }
    }
    if broken > 0 {
        std::process::exit(1);
    }
    println!(
        "{} sweep cells: background contained, RT miss rates equal",
        points.len()
    );
}

//! Regenerate the replay regression corpus under
//! `crates/bench/tests/replays/` and print the pin table
//! (`name events headline`) that `tests/replay_corpus.rs` asserts.
//!
//! Run from the repo root after an intentional behavior change:
//!
//! ```text
//! cargo run -p nautix-bench --bin make_corpus
//! ```
//!
//! then update the `PINS` table in the corpus test from the output. The
//! corpus covers the codec and determinism surface, not the physics:
//! flat vs hierarchical topology, machines on either side of the event
//! queue's width boundary (the `heap`/`wheel` words in the file names are
//! historical: 2-CPU rigs run the heap, the 8-CPU ones the wheel), each
//! fault lane in isolation, and a degradation-churn case.

use nautix_bench::Scenario;
use nautix_cluster::PlacementStrategy;
use nautix_hw::{FaultPattern, FaultPlan, Platform, Topology};

/// The ten corpus scenarios. Quick-sized: the whole corpus replays in
/// a few seconds.
pub fn corpus() -> Vec<Scenario> {
    let mut v = Vec::new();

    // 1. Flat topology, 2-CPU rig, trivially feasible miss-rate point.
    let mut sc = Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 60, 5);
    sc.machine.topology = Topology::flat();
    sc.name = "flat_heap_feasible".into();
    v.push(sc);

    // 2. 2x4 topology, 8 CPUs, tight but feasible.
    let mut sc = Scenario::missrate(Platform::Phi, 100_000, 30_000, 60, 5);
    sc.machine.topology = Topology::parse("2x4").unwrap();
    sc.machine.n_cpus = 8;
    sc.name = "t2x4_wheel_tight".into();
    v.push(sc);

    // 3. The Figure 6 infeasible edge: 10 µs period, 70% slice on Phi.
    let mut sc = Scenario::missrate(Platform::Phi, 10_000, 7_000, 100, 5);
    sc.machine.topology = Topology::flat();
    sc.name = "phi_edge_infeasible".into();
    v.push(sc);

    // 4-7. Each fault lane in isolation, carved out of the full noisy
    // plan so rates and costs match the sweep preset.
    type LaneCarve = fn(FaultPlan) -> FaultPlan;
    let full = |sc: &Scenario| FaultPlan::noisy(sc.machine.platform.freq(), 1.0);
    let lanes: [(&str, LaneCarve); 4] = [
        ("lane_kick", |p| FaultPlan {
            kick_drop_ppm: p.kick_drop_ppm,
            kick_delay_ppm: p.kick_delay_ppm,
            kick_delay_extra: p.kick_delay_extra,
            ..FaultPlan::disabled()
        }),
        ("lane_timer_overshoot", |p| FaultPlan {
            timer_overshoot_ppm: p.timer_overshoot_ppm,
            timer_overshoot_extra: p.timer_overshoot_extra,
            ..FaultPlan::disabled()
        }),
        ("lane_freq_dip", |p| FaultPlan {
            freq_dip: p.freq_dip,
            freq_dip_duration: p.freq_dip_duration,
            freq_dip_loss_pct: p.freq_dip_loss_pct,
            ..FaultPlan::disabled()
        }),
        ("lane_spurious_stall", |p| FaultPlan {
            spurious_irq: p.spurious_irq,
            spurious_irq_line: p.spurious_irq_line,
            cpu_stall: p.cpu_stall,
            cpu_stall_duration: p.cpu_stall_duration,
            ..FaultPlan::disabled()
        }),
    ];
    for (name, carve) in lanes {
        let mut sc = Scenario::fault_mix(1.0, 100_000, 60, 150, 7);
        sc.machine.faults = carve(full(&sc));
        assert!(sc.machine.faults.enabled(), "{name}: lane carve is empty");
        sc.name = name.into();
        v.push(sc);
    }

    // 8. Widening churn: short period, fat slice, hostile intensity —
    // sustained misses drive repeated periodic widening.
    let mut sc = Scenario::fault_mix(1.0, 30_000, 60, 150, 7);
    sc.name = "widening_churn".into();
    v.push(sc);

    // 9. Cluster placement under churn: a 3-shard fleet admitting 200
    // tenant gangs with power-of-two-choices. Pins the cluster codec tag
    // and the whole placement/departure history (the headline's
    // `cluster=` triple). The topology is pinned by the cluster
    // constructor itself (flat).
    let mut sc = Scenario::cluster(3, 8, 200, PlacementStrategy::PowerOfTwo, 5);
    sc.name = "cluster_po2_churn".into();
    v.push(sc);

    // 10. Layer starvation: the three-layer table throttles an
    // always-runnable background hog under RT saturation, pinning the
    // codec's `sched.layers` line and the throttle/replenish history.
    let mut sc = Scenario::layer_starve(1_000_000, 70, 100, 5);
    sc.name = "layer_starve_bg".into();
    v.push(sc);

    for sc in &v {
        assert!(
            matches!(
                sc.machine.faults.cpu_stall,
                FaultPattern::Disabled | FaultPattern::Poisson { .. }
            ),
            "corpus plans stay on preset patterns"
        );
    }
    v
}

fn main() {
    let dir = std::path::Path::new("crates/bench/tests/replays");
    std::fs::create_dir_all(dir).expect("create corpus dir");
    println!("{:<24} {:>10}  headline", "name", "events");
    for sc in corpus() {
        let path = dir.join(format!("{}.replay", sc.name));
        std::fs::write(&path, sc.to_replay_string())
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        let out = sc.run_fresh();
        println!(
            "{:<24} {:>10}  {}",
            sc.name,
            out.events,
            out.snapshot.headline()
        );
    }
}

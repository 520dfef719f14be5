//! Every decision of the four `quick` runs, pinned. `quick_outcomes.txt`
//! holds, per strategy, the probe total, the final-state fingerprint and
//! one line per tenant (accepting shard and probes, or probes and the
//! last ledger verdict), as the engine produced them before it kept its
//! per-CPU ledger summary and refused over-budget seat sets itself. Both
//! are shortcuts to verdicts the ledgers would have reached, so neither
//! may move a placement, a probe count or an error.

use nautix_cluster::{run_fresh, ClusterConfig, PlacementOutcome, PlacementStrategy};
use std::fmt::Write;

/// The `quick` configuration of the engine's unit tests, recorded.
fn quick(strategy: PlacementStrategy) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(4, 8, 400, strategy);
    cfg.record_placements = true;
    cfg
}

fn render(strategy: PlacementStrategy) -> String {
    let out = run_fresh(&quick(strategy));
    let mut s = String::new();
    writeln!(s, "strategy {}", strategy.name()).unwrap();
    writeln!(s, "probes {}", out.probes).unwrap();
    let fingerprint: Vec<String> = out.fingerprint.iter().map(u64::to_string).collect();
    writeln!(s, "fingerprint {}", fingerprint.join(" ")).unwrap();
    for p in &out.placements {
        match *p {
            PlacementOutcome::Placed { shard, probes } => {
                writeln!(s, "placed {shard} {probes}").unwrap()
            }
            PlacementOutcome::Rejected { probes, error } => {
                writeln!(s, "rejected {probes} {error:?}").unwrap()
            }
        }
    }
    s
}

#[test]
fn quick_runs_reproduce_the_pinned_outcomes() {
    let pinned = include_str!("quick_outcomes.txt");
    let now: String = PlacementStrategy::ALL.into_iter().map(render).collect();
    for (i, (want, got)) in pinned.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "quick_outcomes.txt line {}", i + 1);
    }
    assert_eq!(now.lines().count(), pinned.lines().count());
}

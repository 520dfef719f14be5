//! Differential properties of the cluster placement layer.
//!
//! Three guarantees, checked over randomized fleets, streams, and
//! strategies:
//!
//! 1. **Ledger feasibility** — whatever a policy does, every shard CPU's
//!    committed periodic utilization stays within the scheduler's
//!    periodic budget: the typed admission API is the only write path,
//!    and it cannot over-commit a ledger.
//! 2. **Serial re-application** — the final cluster state is a pure
//!    function of the accepted sequence: replaying the recorded
//!    shard-per-tenant script through [`ScriptedPolicy`] (no search, one
//!    probe per tenant) reproduces the fingerprint exactly.
//! 3. **Pinned quick-scale counts** — one fixed sweep cell's decision
//!    split is pinned, so a behavior drift in the stream, the policies,
//!    or the admission engine fails loudly here and in CI.

use nautix_cluster::{
    ClusterConfig, ClusterOutcome, Fleet, PlacementOutcome, PlacementStrategy, ScriptedPolicy,
};
use proptest::prelude::*;
use proptest::TestRng;

/// A small randomized cluster config: 1–4 shards, 2–6 CPUs, 50–400
/// tenants, any strategy, stream seed from `seed`.
fn arb_cfg(seed: u64) -> ClusterConfig {
    let mut rng = TestRng::seed_from(seed);
    let shards = 1 + rng.below(4) as usize;
    let cpus = 2 + rng.below(5) as usize;
    let tenants = 50 + rng.below(351);
    let strategy = PlacementStrategy::ALL[rng.below(4) as usize];
    let mut cfg = ClusterConfig::new(shards, cpus, tenants, strategy).with_seed(seed);
    cfg.record_placements = true;
    cfg
}

/// Per-CPU committed periodic utilization, decoded from the outcome
/// fingerprint (layout: per shard, per CPU `[util ppm, count]`, then per
/// shard `[free slots, resident]`, then the placed/rejected/departure
/// tail).
fn cpu_utils(cfg: &ClusterConfig, out: &ClusterOutcome) -> Vec<u64> {
    let n_cpus = cfg.machine.n_cpus;
    let stride = 2 * n_cpus + 2;
    assert_eq!(out.fingerprint.len(), cfg.shards * stride + 3);
    (0..cfg.shards)
        .flat_map(|s| (0..n_cpus).map(move |c| (s, c)))
        .map(|(s, c)| out.fingerprint[s * stride + 2 * c])
        .collect()
}

proptest! {
    #[test]
    fn no_policy_overcommits_a_ledger(seed in 0u64..u64::MAX) {
        let cfg = arb_cfg(seed);
        let out = nautix_cluster::run_fresh(&cfg);
        let budget = cfg.sched.periodic_budget_ppm();
        for (i, util) in cpu_utils(&cfg, &out).iter().enumerate() {
            prop_assert!(
                *util <= budget,
                "{}: CPU {} committed {} ppm over the {} ppm budget",
                cfg.strategy.name(), i, util, budget
            );
        }
        // The fluid oracle upper-bounds every real policy.
        prop_assert!(out.placed_util_ppm <= out.oracle_util_ppm);
        prop_assert!(out.placed <= out.decisions);
    }

    #[test]
    fn scripted_replay_of_accepted_sequence_reproduces_state(seed in 0u64..u64::MAX) {
        let cfg = arb_cfg(seed);
        let first = nautix_cluster::run_fresh(&cfg);
        let script: Vec<Option<usize>> =
            first.placements.iter().map(PlacementOutcome::shard).collect();
        prop_assert_eq!(script.len() as u64, cfg.tenants);
        let mut policy = ScriptedPolicy::new(script);
        let replay =
            nautix_cluster::run_with_policy(&cfg, &mut Fleet::new(), &mut policy);
        prop_assert_eq!(&replay.fingerprint, &first.fingerprint);
        prop_assert_eq!(replay.placed, first.placed);
        prop_assert_eq!(replay.rejected, first.rejected);
        prop_assert_eq!(replay.departures, first.departures);
        // The replay takes exactly one probe per placed tenant.
        prop_assert_eq!(replay.probes, replay.placed);
    }
}

/// The opening cell of `ext_cluster`'s quick sweep. Regenerate the pin
/// only for intentional behavior changes.
#[test]
fn quick_scale_decision_split_is_pinned() {
    let cfg = ClusterConfig::new(4, 8, 1_000, PlacementStrategy::FirstFit).with_seed(0xC1);
    let out = nautix_cluster::run_fresh(&cfg);
    assert_eq!(out.decisions, 1_000);
    assert_eq!(out.placed, 564);
    assert_eq!(out.rejected, 436);
    assert_eq!(
        out.snapshot.headline().rsplit_once(' ').unwrap().1,
        "cluster=1000/564/436"
    );
}

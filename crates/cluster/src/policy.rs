//! Pluggable gang-placement policies.
//!
//! A policy answers one question: *in what order should the cluster try
//! its shards for this tenant?* The engine owns the mechanism — it walks
//! the candidate list, submits one all-or-nothing team admission per shard
//! via the typed [`AdmissionRequest`](nautix_rt::AdmissionRequest) API,
//! and stops at the first shard whose ledgers accept. Policies therefore
//! *cannot* place infeasibly: a shard only ever joins the cluster state
//! through its own admission control. That split is what makes policies
//! differential-testable — every policy sees the identical tenant stream
//! and identical per-shard views, and any accepted placement is
//! ledger-feasible by construction (the property tests re-check both).
//!
//! Shipped strategies:
//!
//! * [`PlacementStrategy::FirstFit`] — shards in id order; the baseline.
//! * [`PlacementStrategy::BestFit`] — most-loaded feasible shard first
//!   (by summed ledger utilization), packing tenants tight.
//! * [`PlacementStrategy::PowerOfTwo`] — two deterministic random shard
//!   draws, least-loaded first, nothing else: the classic
//!   power-of-two-choices trade of global knowledge for two probes.
//! * [`PlacementStrategy::RtGang`] — at most one resident gang per shard
//!   (RT-Gang's one-gang-at-a-time discipline lifted to cluster scope),
//!   the comparison baseline from the paper's related work.

use crate::tenant::TenantRequest;
use nautix_des::text::{tag, Value};
use nautix_des::DetRng;

/// One shard as a policy sees it: cached ledger load and occupancy. Views
/// are rebuilt from the shard ledgers before every decision, so a policy
/// never acts on stale state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Shard id.
    pub shard: usize,
    /// Summed admitted periodic utilization over the shard's CPUs, ppm.
    pub util_ppm: u64,
    /// Summed periodic budget over the shard's CPUs, ppm.
    pub capacity_ppm: u64,
    /// Unoccupied slot threads.
    pub free_slots: usize,
    /// Resident (admitted, not yet departed) gangs.
    pub resident_gangs: usize,
}

/// The cluster as a policy sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    /// One view per shard, in shard-id order.
    pub shards: Vec<ShardView>,
}

/// A shard-ordering strategy. Implementations push candidate shard ids
/// into `out` (cleared by the engine beforehand) in the order they should
/// be tried; the engine performs the admissions.
pub trait PlacementPolicy {
    /// Stable name for reports and differential-test labels.
    fn name(&self) -> &'static str;

    /// Candidate shards for `req`, best first. An empty list rejects the
    /// tenant without touching any ledger.
    fn candidates(&mut self, req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>);
}

/// The shipped strategy set — the codec-stable names the scenario replay
/// layer and `cluster_bench` sweep over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Shards in id order.
    FirstFit,
    /// Most-loaded feasible shard first.
    BestFit,
    /// Two random draws, least-loaded first.
    PowerOfTwo,
    /// One resident gang per shard, id order.
    RtGang,
}

impl PlacementStrategy {
    /// Every shipped strategy, in report order.
    pub const ALL: [PlacementStrategy; 4] = [
        PlacementStrategy::FirstFit,
        PlacementStrategy::BestFit,
        PlacementStrategy::PowerOfTwo,
        PlacementStrategy::RtGang,
    ];

    /// The codec-stable name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementStrategy::FirstFit => "first_fit",
            PlacementStrategy::BestFit => "best_fit",
            PlacementStrategy::PowerOfTwo => "po2",
            PlacementStrategy::RtGang => "rt_gang",
        }
    }

    /// Instantiate the policy. `seed` feeds the power-of-two sampler; the
    /// deterministic strategies ignore it.
    pub fn build(self, seed: u64) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementStrategy::FirstFit => Box::new(FirstFit),
            PlacementStrategy::BestFit => Box::new(BestFit),
            PlacementStrategy::PowerOfTwo => Box::new(PowerOfTwo {
                rng: DetRng::seed_from(seed),
            }),
            PlacementStrategy::RtGang => Box::new(RtGang),
        }
    }
}

/// [`PlacementStrategy::name`], as a replay file's `workload cluster:…`
/// carries it.
impl Value for PlacementStrategy {
    fn encode(&self) -> String {
        self.name().into()
    }

    fn parse(s: &str) -> Result<Self, String> {
        tag(s, "placement strategy", &Self::ALL)
    }
}

struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first_fit"
    }

    fn candidates(&mut self, _req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        out.extend(view.shards.iter().map(|s| s.shard));
    }
}

struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best_fit"
    }

    fn candidates(&mut self, req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        // Most-loaded first packs new tenants into already-busy shards,
        // keeping whole shards free for the heavy tail of big gangs. Skip
        // shards that cannot fit the demand even fluidly — the ledger
        // would reject them anyway.
        out.extend(
            view.shards
                .iter()
                .filter(|s| s.util_ppm + req.util_ppm() <= s.capacity_ppm)
                .map(|s| s.shard),
        );
        let by_load = |&shard: &usize| {
            let s = &view.shards[shard];
            (u64::MAX - s.util_ppm, shard)
        };
        out.sort_by_key(by_load);
    }
}

struct PowerOfTwo {
    rng: DetRng,
}

impl PlacementPolicy for PowerOfTwo {
    fn name(&self) -> &'static str {
        "po2"
    }

    fn candidates(&mut self, _req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        let n = view.shards.len() as u64;
        let a = self.rng.uniform(0, n - 1) as usize;
        let mut b = self.rng.uniform(0, n - 1) as usize;
        if n > 1 && b == a {
            // Re-draw once for distinctness; fall back to the neighbor so
            // the draw count per tenant stays fixed (determinism under
            // any future stream reordering).
            b = (a + 1) % n as usize;
        }
        let (first, second) = if view.shards[b].util_ppm < view.shards[a].util_ppm {
            (b, a)
        } else {
            (a, b)
        };
        out.push(first);
        if second != first {
            out.push(second);
        }
    }
}

struct RtGang;

impl PlacementPolicy for RtGang {
    fn name(&self) -> &'static str {
        "rt_gang"
    }

    fn candidates(&mut self, _req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        out.extend(
            view.shards
                .iter()
                .filter(|s| s.resident_gangs == 0)
                .map(|s| s.shard),
        );
    }
}

/// Replays a recorded placement sequence: tenant `id` goes to
/// `script[id]`'s shard (or is rejected on `None`), ignoring the view.
/// The differential property tests use this to prove that cluster state
/// equals the serial re-application of the accepted sequence.
pub struct ScriptedPolicy {
    script: Vec<Option<usize>>,
}

impl ScriptedPolicy {
    /// A policy that replays `script` (indexed by tenant id).
    pub fn new(script: Vec<Option<usize>>) -> Self {
        ScriptedPolicy { script }
    }
}

impl PlacementPolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn candidates(&mut self, req: &TenantRequest, _view: &ClusterView, out: &mut Vec<usize>) {
        if let Some(Some(shard)) = self.script.get(req.id as usize) {
            out.push(*shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(utils: &[u64]) -> ClusterView {
        ClusterView {
            shards: utils
                .iter()
                .enumerate()
                .map(|(i, &u)| ShardView {
                    shard: i,
                    util_ppm: u,
                    capacity_ppm: 1_000_000,
                    free_slots: 8,
                    resident_gangs: usize::from(u > 0),
                })
                .collect(),
        }
    }

    fn req() -> TenantRequest {
        TenantRequest::gang(2)
    }

    #[test]
    fn names_round_trip() {
        for s in PlacementStrategy::ALL {
            assert_eq!(PlacementStrategy::parse(s.name()), Ok(s));
            assert_eq!(s.build(0).name(), s.name());
        }
        assert!(PlacementStrategy::parse("worst_fit").is_err());
    }

    #[test]
    fn first_fit_is_id_order() {
        let mut out = Vec::new();
        FirstFit.candidates(&req(), &view(&[500_000, 0, 100_000]), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn best_fit_prefers_loaded_feasible_shards() {
        let mut out = Vec::new();
        // Shard 0 is fluidly full for this request; 2 is busiest feasible.
        BestFit.candidates(&req(), &view(&[999_999, 100_000, 400_000]), &mut out);
        assert_eq!(out, vec![2, 1]);
    }

    #[test]
    fn po2_probes_two_distinct_shards_less_loaded_first() {
        let mut p = PowerOfTwo {
            rng: DetRng::seed_from(11),
        };
        let v = view(&[300_000, 100_000, 200_000, 0]);
        for _ in 0..100 {
            let mut out = Vec::new();
            p.candidates(&req(), &v, &mut out);
            assert_eq!(out.len(), 2);
            assert_ne!(out[0], out[1]);
            assert!(v.shards[out[0]].util_ppm <= v.shards[out[1]].util_ppm);
        }
    }

    #[test]
    fn rt_gang_only_offers_empty_shards() {
        let mut out = Vec::new();
        RtGang.candidates(&req(), &view(&[500_000, 0, 100_000, 0]), &mut out);
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn scripted_replays_and_rejects() {
        let mut p = ScriptedPolicy::new(vec![Some(2), None]);
        let mut out = Vec::new();
        p.candidates(&TenantRequest::gang(1).id(0), &view(&[0, 0, 0]), &mut out);
        assert_eq!(out, vec![2]);
        out.clear();
        p.candidates(&TenantRequest::gang(1).id(1), &view(&[0, 0, 0]), &mut out);
        assert!(out.is_empty());
        out.clear();
        p.candidates(&TenantRequest::gang(1).id(9), &view(&[0, 0, 0]), &mut out);
        assert!(out.is_empty(), "off-script tenants are rejected");
    }
}

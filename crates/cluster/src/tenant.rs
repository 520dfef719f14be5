//! Tenants and the deterministic synthetic tenant stream.
//!
//! A *tenant* is one real-time gang asking the cluster for a reservation:
//! `gang` threads, each holding the same periodic constraints (the
//! placement layer applies the usual per-slot phase correction on admit),
//! resident for `hold_ns` of virtual time before departing. The stream
//! that generates them is a Poisson arrival process with heavy-tailed gang
//! sizes and a heavy-tailed constraint-class mix, drawn entirely from
//! [`DetRng`] forks of one seed — so a stream is a pure function of that
//! seed, byte-identical at any harness thread count, and *independent of
//! placement decisions* (rejected tenants consume exactly the same draws
//! as admitted ones). That last property is what makes placement policies
//! differential-testable: every policy sees the identical request
//! sequence.
//!
//! The class palette is deliberately small and skewed (Zipf-ish weights
//! over harmonic periods and a few utilization steps): real multi-tenant
//! fleets see a handful of popular shapes plus a long tail, and the
//! repeated per-CPU task-set signatures are what give the admission
//! engine's `SimCache` its churn hit rate.

use nautix_des::{DetRng, Nanos};
use nautix_kernel::Constraints;

/// Harmonic period palette, ns. Harmonic periods keep every per-CPU
/// hyperperiod at most [`PERIODS_NS`]'s maximum (16 ms), inside the
/// cluster's 200 ms window cap, so a memo miss is decided by the
/// utilization test over one hyperperiod, O(tasks).
pub const PERIODS_NS: [Nanos; 5] = [1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000];

/// Per-member utilization palette, ppm of one CPU.
pub const UTILS_PPM: [u64; 5] = [20_000, 50_000, 100_000, 200_000, 400_000];

/// One typed placement request: the unit the cluster admits or rejects.
///
/// Built in the `ConstraintsBuilder` style — start from
/// [`TenantRequest::gang`], chain the setters:
///
/// ```
/// use nautix_cluster::TenantRequest;
/// use nautix_kernel::Constraints;
///
/// let req = TenantRequest::gang(4)
///     .constraints(Constraints::periodic(2_000_000, 200_000).build())
///     .hold_ns(50_000_000)
///     .id(7);
/// assert_eq!(req.util_ppm(), 4 * 100_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRequest {
    /// Stream-unique tenant id (arrival order).
    pub id: u64,
    /// Gang size: members run on distinct CPUs of one shard.
    pub gang: usize,
    /// Per-member constraints before phase correction.
    pub constraints: Constraints,
    /// Virtual residency time before the tenant departs.
    pub hold_ns: Nanos,
}

impl TenantRequest {
    /// A request for a gang of `size` threads; defaults to a tiny periodic
    /// reservation, zero hold, id 0.
    pub fn gang(size: usize) -> Self {
        assert!(size >= 1, "a tenant gang has at least one member");
        TenantRequest {
            id: 0,
            gang: size,
            constraints: Constraints::periodic(PERIODS_NS[0], PERIODS_NS[0] / 50).build(),
            hold_ns: 0,
        }
    }

    /// The per-member constraints every gang member should hold.
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Virtual residency before departure.
    pub fn hold_ns(mut self, hold_ns: Nanos) -> Self {
        self.hold_ns = hold_ns;
        self
    }

    /// The stream id (arrival order).
    pub fn id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Whole-gang utilization demand, ppm (members × per-member ppm).
    pub fn util_ppm(&self) -> u64 {
        self.gang as u64 * self.constraints.utilization_ppm()
    }
}

/// The deterministic tenant stream: Poisson arrivals, heavy-tailed gang
/// sizes and constraint classes, exponential residency.
#[derive(Debug, Clone)]
pub struct TenantStream {
    arrivals: DetRng,
    shapes: DetRng,
    holds: DetRng,
    mean_gap_ns: f64,
    mean_hold_ns: f64,
    max_gang: usize,
    now_ns: Nanos,
    next_id: u64,
}

impl TenantStream {
    /// A stream determined entirely by `seed`; gang sizes are clamped to
    /// `max_gang` (a gang never outgrows one shard's CPUs).
    pub fn new(seed: u64, mean_gap_ns: Nanos, mean_hold_ns: Nanos, max_gang: usize) -> Self {
        assert!(max_gang >= 1);
        let mut root = DetRng::seed_from(seed);
        TenantStream {
            arrivals: root.fork(1),
            shapes: root.fork(2),
            holds: root.fork(3),
            mean_gap_ns: mean_gap_ns as f64,
            mean_hold_ns: mean_hold_ns as f64,
            max_gang,
            now_ns: 0,
            next_id: 0,
        }
    }

    /// Zipf-ish index into a palette of `n` entries: weight ∝ 1/(i+1).
    fn skewed_index(rng: &mut DetRng, n: usize) -> usize {
        let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut u = rng.unit() * total;
        for i in 0..n {
            u -= 1.0 / (i + 1) as f64;
            if u < 0.0 {
                return i;
            }
        }
        n - 1
    }

    /// Pareto-tailed gang size in `[1, max_gang]` (α = 1.5): most gangs
    /// are singletons or pairs, a heavy tail fills whole shards.
    fn gang_size(&mut self) -> usize {
        let u = self.shapes.unit();
        let raw = (1.0 / (1.0 - u).max(f64::MIN_POSITIVE)).powf(1.0 / 1.5);
        (raw as usize).clamp(1, self.max_gang)
    }

    /// The next arrival: `(virtual arrival time, request)`. The stream is
    /// infinite; callers bound it by tenant count.
    pub fn next_request(&mut self) -> (Nanos, TenantRequest) {
        self.now_ns += self.arrivals.exponential(self.mean_gap_ns);
        let gang = self.gang_size();
        let period = PERIODS_NS[Self::skewed_index(&mut self.shapes, PERIODS_NS.len())];
        let util = UTILS_PPM[Self::skewed_index(&mut self.shapes, UTILS_PPM.len())];
        let slice = period * util / 1_000_000;
        let hold = self.holds.exponential(self.mean_hold_ns);
        let req = TenantRequest::gang(gang)
            .constraints(Constraints::periodic(period, slice).build())
            .hold_ns(hold)
            .id(self.next_id);
        self.next_id += 1;
        (self.now_ns, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_its_seed() {
        let mut a = TenantStream::new(42, 1_000_000, 100_000_000, 8);
        let mut b = TenantStream::new(42, 1_000_000, 100_000_000, 8);
        for _ in 0..1_000 {
            assert_eq!(a.next_request(), b.next_request());
        }
        let mut c = TenantStream::new(43, 1_000_000, 100_000_000, 8);
        let diverges = (0..1_000).any(|_| a.next_request() != c.next_request());
        assert!(diverges, "different seeds must give different streams");
    }

    #[test]
    fn stream_shapes_are_sane_and_heavy_tailed() {
        let mut s = TenantStream::new(7, 1_000_000, 100_000_000, 8);
        let mut last_t = 0;
        let mut sizes = [0usize; 9];
        for i in 0..5_000 {
            let (t, req) = s.next_request();
            assert!(t > last_t, "virtual time strictly advances");
            last_t = t;
            assert_eq!(req.id, i);
            assert!((1..=8).contains(&req.gang));
            let Constraints::Periodic { period, .. } = req.constraints else {
                panic!("tenant constraints are periodic");
            };
            assert!(PERIODS_NS.contains(&period));
            assert!(req.hold_ns >= 1);
            sizes[req.gang] += 1;
        }
        assert!(sizes[1] > sizes[8], "singletons dominate full-shard gangs");
        assert!(sizes[8] > 0, "the tail still fills whole shards");
    }

    #[test]
    fn skew_prefers_small_indices() {
        let mut rng = DetRng::seed_from(5);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[TenantStream::skewed_index(&mut rng, 5)] += 1;
        }
        assert!(counts[0] > counts[4] * 2, "{counts:?}");
    }
}

//! The package → LLC → core topology tree.
//!
//! The paper's testbeds are modeled flat: every kick IPI and every steal
//! costs the same no matter which two CPUs are involved. Real manycore
//! parts are not flat — an IPI that crosses a package boundary traverses
//! the interconnect, and migrating a thread across LLC domains drags its
//! working set through memory. This module makes that structure a
//! first-class dimension of [`MachineConfig`](crate::MachineConfig):
//!
//! * [`Topology`] is the configured *shape* — how many packages, how many
//!   last-level-cache (LLC) domains per package. The default,
//!   [`Topology::flat`], is a single package with a single LLC and is
//!   defined to be **byte-identical** to the pre-topology model: every
//!   pair of CPUs is at [`Distance::SameLlc`], so every distance-aware
//!   cost resolves to the same `Cost` (and the same RNG draws) as before.
//! * [`TopoMap`] is the shape resolved against a concrete CPU count:
//!   CPUs are assigned to domains in contiguous index blocks (CPU ids
//!   within one LLC are adjacent, LLCs within one package are adjacent),
//!   exactly how firmware enumerates hardware threads on the modeled
//!   parts.
//! * [`Distance`] classifies a (source, destination) CPU pair into the
//!   three hop classes the cost model distinguishes.
//!
//! The `NAUTIX_TOPOLOGY` environment knob (`flat` or `<packages>x<llcs>`,
//! e.g. `2x4`) selects the shape for harness-built machines; unknown
//! values are a hard error, never a silent default.

use crate::machine::CpuId;
use nautix_des::text::Value;

/// Hop-distance class between two CPUs, coarsest first. The cost model
/// keys distance-dependent costs (kick-IPI latency, steal probes and
/// migration) on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Distance {
    /// Same last-level-cache domain: the line is already shared.
    SameLlc,
    /// Same package, different LLC: on-die interconnect hop.
    SamePackage,
    /// Different packages: cross-socket (or cross-die) traffic.
    CrossPackage,
}

impl Distance {
    /// Dense index for per-distance counters (`SameLlc` = 0).
    pub fn index(self) -> usize {
        match self {
            Distance::SameLlc => 0,
            Distance::SamePackage => 1,
            Distance::CrossPackage => 2,
        }
    }

    /// Label for CSV columns and banners.
    pub fn label(self) -> &'static str {
        match self {
            Distance::SameLlc => "same_llc",
            Distance::SamePackage => "same_package",
            Distance::CrossPackage => "cross_package",
        }
    }
}

/// The configured topology shape: packages × LLC domains per package.
/// CPU counts are *not* part of the shape — the same `2x4` shape resolves
/// against 256, 512, or 1024 CPUs via [`TopoMap::new`], which is what lets
/// one `MachineConfig` knob follow `with_cpus` overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    packages: u32,
    llcs_per_package: u32,
}

impl Topology {
    /// A single package with a single machine-wide LLC — the pre-topology
    /// model, and the default. Every distance is [`Distance::SameLlc`].
    pub const fn flat() -> Self {
        Topology {
            packages: 1,
            llcs_per_package: 1,
        }
    }

    /// A `packages × llcs_per_package` tree.
    pub fn tree(packages: u32, llcs_per_package: u32) -> Self {
        assert!(packages >= 1, "topology needs at least one package");
        assert!(llcs_per_package >= 1, "topology needs at least one LLC");
        Topology {
            packages,
            llcs_per_package,
        }
    }

    /// Parse a topology spec as a person writes it in `NAUTIX_TOPOLOGY`:
    /// `flat` (or `1x1`) and `<packages>x<llcs>`, padding and capitals
    /// forgiven. (A replay file must spell it as [`Topology::label`] does.)
    pub fn parse(s: &str) -> Result<Topology, String> {
        let t = s.trim().to_ascii_lowercase();
        if t == "flat" {
            return Ok(Topology::flat());
        }
        let parse_part = |p: &str, what: &str| -> Result<u32, String> {
            u32::decode(p)
                .ok()
                .filter(|&v| v >= 1)
                .ok_or_else(|| format!("bad {what} `{p}` in topology `{s}`"))
        };
        match t.split_once('x') {
            Some((p, l)) => Ok(Topology {
                packages: parse_part(p, "package count")?,
                llcs_per_package: parse_part(l, "LLC count")?,
            }),
            None => Err(format!(
                "topology must be `flat` or `<packages>x<llcs>` (e.g. `2x4`), got `{s}`"
            )),
        }
    }

    /// Read `NAUTIX_TOPOLOGY`; defaults to flat when unset. Malformed
    /// values are a hard error — a typo must never silently run flat.
    pub fn from_env() -> Self {
        match std::env::var("NAUTIX_TOPOLOGY") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("NAUTIX_TOPOLOGY: {e}")),
            Err(_) => Topology::flat(),
        }
    }

    /// Package count.
    pub fn packages(&self) -> u32 {
        self.packages
    }

    /// LLC domains per package.
    pub fn llcs_per_package(&self) -> u32 {
        self.llcs_per_package
    }

    /// Total LLC domains.
    pub fn domains(&self) -> u32 {
        self.packages * self.llcs_per_package
    }

    /// Whether this is the flat (single-domain) shape.
    pub fn is_flat(&self) -> bool {
        self.domains() == 1
    }

    /// Label for banners and CSV columns: `flat` or `<p>x<l>`.
    pub fn label(&self) -> String {
        if self.is_flat() {
            "flat".to_string()
        } else {
            format!("{}x{}", self.packages, self.llcs_per_package)
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat()
    }
}

/// A [`Topology`] resolved against a concrete CPU count: contiguous-block
/// CPU → LLC → package assignment plus distance math. `Copy` on purpose —
/// three words, read on every kick and steal probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoMap {
    shape: Topology,
    n_cpus: usize,
    cpus_per_llc: usize,
    cpus_per_package: usize,
}

impl TopoMap {
    /// Resolve `shape` over `n_cpus` hardware threads. CPU counts that do
    /// not divide evenly leave the trailing domains short (never empty in
    /// the middle): `llc_of(cpu) = cpu / ceil(n / domains)`.
    pub fn new(shape: Topology, n_cpus: usize) -> Self {
        assert!(n_cpus >= 1);
        let domains = shape.domains() as usize;
        let cpus_per_llc = n_cpus.div_ceil(domains);
        TopoMap {
            shape,
            n_cpus,
            cpus_per_llc,
            cpus_per_package: cpus_per_llc * shape.llcs_per_package as usize,
        }
    }

    /// The configured shape.
    pub fn shape(&self) -> Topology {
        self.shape
    }

    /// CPUs in the machine.
    pub fn n_cpus(&self) -> usize {
        self.n_cpus
    }

    /// LLC domain of `cpu`.
    pub fn llc_of(&self, cpu: CpuId) -> usize {
        cpu / self.cpus_per_llc
    }

    /// Package of `cpu`.
    pub fn package_of(&self, cpu: CpuId) -> usize {
        cpu / self.cpus_per_package
    }

    /// Hop-distance class between two CPUs.
    pub fn distance(&self, a: CpuId, b: CpuId) -> Distance {
        if self.llc_of(a) == self.llc_of(b) {
            Distance::SameLlc
        } else if self.package_of(a) == self.package_of(b) {
            Distance::SamePackage
        } else {
            Distance::CrossPackage
        }
    }

    /// Half-open CPU range of `cpu`'s LLC domain, clamped to the machine.
    pub fn llc_range(&self, cpu: CpuId) -> (usize, usize) {
        let lo = self.llc_of(cpu) * self.cpus_per_llc;
        (lo, (lo + self.cpus_per_llc).min(self.n_cpus))
    }

    /// Half-open CPU range of `cpu`'s package, clamped to the machine.
    pub fn package_range(&self, cpu: CpuId) -> (usize, usize) {
        let lo = self.package_of(cpu) * self.cpus_per_package;
        (lo, (lo + self.cpus_per_package).min(self.n_cpus))
    }

    /// The widening victim-probe domains for a thief on `cpu`: its LLC,
    /// then its package (if wider), then the whole machine (if wider).
    /// Flat topology yields exactly one stage — the whole machine — which
    /// is what keeps the LLC-first stealer byte-identical to the original
    /// machine-wide power-of-two-choices picker there.
    pub fn steal_stages(&self, cpu: CpuId) -> StealStages {
        let mut stages = [(0usize, 0usize); 3];
        let mut len = 0;
        for r in [
            self.llc_range(cpu),
            self.package_range(cpu),
            (0, self.n_cpus),
        ] {
            if len == 0 || stages[len - 1] != r {
                stages[len] = r;
                len += 1;
            }
        }
        StealStages {
            stages,
            len,
            next: 0,
        }
    }
}

/// Iterator over a thief's widening probe domains (at most three
/// `(lo, hi)` ranges, no allocation). See [`TopoMap::steal_stages`].
#[derive(Debug, Clone, Copy)]
pub struct StealStages {
    stages: [(usize, usize); 3],
    len: usize,
    next: usize,
}

impl Iterator for StealStages {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.next < self.len {
            let s = self.stages[self.next];
            self.next += 1;
            Some(s)
        } else {
            None
        }
    }
}

/// One power-of-two-choices victim draw restricted to the domain
/// `[lo, hi)`, which must contain the thief and at least one other CPU.
/// `draw(k)` must return a uniform sample in `[0, k]` (the machine's
/// deterministic RNG, or a test's [`DetRng`](nautix_des::DetRng)).
///
/// The thief's own index is shifted out of the image — every *other* CPU
/// in the domain has equal probability from a single draw, no rejection
/// sampling. With `lo = 0, hi = n` this is exactly the machine-wide
/// picker the flat model has always used, draw-for-draw.
pub fn shifted_victim(lo: usize, hi: usize, cpu: CpuId, draw: impl FnOnce(u64) -> u64) -> CpuId {
    debug_assert!(hi - lo >= 2, "domain [{lo}, {hi}) has no victim");
    debug_assert!((lo..hi).contains(&cpu), "thief {cpu} outside [{lo}, {hi})");
    let v = lo + draw((hi - lo - 2) as u64) as usize;
    if v >= cpu {
        v + 1
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_des::DetRng;

    #[test]
    fn flat_is_one_domain() {
        let t = Topology::flat();
        assert!(t.is_flat());
        assert_eq!(t.domains(), 1);
        assert_eq!(t.label(), "flat");
        let m = TopoMap::new(t, 256);
        assert_eq!(m.distance(0, 255), Distance::SameLlc);
        assert_eq!(m.llc_range(17), (0, 256));
        assert_eq!(m.package_range(17), (0, 256));
        assert_eq!(m.steal_stages(17).collect::<Vec<_>>(), vec![(0, 256)]);
    }

    #[test]
    fn tree_assigns_contiguous_blocks() {
        // 2 packages × 4 LLCs over 1024 CPUs: 128 CPUs per LLC, 512 per
        // package.
        let m = TopoMap::new(Topology::tree(2, 4), 1024);
        assert_eq!(m.llc_of(0), 0);
        assert_eq!(m.llc_of(127), 0);
        assert_eq!(m.llc_of(128), 1);
        assert_eq!(m.package_of(511), 0);
        assert_eq!(m.package_of(512), 1);
        assert_eq!(m.distance(0, 100), Distance::SameLlc);
        assert_eq!(m.distance(0, 200), Distance::SamePackage);
        assert_eq!(m.distance(0, 600), Distance::CrossPackage);
        assert_eq!(m.llc_range(130), (128, 256));
        assert_eq!(m.package_range(130), (0, 512));
        assert_eq!(
            m.steal_stages(130).collect::<Vec<_>>(),
            vec![(128, 256), (0, 512), (0, 1024)]
        );
    }

    #[test]
    fn distance_is_symmetric() {
        let m = TopoMap::new(Topology::tree(2, 2), 64);
        for a in 0..64 {
            for b in 0..64 {
                assert_eq!(m.distance(a, b), m.distance(b, a));
            }
        }
    }

    #[test]
    fn uneven_counts_clamp_trailing_domains() {
        // 6 CPUs over 2x2: ceil(6/4) = 2 per LLC, last LLC short.
        let m = TopoMap::new(Topology::tree(2, 2), 6);
        assert_eq!(m.llc_range(5), (4, 6));
        assert_eq!(m.package_range(5), (4, 6));
        // The machine stage still widens past the short package.
        assert_eq!(m.steal_stages(5).collect::<Vec<_>>(), vec![(4, 6), (0, 6)]);
    }

    #[test]
    fn parse_accepts_flat_and_grids_only() {
        assert_eq!(Topology::parse("flat").unwrap(), Topology::flat());
        assert_eq!(Topology::parse("1x1").unwrap(), Topology::tree(1, 1));
        assert!(Topology::parse("1x1").unwrap().is_flat());
        assert_eq!(Topology::parse(" 2x4 ").unwrap(), Topology::tree(2, 4));
        assert_eq!(Topology::parse("2x4").unwrap().label(), "2x4");
        assert!(Topology::parse("").is_err());
        assert!(Topology::parse("2x0").is_err());
        assert!(Topology::parse("0x4").is_err());
        assert!(Topology::parse("2x").is_err());
        assert!(Topology::parse("fast").is_err());
        assert!(Topology::parse("2x4x8").is_err());
    }

    #[test]
    fn shifted_victim_never_picks_self_and_is_uniform_in_domain() {
        let mut rng = DetRng::seed_from(9);
        let mut seen = [0u32; 8];
        for _ in 0..4000 {
            let v = shifted_victim(4, 12, 7, |k| rng.uniform(0, k));
            assert!((4..12).contains(&v));
            assert_ne!(v, 7);
            seen[v - 4] += 1;
        }
        assert_eq!(seen[3], 0); // the thief
        for (i, &c) in seen.iter().enumerate() {
            if i != 3 {
                assert!(c > 350, "cpu {} drawn only {} times", i + 4, c);
            }
        }
    }

    #[test]
    fn shifted_victim_matches_the_flat_picker_exactly() {
        // The original flat picker: v = uniform(0, n-2); v >= cpu → v+1.
        for seed in 0..32 {
            for cpu in 0..6 {
                let n = 6;
                let mut a = DetRng::seed_from(seed);
                let mut b = DetRng::seed_from(seed);
                let old = {
                    let v = a.uniform(0, (n - 2) as u64) as usize;
                    if v >= cpu {
                        v + 1
                    } else {
                        v
                    }
                };
                let new = shifted_victim(0, n, cpu, |k| b.uniform(0, k));
                assert_eq!(old, new);
            }
        }
    }
}

//! Simulation time: cycles, nanoseconds, and exact conversions.
//!
//! The simulator's base unit of time is the **machine cycle** of the node's
//! base clock (the invariant TSC rate). The paper's scheduler API works in
//! **nanoseconds stored in 64-bit integers** (§3.3), so conversions between
//! the two appear on every hot path. Conversions are exact up to the stated
//! rounding direction: they multiply in 64 bits while the product fits and
//! in 128 bits beyond, so no hot path calls a 128-bit division; a 64-bit nanosecond
//! counter does not overflow for the lifetime of a machine (the paper makes
//! the same observation).

/// A point in (or span of) simulation time measured in machine cycles.
pub type Cycles = u64;

/// A span of time in nanoseconds, as used by the scheduler-facing API.
pub type Nanos = u64;

/// A fixed clock frequency used to convert between cycles and nanoseconds.
///
/// Frequencies are stored in kHz so that common HPC clocks (e.g. the Xeon
/// Phi 7210's 1.3 GHz) are represented exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    khz: u64,
}

impl Freq {
    /// A frequency from a kHz count. Panics on zero: a zero-frequency clock
    /// cannot measure time.
    pub fn from_khz(khz: u64) -> Self {
        assert!(khz > 0, "clock frequency must be nonzero");
        Freq { khz }
    }

    /// A frequency from a MHz count.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_khz(mhz * 1000)
    }

    /// The Xeon Phi 7210 (KNL) clock used in the paper's main testbed.
    pub fn phi() -> Self {
        Self::from_mhz(1300)
    }

    /// The AMD Opteron 4122 clock of the paper's Dell R415 testbed.
    pub fn r415() -> Self {
        Self::from_mhz(2200)
    }

    /// Frequency in kHz.
    pub fn khz(&self) -> u64 {
        self.khz
    }

    /// Frequency in MHz, rounded down.
    pub fn mhz(&self) -> u64 {
        self.khz / 1000
    }

    /// Convert a cycle count to nanoseconds, rounding down.
    ///
    /// `ns = cycles * 1e6 / khz`: in 64-bit arithmetic while the product
    /// fits, in 128-bit beyond (both exact, so the result is the same).
    pub fn cycles_to_ns(&self, cycles: Cycles) -> Nanos {
        match cycles.checked_mul(1_000_000) {
            Some(scaled) => scaled / self.khz,
            None => ((cycles as u128) * 1_000_000 / self.khz as u128) as u64,
        }
    }

    /// Convert nanoseconds to a cycle count, rounding down.
    pub fn ns_to_cycles(&self, ns: Nanos) -> Cycles {
        match ns.checked_mul(self.khz) {
            Some(scaled) => scaled / 1_000_000,
            None => ((ns as u128) * self.khz as u128 / 1_000_000) as u64,
        }
    }

    /// Convert nanoseconds to a cycle count, rounding up.
    ///
    /// Used where a *conservative* (never-late) duration is required, e.g.
    /// for slice budgets.
    pub fn ns_to_cycles_ceil(&self, ns: Nanos) -> Cycles {
        match ns.checked_mul(self.khz) {
            Some(scaled) => scaled.div_ceil(1_000_000),
            None => ((ns as u128) * self.khz as u128).div_ceil(1_000_000) as u64,
        }
    }

    /// Convert microseconds to cycles, rounding down.
    pub fn us_to_cycles(&self, us: u64) -> Cycles {
        self.ns_to_cycles(us * 1000)
    }
}

/// Convenience constructors for nanosecond quantities.
pub const fn us(n: u64) -> Nanos {
    n * 1_000
}

/// Milliseconds to nanoseconds.
pub const fn ms(n: u64) -> Nanos {
    n * 1_000_000
}

/// Seconds to nanoseconds.
pub const fn secs(n: u64) -> Nanos {
    n * 1_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_frequency_is_exact() {
        assert_eq!(Freq::phi().khz(), 1_300_000);
        assert_eq!(Freq::phi().mhz(), 1300);
    }

    #[test]
    fn cycles_ns_round_trip_at_phi() {
        let f = Freq::phi();
        // 1.3 cycles per ns: 13_000 cycles == 10_000 ns exactly.
        assert_eq!(f.cycles_to_ns(13_000), 10_000);
        assert_eq!(f.ns_to_cycles(10_000), 13_000);
    }

    #[test]
    fn ns_to_cycles_rounding_directions() {
        let f = Freq::phi();
        // 1 ns = 1.3 cycles: floor is 1, ceil is 2.
        assert_eq!(f.ns_to_cycles(1), 1);
        assert_eq!(f.ns_to_cycles_ceil(1), 2);
        // Exact conversions agree in both directions.
        assert_eq!(f.ns_to_cycles(10), f.ns_to_cycles_ceil(10));
    }

    #[test]
    fn large_values_do_not_overflow() {
        let f = Freq::from_mhz(4000);
        // A century of cycles at 4 GHz fits comfortably.
        let century_ns: u64 = 100 * 365 * 24 * 3600 * 1_000_000_000u64;
        let c = f.ns_to_cycles(century_ns / 1_000_000_000 * 1_000_000_000);
        assert!(c > 0);
    }

    /// The conversions as first written, always through 128 bits.
    fn reference(f: Freq, v: u64) -> [u64; 3] {
        let (v, khz) = (v as u128, f.khz() as u128);
        [
            (v * 1_000_000 / khz) as u64,
            (v * khz / 1_000_000) as u64,
            (v * khz).div_ceil(1_000_000) as u64,
        ]
    }

    #[test]
    fn conversions_match_the_128_bit_formulas_across_the_overflow_edge() {
        let mut rng = crate::DetRng::seed_from(17);
        for khz in [
            1,
            999,
            1_000,
            1_300_000,
            2_200_000,
            4_000_000,
            1 << 32,
            u64::MAX,
        ] {
            let f = Freq::from_khz(khz);
            // Each product's 64-bit edge, and the values around it.
            let edges = [u64::MAX / 1_000_000, u64::MAX / khz];
            let near = edges
                .iter()
                .flat_map(|&e| [e.saturating_sub(1), e, e.saturating_add(1)]);
            let random: Vec<u64> = (0..400)
                .map(|i| rng.uniform(0, if i % 2 == 0 { u64::MAX } else { 1 << 40 }))
                .collect();
            for v in [0, 1, u64::MAX].into_iter().chain(near).chain(random) {
                let got = [f.cycles_to_ns(v), f.ns_to_cycles(v), f.ns_to_cycles_ceil(v)];
                assert_eq!(got, reference(f, v), "{v} at {khz} kHz");
            }
        }
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(10), 10_000);
        assert_eq!(ms(3), 3_000_000);
        assert_eq!(secs(2), 2_000_000_000);
    }

    #[test]
    #[should_panic]
    fn zero_frequency_panics() {
        let _ = Freq::from_khz(0);
    }
}

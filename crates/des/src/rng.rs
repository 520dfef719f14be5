//! Deterministic pseudo-randomness for simulations.
//!
//! All stochastic elements of the hardware model (boot skew, interrupt
//! latency jitter, SMI arrival processes, measurement granularity noise)
//! draw from a [`DetRng`] seeded from the experiment configuration, so a
//! given configuration always produces the same trace.
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! `rand::rngs::SmallRng` on 64-bit targets), seeded through SplitMix64.
//! Keeping it in-tree removes the only external runtime dependency and
//! guarantees the stream never shifts underneath recorded experiment
//! results when a crate version would have bumped.

/// A small, fast, explicitly seeded PRNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed deterministically. Equal seeds give equal streams.
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 expansion of the 64-bit seed into the 256-bit state,
        // as specified by the xoshiro authors (and used by SmallRng).
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Derive an independent child stream, e.g. one per CPU, such that the
    /// per-CPU streams do not depend on event interleaving.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let s = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from(s)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty uniform range");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // Full 64-bit range.
            return self.next_u64();
        }
        // Lemire's unbiased multiply-shift rejection sampling, in its
        // nearly divisionless form: a draw is rejected only when its low
        // word falls below `2⁶⁴ mod span`, which is less than `span`, so the
        // remainder (a 64-bit division) is needed only when the low word
        // is. Same accept/reject decisions, same draws, same stream.
        let mut m = (self.next_u64() as u128).wrapping_mul(span as u128);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128).wrapping_mul(span as u128);
            }
        }
        lo.wrapping_add((m >> 64) as u64)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 uniformly random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A jittered duration: `base` plus a uniform draw in `[0, spread]`.
    ///
    /// This is the standard noise shape for modeled hardware costs: a fixed
    /// path length plus bounded variation (cache state, pipeline state).
    pub fn jitter(&mut self, base: u64, spread: u64) -> u64 {
        if spread == 0 {
            base
        } else {
            base + self.uniform(0, spread)
        }
    }

    /// An exponentially distributed duration with the given mean, for
    /// Poisson arrival processes (e.g. SMI injection). Clamped to at least 1.
    pub fn exponential(&mut self, mean: f64) -> u64 {
        assert!(mean > 0.0);
        let u = self.unit().max(f64::MIN_POSITIVE);
        ((-u.ln()) * mean).round().max(1.0) as u64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(0, 1_000_000), b.uniform(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let va: Vec<u64> = (0..16).map(|_| a.uniform(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.uniform(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut root1 = DetRng::seed_from(7);
        let mut root2 = DetRng::seed_from(7);
        let mut a1 = root1.fork(0);
        let mut a2 = root2.fork(0);
        for _ in 0..32 {
            assert_eq!(a1.uniform(0, 1000), a2.uniform(0, 1000));
        }
        let mut b1 = root1.fork(1);
        let s_a: Vec<u64> = (0..8).map(|_| a1.uniform(0, 1 << 30)).collect();
        let s_b: Vec<u64> = (0..8).map(|_| b1.uniform(0, 1 << 30)).collect();
        assert_ne!(s_a, s_b);
    }

    #[test]
    fn jitter_bounds() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..1000 {
            let v = r.jitter(100, 50);
            assert!((100..=150).contains(&v));
        }
        assert_eq!(r.jitter(77, 0), 77);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = DetRng::seed_from(9);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.exponential(500.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 500.0).abs() < 25.0, "mean={mean}");
    }

    #[test]
    fn uniform_inclusive_endpoints_reachable() {
        let mut r = DetRng::seed_from(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.uniform(0, 3) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = DetRng::seed_from(5);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// `uniform` as first written: the remainder on every draw.
    fn uniform_reference(r: &mut DetRng, lo: u64, hi: u64) -> u64 {
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return r.next_u64();
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = (r.next_u64() as u128).wrapping_mul(span as u128);
            if m as u64 >= threshold {
                return lo.wrapping_add((m >> 64) as u64);
            }
        }
    }

    #[test]
    fn divisionless_uniform_matches_the_remainder_form() {
        let mut spans: Vec<u64> = vec![1, 2, 3, 7, 1_000, u64::MAX - 1, u64::MAX];
        spans.extend((0..64).map(|k| 1u64 << k));
        // Just past a power of two, about half the draws are rejected.
        spans.extend((1..64).map(|k| (1u64 << k) + 1));
        let mut pick = DetRng::seed_from(19);
        spans.extend((0..64).map(|_| pick.uniform(1, u64::MAX)));
        for (i, &span) in spans.iter().enumerate() {
            let lo = pick.uniform(0, u64::MAX - (span - 1));
            let hi = lo + (span - 1);
            let mut new = DetRng::seed_from(i as u64);
            let mut old = new.clone();
            for _ in 0..256 {
                assert_eq!(
                    new.uniform(lo, hi),
                    uniform_reference(&mut old, lo, hi),
                    "span {span}"
                );
            }
            // Equal draw counts leave the streams in step.
            assert_eq!(new.next_u64(), old.next_u64(), "span {span}");
        }
        // The full range too (span 2⁶⁴ wraps to 0).
        let (mut new, mut old) = (DetRng::seed_from(23), DetRng::seed_from(23));
        assert_eq!(
            new.uniform(0, u64::MAX),
            uniform_reference(&mut old, 0, u64::MAX)
        );
    }

    #[test]
    fn full_range_uniform_does_not_loop_forever() {
        let mut r = DetRng::seed_from(13);
        // span == 2^64 takes the raw-output fast path.
        let _ = r.uniform(0, u64::MAX);
    }
}

//! System management interrupt (SMI) injection.
//!
//! §3.6: SMIs are firmware-owned interrupts that cannot be masked or
//! observed by the kernel. When one fires, *all CPUs stop*, one CPU runs
//! the hidden handler, then everything resumes — while the TSC keeps
//! counting. To software the episode is "missing time": the cycle counter
//! jumps by a surprisingly large amount.
//!
//! The machine model implements exactly that: during an SMI window no CPU
//! executes (in-flight computations stretch, interrupt handling defers),
//! but TSCs and APIC timer deadlines march on. Rates and durations are
//! configurable; the paper's mitigation (eager scheduling + the
//! utilization-limit knob) is evaluated against this injector in the
//! `abl_eager_vs_lazy` and `abl_util_limit` harnesses.

use crate::cost::Cost;
use crate::fault::FaultPattern;
use nautix_des::{Cycles, DetRng};

/// Full SMI injector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmiConfig {
    /// When SMIs occur ([`FaultPattern::next_gap`] draws the gaps).
    pub pattern: FaultPattern,
    /// Handler residency: how long the machine is stalled per SMI.
    pub duration: Cost,
}

impl SmiConfig {
    /// SMIs disabled.
    pub fn disabled() -> Self {
        SmiConfig {
            pattern: FaultPattern::Disabled,
            duration: Cost::fixed(0),
        }
    }

    /// A representative noisy-firmware configuration: SMIs roughly every
    /// `interval_us` microseconds of machine time, stalling for around
    /// `duration_us` (values in the literature run from tens of
    /// microseconds to milliseconds; Delgado & Karavanic 2013).
    pub fn noisy(freq: nautix_des::Freq, interval_us: u64, duration_us: u64) -> Self {
        let d = freq.us_to_cycles(duration_us);
        SmiConfig {
            pattern: FaultPattern::Poisson {
                mean_interval: freq.us_to_cycles(interval_us),
            },
            duration: Cost::new(d, d / 4),
        }
    }

    /// Whether any SMIs will ever fire.
    pub fn enabled(&self) -> bool {
        self.pattern.enabled()
    }

    /// Draw one SMI's stall duration.
    pub fn draw_duration(&self, rng: &mut DetRng) -> Cycles {
        self.duration.draw(rng)
    }
}

/// Running totals the machine keeps about injected SMIs; experiments report
/// these as ground truth for "missing time".
#[derive(Debug, Clone, Copy, Default)]
pub struct SmiStats {
    /// SMIs entered so far.
    pub count: u64,
    /// Total cycles the machine spent stalled.
    pub stalled_cycles: Cycles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_des::Freq;

    #[test]
    fn disabled_never_fires() {
        let c = SmiConfig::disabled();
        assert!(!c.enabled());
        let mut rng = DetRng::seed_from(1);
        assert_eq!(c.pattern.next_gap(&mut rng), None);
    }

    #[test]
    fn periodic_gap_is_constant() {
        let c = SmiConfig {
            pattern: FaultPattern::Periodic { interval: 5000 },
            duration: Cost::fixed(100),
        };
        let mut rng = DetRng::seed_from(1);
        assert_eq!(c.pattern.next_gap(&mut rng), Some(5000));
        assert_eq!(c.pattern.next_gap(&mut rng), Some(5000));
        assert_eq!(c.draw_duration(&mut rng), 100);
    }

    #[test]
    fn poisson_gap_has_requested_mean() {
        let c = SmiConfig {
            pattern: FaultPattern::Poisson {
                mean_interval: 10_000,
            },
            duration: Cost::fixed(1),
        };
        let mut rng = DetRng::seed_from(7);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| c.pattern.next_gap(&mut rng).unwrap()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10_000.0).abs() < 500.0, "mean={mean}");
    }

    #[test]
    fn noisy_preset_is_enabled_and_scaled() {
        let c = SmiConfig::noisy(Freq::phi(), 33_000, 150);
        assert!(c.enabled());
        // 150 µs at 1.3 GHz = 195_000 cycles.
        assert_eq!(c.duration.base, 195_000);
    }
}

//! Deterministic fault injection beyond SMIs.
//!
//! §5 attributes the residual misses on admitted sets to environmental
//! interference the admission model cannot see — SMIs and coarse timer
//! quantization. Real platforms have more interference lanes than those
//! two: IPIs get lost or delayed by chipset arbitration, one-shot timers
//! overshoot their programmed deadline, DVFS transitions dip a core's
//! effective frequency, devices raise spurious interrupts, and firmware
//! or memory-controller hiccups stall a single CPU. A [`FaultPlan`]
//! composes all of these as independently configurable lanes, each drawn
//! from the machine's own [`DetRng`] stream so a fault-laden run is
//! byte-identical across host thread counts and across pooled/fresh
//! node construction — the same determinism contract [`crate::SmiConfig`]
//! already upholds.
//!
//! # Determinism discipline
//!
//! A disabled lane draws **nothing** and schedules **nothing**: the
//! all-disabled plan (the default) leaves the machine's RNG draw sequence
//! and event stream untouched, so the paper-scale reproduction keeps its
//! exact event count. Enabled lanes draw in a fixed order at fixed points
//! (construction, each kick send, each timer arm, each recurring fault
//! event), which `Machine::reset` replays exactly.

use crate::cost::Cost;
use nautix_des::{Cycles, DetRng};

/// Arrival pattern of a recurring interference source: the three
/// recurring fault lanes and the [`crate::SmiConfig`] injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPattern {
    /// The source never fires and draws nothing (the default for figure
    /// reproductions; the paper's testbed BIOS is quiet during the
    /// measured windows).
    Disabled,
    /// Fixed-interval arrivals, as from periodic firmware housekeeping.
    Periodic {
        /// Cycles between arrivals.
        interval: Cycles,
    },
    /// Memoryless arrivals with the given mean inter-arrival time.
    Poisson {
        /// Mean cycles between arrivals.
        mean_interval: Cycles,
    },
}

impl FaultPattern {
    /// Whether the source will ever fire.
    pub fn enabled(&self) -> bool {
        !matches!(self, FaultPattern::Disabled)
    }

    /// Draw the next inter-arrival gap, if enabled.
    pub fn next_gap(&self, rng: &mut DetRng) -> Option<Cycles> {
        match *self {
            FaultPattern::Disabled => None,
            FaultPattern::Periodic { interval } => Some(interval.max(1)),
            FaultPattern::Poisson { mean_interval } => Some(rng.exponential(mean_interval as f64)),
        }
    }
}

/// Composed fault lanes, carried by `MachineConfig`. The default
/// ([`FaultPlan::disabled`]) is inert: no draws, no events, no behavior
/// change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability (parts per million, per send) that a kick IPI is
    /// silently lost in the interconnect.
    pub kick_drop_ppm: u32,
    /// Probability (ppm, per send) that a kick IPI is delayed beyond the
    /// modeled latency.
    pub kick_delay_ppm: u32,
    /// Extra delivery latency of a delayed kick.
    pub kick_delay_extra: Cost,
    /// Probability (ppm, per programming) that the one-shot timer fires
    /// late, past its quantized deadline. The overshoot is invisible to
    /// software: the programming call still reports the quantized delay.
    pub timer_overshoot_ppm: u32,
    /// Extra firing latency of an overshooting one-shot.
    pub timer_overshoot_extra: Cost,
    /// Recurring transient frequency dips (DVFS-style), each hitting one
    /// uniformly drawn CPU.
    pub freq_dip: FaultPattern,
    /// Wall-clock length of one dip window.
    pub freq_dip_duration: Cost,
    /// Percent of throughput lost during a dip (50 = the core runs at
    /// half speed, so half the window's cycles are lost).
    pub freq_dip_loss_pct: u32,
    /// Recurring spurious device interrupts on a uniformly drawn CPU.
    pub spurious_irq: FaultPattern,
    /// Device IRQ line (0..=0x3F) the spurious interrupts arrive on.
    pub spurious_irq_line: u8,
    /// Recurring bounded stalls of one uniformly drawn CPU (firmware or
    /// memory-controller hiccups; unlike an SMI, other CPUs keep running).
    pub cpu_stall: FaultPattern,
    /// Stall length.
    pub cpu_stall_duration: Cost,
}

impl FaultPlan {
    /// Every lane off. Draws nothing, schedules nothing.
    pub fn disabled() -> Self {
        FaultPlan {
            kick_drop_ppm: 0,
            kick_delay_ppm: 0,
            kick_delay_extra: Cost::fixed(0),
            timer_overshoot_ppm: 0,
            timer_overshoot_extra: Cost::fixed(0),
            freq_dip: FaultPattern::Disabled,
            freq_dip_duration: Cost::fixed(0),
            freq_dip_loss_pct: 0,
            spurious_irq: FaultPattern::Disabled,
            spurious_irq_line: 5,
            cpu_stall: FaultPattern::Disabled,
            cpu_stall_duration: Cost::fixed(0),
        }
    }

    /// A representative noisy-platform preset with every lane on, scaled
    /// by `intensity` (0.0 disables everything; 1.0 is a decidedly hostile
    /// environment: percent-scale kick loss, tens-of-µs overshoots and
    /// stalls, millisecond-mean recurring faults).
    pub fn noisy(freq: nautix_des::Freq, intensity: f64) -> Self {
        if intensity <= 0.0 {
            return FaultPlan::disabled();
        }
        let ppm = |base: f64| ((base * intensity) as u32).min(1_000_000);
        let mean = |base_us: u64| {
            let m = (base_us as f64 / intensity).max(1.0);
            FaultPattern::Poisson {
                mean_interval: freq.us_to_cycles(m as u64),
            }
        };
        let us = |n: u64| freq.us_to_cycles(n);
        FaultPlan {
            kick_drop_ppm: ppm(10_000.0),
            kick_delay_ppm: ppm(40_000.0),
            kick_delay_extra: Cost::new(us(5), us(5) / 2),
            timer_overshoot_ppm: ppm(40_000.0),
            timer_overshoot_extra: Cost::new(us(10), us(10) / 2),
            freq_dip: mean(3_000),
            freq_dip_duration: Cost::new(us(100), us(25)),
            freq_dip_loss_pct: 50,
            spurious_irq: mean(1_000),
            spurious_irq_line: 5,
            cpu_stall: mean(5_000),
            cpu_stall_duration: Cost::new(us(50), us(12)),
        }
    }

    /// Whether any lane is live. Gates the oracle layer's
    /// admission-guarantee predicate, like `SmiConfig::enabled`.
    pub fn enabled(&self) -> bool {
        self.kick_drop_ppm > 0
            || self.kick_delay_ppm > 0
            || self.timer_overshoot_ppm > 0
            || self.freq_dip.enabled()
            || self.spurious_irq.enabled()
            || self.cpu_stall.enabled()
    }

    /// One Bernoulli draw for a ppm-rated lane. Draws **only** when the
    /// lane is live, preserving the disabled-plan RNG stream.
    pub fn chance(ppm: u32, rng: &mut DetRng) -> bool {
        ppm > 0 && rng.uniform(0, 999_999) < ppm as u64
    }
}

/// Running ground-truth totals about injected faults, mirrored after
/// [`crate::SmiStats`]; experiments report these next to miss rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Kick IPIs silently dropped.
    pub kicks_dropped: u64,
    /// Kick IPIs delivered late.
    pub kicks_delayed: u64,
    /// Total extra kick latency injected.
    pub kick_delay_cycles: Cycles,
    /// One-shot programmings that overshot.
    pub timer_overshoots: u64,
    /// Total overshoot injected.
    pub timer_overshoot_cycles: Cycles,
    /// Frequency dips entered.
    pub freq_dips: u64,
    /// Total compute cycles lost to dips.
    pub freq_dip_lost_cycles: Cycles,
    /// Spurious device interrupts raised.
    pub spurious_irqs: u64,
    /// Single-CPU stalls entered.
    pub cpu_stalls: u64,
    /// Total cycles single CPUs spent stalled.
    pub cpu_stall_cycles: Cycles,
}

impl FaultStats {
    /// Total injections across every lane.
    pub fn total(&self) -> u64 {
        self.kicks_dropped
            + self.kicks_delayed
            + self.timer_overshoots
            + self.freq_dips
            + self.spurious_irqs
            + self.cpu_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_des::Freq;

    #[test]
    fn disabled_plan_is_inert() {
        let p = FaultPlan::disabled();
        assert!(!p.enabled());
        let mut rng = DetRng::seed_from(3);
        assert_eq!(p.freq_dip.next_gap(&mut rng), None);
        assert_eq!(p.spurious_irq.next_gap(&mut rng), None);
        assert_eq!(p.cpu_stall.next_gap(&mut rng), None);
        // A zero-ppm chance draws nothing: the stream is untouched.
        let before = rng.uniform(0, u64::MAX - 1);
        let mut rng2 = DetRng::seed_from(3);
        assert!(!FaultPlan::chance(0, &mut rng2));
        assert_eq!(rng2.uniform(0, u64::MAX - 1), before);
    }

    #[test]
    fn noisy_preset_scales_with_intensity() {
        let lo = FaultPlan::noisy(Freq::phi(), 0.25);
        let hi = FaultPlan::noisy(Freq::phi(), 1.0);
        assert!(lo.enabled() && hi.enabled());
        assert!(lo.kick_drop_ppm < hi.kick_drop_ppm);
        let gap = |p: &FaultPlan| match p.freq_dip {
            FaultPattern::Poisson { mean_interval } => mean_interval,
            _ => unreachable!(),
        };
        assert!(gap(&lo) > gap(&hi), "lower intensity means rarer dips");
        assert_eq!(FaultPlan::noisy(Freq::phi(), 0.0), FaultPlan::disabled());
    }

    #[test]
    fn chance_respects_rate_roughly() {
        let mut rng = DetRng::seed_from(11);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| FaultPlan::chance(100_000, &mut rng))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn periodic_pattern_gap_is_constant() {
        let p = FaultPattern::Periodic { interval: 4_000 };
        let mut rng = DetRng::seed_from(1);
        assert_eq!(p.next_gap(&mut rng), Some(4_000));
        assert_eq!(p.next_gap(&mut rng), Some(4_000));
    }
}

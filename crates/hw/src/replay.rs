//! Replay-codec fragments for hardware configuration types.
//!
//! The bench layer's scenario record/replay format serializes a full
//! `MachineConfig`; the spellings of the hardware-owned pieces live here,
//! next to the types they describe, so adding a field to a type and
//! forgetting its codec arm is a compile error in this file rather than a
//! silent drift in `bench`: every `parse` builds a struct literal and
//! every `encode` destructures without `..`. The rules are [`Value`]'s.
//! Fragments are colon-separated inside, semicolon-separated across
//! [`FaultPlan`] fields.

use crate::apic::TimerMode;
use crate::cost::Cost;
use crate::fault::{FaultPattern, FaultPlan};
use crate::machine::Platform;
use crate::smi::SmiConfig;
use crate::topology::Topology;
use nautix_des::text::{field, split, tag, Value};
use nautix_des::Cycles;

/// A timer tick, an interval or a mean inter-arrival time: zero is not a
/// value of the type (the simulator divides by a tick and draws
/// exponentials of a mean).
fn nonzero(s: &str, what: &str) -> Result<Cycles, String> {
    match field(s, what)? {
        0 => Err(format!("{what}: must be >= 1")),
        n => Ok(n),
    }
}

/// `base:jitter`.
impl Value for Cost {
    fn encode(&self) -> String {
        let Cost { base, jitter } = self;
        format!("{base}:{jitter}")
    }

    fn parse(s: &str) -> Result<Cost, String> {
        let [base, jitter] = split(s, ':', "cost")?;
        Ok(Cost {
            base: field(base, "cost base")?,
            jitter: field(jitter, "cost jitter")?,
        })
    }
}

/// `off` | `periodic:<interval>` | `poisson:<mean>`.
impl Value for FaultPattern {
    fn encode(&self) -> String {
        match *self {
            FaultPattern::Disabled => "off".into(),
            FaultPattern::Periodic { interval } => format!("periodic:{interval}"),
            FaultPattern::Poisson { mean_interval } => format!("poisson:{mean_interval}"),
        }
    }

    fn parse(s: &str) -> Result<FaultPattern, String> {
        match s.split_once(':') {
            None if s == "off" => Ok(FaultPattern::Disabled),
            Some(("periodic", v)) => Ok(FaultPattern::Periodic {
                interval: nonzero(v, "periodic interval")?,
            }),
            Some(("poisson", v)) => Ok(FaultPattern::Poisson {
                mean_interval: nonzero(v, "poisson mean")?,
            }),
            _ => Err(format!(
                "fault pattern: expected `off`, `periodic:<n>` or `poisson:<n>`, got `{s}`"
            )),
        }
    }
}

/// `off` | `periodic:<interval>:<base>:<jitter>` |
/// `poisson:<mean>:<base>:<jitter>` (duration folded in, since a
/// disabled injector has no meaningful duration).
impl Value for SmiConfig {
    fn encode(&self) -> String {
        let SmiConfig { pattern, duration } = self;
        match pattern {
            FaultPattern::Disabled => "off".into(),
            on => format!("{}:{}", on.encode(), duration.encode()),
        }
    }

    fn parse(s: &str) -> Result<SmiConfig, String> {
        if s == "off" {
            return Ok(SmiConfig::disabled());
        }
        let [tag, n, base, jitter] = split(s, ':', "smi")?;
        let n = nonzero(n, "smi interval")?;
        Ok(SmiConfig {
            pattern: match tag {
                "periodic" => FaultPattern::Periodic { interval: n },
                "poisson" => FaultPattern::Poisson { mean_interval: n },
                _ => return Err(format!("smi: unknown pattern tag `{tag}`")),
            },
            duration: Cost {
                base: field(base, "smi duration base")?,
                jitter: field(jitter, "smi duration jitter")?,
            },
        })
    }
}

/// `oneshot:<tick_cycles>` | `tsc_deadline`.
impl Value for TimerMode {
    fn encode(&self) -> String {
        match *self {
            TimerMode::OneShot { tick_cycles } => format!("oneshot:{tick_cycles}"),
            TimerMode::TscDeadline => "tsc_deadline".into(),
        }
    }

    fn parse(s: &str) -> Result<TimerMode, String> {
        match s.split_once(':') {
            None if s == "tsc_deadline" => Ok(TimerMode::TscDeadline),
            Some(("oneshot", v)) => Ok(TimerMode::OneShot {
                tick_cycles: nonzero(v, "oneshot tick")?,
            }),
            _ => Err(format!(
                "timer mode: expected `oneshot:<tick>` or `tsc_deadline`, got `{s}`"
            )),
        }
    }
}

impl Platform {
    /// `phi` | `r415`: the tag, also used in file and scenario names.
    pub fn encode(&self) -> &'static str {
        match self {
            Platform::Phi => "phi",
            Platform::R415 => "r415",
        }
    }
}

impl Value for Platform {
    fn encode(&self) -> String {
        Platform::encode(self).into()
    }

    fn parse(s: &str) -> Result<Platform, String> {
        tag(s, "platform", &[Platform::Phi, Platform::R415])
    }
}

/// [`Topology::label`]. The human-facing [`Topology::parse`] also takes
/// `1x1`, capitals and padding; [`Value::decode`] only the label itself.
impl Value for Topology {
    fn encode(&self) -> String {
        self.label()
    }

    fn parse(s: &str) -> Result<Topology, String> {
        Topology::parse(s)
    }
}

/// `off` for the inert plan, otherwise all twelve fields in struct order,
/// semicolon-separated: a truncated plan is a wrong field count.
impl Value for FaultPlan {
    fn encode(&self) -> String {
        if *self == FaultPlan::disabled() {
            return "off".into();
        }
        let FaultPlan {
            kick_drop_ppm,
            kick_delay_ppm,
            kick_delay_extra,
            timer_overshoot_ppm,
            timer_overshoot_extra,
            freq_dip,
            freq_dip_duration,
            freq_dip_loss_pct,
            spurious_irq,
            spurious_irq_line,
            cpu_stall,
            cpu_stall_duration,
        } = self;
        [
            kick_drop_ppm.encode(),
            kick_delay_ppm.encode(),
            kick_delay_extra.encode(),
            timer_overshoot_ppm.encode(),
            timer_overshoot_extra.encode(),
            freq_dip.encode(),
            freq_dip_duration.encode(),
            freq_dip_loss_pct.encode(),
            spurious_irq.encode(),
            spurious_irq_line.encode(),
            cpu_stall.encode(),
            cpu_stall_duration.encode(),
        ]
        .join(";")
    }

    fn parse(s: &str) -> Result<FaultPlan, String> {
        if s == "off" {
            return Ok(FaultPlan::disabled());
        }
        let p: [&str; 12] = split(s, ';', "fault plan")?;
        Ok(FaultPlan {
            kick_drop_ppm: field(p[0], "kick_drop_ppm")?,
            kick_delay_ppm: field(p[1], "kick_delay_ppm")?,
            kick_delay_extra: field(p[2], "kick_delay_extra")?,
            timer_overshoot_ppm: field(p[3], "timer_overshoot_ppm")?,
            timer_overshoot_extra: field(p[4], "timer_overshoot_extra")?,
            freq_dip: field(p[5], "freq_dip")?,
            freq_dip_duration: field(p[6], "freq_dip_duration")?,
            freq_dip_loss_pct: field(p[7], "freq_dip_loss_pct")?,
            spurious_irq: field(p[8], "spurious_irq")?,
            spurious_irq_line: field(p[9], "spurious_irq_line")?,
            cpu_stall: field(p[10], "cpu_stall")?,
            cpu_stall_duration: field(p[11], "cpu_stall_duration")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_des::Freq;

    #[test]
    fn cost_and_pattern_round_trip() {
        for c in [Cost::fixed(0), Cost::new(1500, 400)] {
            assert_eq!(Cost::decode(&c.encode()).unwrap(), c);
        }
        for p in [
            FaultPattern::Disabled,
            FaultPattern::Periodic { interval: 9 },
            FaultPattern::Poisson { mean_interval: 77 },
        ] {
            assert_eq!(FaultPattern::decode(&p.encode()).unwrap(), p);
        }
        assert!(Cost::decode("12").is_err());
        assert!(Cost::decode("a:b").is_err());
        assert!(FaultPattern::decode("sometimes:4").is_err());
        assert!(FaultPattern::decode("periodic").is_err());
        assert!(FaultPattern::decode("periodic:0").is_err());
        assert!(FaultPattern::decode("poisson:0").is_err());
    }

    #[test]
    fn smi_and_timer_mode_round_trip() {
        for c in [
            SmiConfig::disabled(),
            SmiConfig::noisy(Freq::phi(), 33_000, 150),
            SmiConfig {
                pattern: FaultPattern::Periodic { interval: 500 },
                duration: Cost::new(10, 3),
            },
        ] {
            assert_eq!(SmiConfig::decode(&c.encode()).unwrap(), c);
        }
        for m in [
            TimerMode::OneShot { tick_cycles: 26 },
            TimerMode::TscDeadline,
        ] {
            assert_eq!(TimerMode::decode(&m.encode()).unwrap(), m);
        }
        assert!(SmiConfig::decode("periodic:5").is_err());
        assert!(SmiConfig::decode("storm:1:2:3").is_err());
        assert!(TimerMode::decode("oneshot").is_err());
        assert!(TimerMode::decode("oneshot:0").is_err());
        assert!(SmiConfig::decode("poisson:0:100:200").is_err());
    }

    #[test]
    fn fault_plan_round_trips_and_rejects_truncation() {
        let plans = [
            FaultPlan::disabled(),
            FaultPlan::noisy(Freq::phi(), 1.0),
            FaultPlan {
                kick_drop_ppm: 5_000,
                ..FaultPlan::disabled()
            },
        ];
        for p in plans {
            assert_eq!(FaultPlan::decode(&p.encode()).unwrap(), p);
        }
        assert_eq!(FaultPlan::disabled().encode(), "off");
        let full = FaultPlan::noisy(Freq::phi(), 0.5).encode();
        let truncated = full.rsplit_once(';').unwrap().0;
        let e = FaultPlan::decode(truncated).unwrap_err();
        assert!(e.contains("12"), "truncation must name the arity: {e}");
        assert!(FaultPlan::decode(&format!("{full};0")).is_err());
    }

    #[test]
    fn platform_round_trips() {
        for p in [Platform::Phi, Platform::R415] {
            assert_eq!(Platform::decode(p.encode()).unwrap(), p);
        }
        assert!(Platform::decode("phi3").is_err());
    }
}

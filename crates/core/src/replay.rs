//! Replay-codec fragments for scheduler configuration types: the
//! counterpart of `nautix_hw`'s `replay.rs` for the types this crate owns,
//! as the scenario format's `sched.*` lines carry them. The rules are
//! [`Value`]'s.

use crate::admission::{
    AdmissionPolicy, DegradePolicy, LayerSpec, LayerTable, SchedMode, StealPolicy,
};
use nautix_des::text::{field, split, tag, Value};

/// `edf_bound` | `rm_bound` | `hyperperiod_sim:<overhead_ns>:<window_cap_ns>`.
impl Value for AdmissionPolicy {
    fn encode(&self) -> String {
        match *self {
            AdmissionPolicy::EdfBound => "edf_bound".into(),
            AdmissionPolicy::RmBound => "rm_bound".into(),
            AdmissionPolicy::HyperperiodSim {
                overhead_ns,
                window_cap_ns,
            } => format!("hyperperiod_sim:{overhead_ns}:{window_cap_ns}"),
        }
    }

    fn parse(s: &str) -> Result<AdmissionPolicy, String> {
        match s.split_once(':') {
            None if s == "edf_bound" => Ok(AdmissionPolicy::EdfBound),
            None if s == "rm_bound" => Ok(AdmissionPolicy::RmBound),
            Some(("hyperperiod_sim", rest)) => {
                let [overhead, window_cap] = split(rest, ':', "hyperperiod_sim")?;
                Ok(AdmissionPolicy::HyperperiodSim {
                    overhead_ns: field(overhead, "overhead")?,
                    window_cap_ns: field(window_cap, "window cap")?,
                })
            }
            _ => Err(format!(
                "expected `edf_bound`, `rm_bound` or `hyperperiod_sim:<o>:<w>`, got `{s}`"
            )),
        }
    }
}

/// `eager` | `lazy`.
impl Value for SchedMode {
    fn encode(&self) -> String {
        match self {
            SchedMode::Eager => "eager",
            SchedMode::Lazy => "lazy",
        }
        .into()
    }

    fn parse(s: &str) -> Result<SchedMode, String> {
        tag(s, "dispatch mode", &[SchedMode::Eager, SchedMode::Lazy])
    }
}

/// `llc_first` | `uniform`.
impl Value for StealPolicy {
    fn encode(&self) -> String {
        match self {
            StealPolicy::LlcFirst => "llc_first",
            StealPolicy::Uniform => "uniform",
        }
        .into()
    }

    fn parse(s: &str) -> Result<StealPolicy, String> {
        tag(
            s,
            "steal policy",
            &[StealPolicy::LlcFirst, StealPolicy::Uniform],
        )
    }
}

/// `on|off:<miss_threshold>:<widen_pct>:<max_widen>`.
impl Value for DegradePolicy {
    fn encode(&self) -> String {
        let DegradePolicy {
            enabled,
            miss_threshold,
            widen_pct,
            max_widen,
        } = self;
        let switch = enabled.encode();
        format!("{switch}:{miss_threshold}:{widen_pct}:{max_widen}")
    }

    fn parse(s: &str) -> Result<DegradePolicy, String> {
        let [enabled, threshold, widen_pct, max_widen] = split(s, ':', "degrade policy")?;
        Ok(DegradePolicy {
            enabled: field(enabled, "switch")?,
            miss_threshold: field(threshold, "threshold")?,
            widen_pct: field(widen_pct, "widen_pct")?,
            max_widen: field(max_widen, "max_widen")?,
        })
    }
}

/// `<guarantee_ppm>:<burst_ppm>`.
impl Value for LayerSpec {
    fn encode(&self) -> String {
        let LayerSpec {
            guarantee_ppm,
            burst_ppm,
        } = self;
        format!("{guarantee_ppm}:{burst_ppm}")
    }

    fn parse(s: &str) -> Result<LayerSpec, String> {
        let [guarantee, burst] = split(s, ':', "layer spec")?;
        Ok(LayerSpec {
            guarantee_ppm: field(guarantee, "layer guarantee")?,
            burst_ppm: field(burst, "layer burst")?,
        })
    }
}

/// `<g0>:<b0>[,<g1>:<b1>...];<replenish_ns>;<mp>,<ms>,<ma>` — ppm
/// guarantees and bursts, the wall-ns replenish window, and the
/// periodic/sporadic/aperiodic class→layer map. Decoding goes through
/// [`LayerTable::build`], so a table that fails validation (overcommitted
/// guarantees, a dangling map index, a zero window) is an error the same
/// as bad syntax.
impl Value for LayerTable {
    fn encode(&self) -> String {
        let specs: Vec<LayerSpec> = (0..self.count()).map(|l| self.spec(l)).collect();
        let map = [
            self.map_periodic(),
            self.map_sporadic(),
            self.map_aperiodic(),
        ]
        .to_vec();
        format!("{};{};{}", specs.encode(), self.replenish_ns, map.encode())
    }

    fn parse(s: &str) -> Result<LayerTable, String> {
        let [specs, replenish, map] = split(s, ';', "layer table")?;
        let specs: Vec<LayerSpec> = field(specs, "layer specs")?;
        let map: Vec<u8> = field(map, "layer map")?;
        let map = <[u8; 3]>::try_from(map).map_err(|_| format!("layer map in `{s}`: want 3"))?;
        LayerTable::build(&specs, field(replenish, "layer replenish")?, map)
            .map_err(|e| format!("layer table `{s}`: {e}"))
    }
}

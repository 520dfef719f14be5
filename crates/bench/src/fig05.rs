//! Figure 5: breakdown of local scheduler overheads on Phi and R415.
//!
//! Four components per timer interrupt — IRQ (entry+exit), Other,
//! Resched (the scheduling pass), Switch (context switch) — measured with
//! the cycle counter from inside the invocation path. The paper's Phi
//! total is ~6000 cycles with the pass about half of it; the R415 is
//! cheaper in both cycles and time.

use crate::common::Scale;
use nautix_hw::{MachineConfig, Platform};
use nautix_kernel::{constrained_loop, Constraints};
use nautix_rt::{Node, NodeConfig, OverheadBreakdown, OverheadLog};

/// One platform's breakdown.
#[derive(Debug, Clone)]
pub struct PlatformOverheads {
    /// Which machine.
    pub platform: Platform,
    /// Component summaries in cycles.
    pub breakdown: OverheadBreakdown,
    /// Number of sampled invocations.
    pub samples: u64,
}

impl PlatformOverheads {
    /// Mean total overhead per switching invocation.
    pub fn mean_total(&self) -> f64 {
        self.breakdown.irq.mean
            + self.breakdown.other.mean
            + self.breakdown.resched.mean
            + self.breakdown.switch.mean
    }
}

/// Both platforms' results.
#[derive(Debug, Clone)]
pub struct Fig05 {
    /// Xeon Phi.
    pub phi: PlatformOverheads,
    /// Dell R415.
    pub r415: PlatformOverheads,
}

fn measure(platform: Platform, scale: Scale, seed: u64) -> PlatformOverheads {
    let mut node = Node::new(NodeConfig::for_machine(
        MachineConfig::for_platform(platform)
            .with_cpus(2)
            .with_seed(seed),
    ));
    let log = node.observe(OverheadLog::new(1));
    let prog = constrained_loop(Constraints::periodic(100_000, 50_000).build(), 1_000_000);
    node.spawn_on(1, "probe", Box::new(prog)).unwrap();
    let horizon = match scale {
        Scale::Quick => 20_000_000,
        Scale::Paper => 200_000_000,
    };
    node.run_for_ns(horizon);
    let log = log.borrow();
    PlatformOverheads {
        platform,
        breakdown: log.summaries(),
        samples: log.samples().len() as u64,
    }
}

/// Run the overhead-breakdown experiment on both testbeds.
pub fn run(scale: Scale, seed: u64) -> Fig05 {
    Fig05 {
        phi: measure(Platform::Phi, scale, seed),
        r415: measure(Platform::R415, scale, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_total_is_about_6000_cycles() {
        let r = run(Scale::Quick, 17);
        assert!(r.phi.samples > 100);
        let total = r.phi.mean_total();
        assert!(
            (5000.0..7000.0).contains(&total),
            "Phi total overhead {total} outside the paper's ~6000-cycle ballpark"
        );
    }

    #[test]
    fn resched_is_about_half_on_phi() {
        let r = run(Scale::Quick, 17);
        let frac = r.phi.breakdown.resched.mean / r.phi.mean_total();
        assert!((0.38..0.62).contains(&frac), "pass fraction {frac}");
    }

    #[test]
    fn r415_is_cheaper_in_cycles() {
        let r = run(Scale::Quick, 17);
        assert!(r.r415.mean_total() < r.phi.mean_total());
        // And in real time too (2.2 GHz vs 1.3 GHz makes it even clearer).
        let phi_ns = r.phi.mean_total() / 1.3;
        let r415_ns = r.r415.mean_total() / 2.2;
        assert!(r415_ns < phi_ns);
    }
}

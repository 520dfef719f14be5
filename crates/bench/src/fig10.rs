//! Figure 10: absolute group admission control costs vs. group size.
//!
//! Four panels: (a) group join, (b) leader election, (c) distributed
//! admission control — with the constant local-admission line it builds on
//! — and (d) the final barrier + phase correction. Averages grow linearly
//! with the member count because the coordination schemes are deliberately
//! simple; at 255 threads the whole algorithm costs ~8M cycles (~6 ms).

use crate::common::Scale;
use nautix_des::Summary;
use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, GroupId, SysCall};
use nautix_rt::{GaTimings, Node, NodeConfig};

/// Cost summaries (cycles) for one group size.
#[derive(Debug, Clone)]
pub struct GaCosts {
    /// Members admitted.
    pub n: usize,
    /// (a) Group join.
    pub join: Summary,
    /// (b) Leader election.
    pub election: Summary,
    /// (c) Distributed admission control (barrier + local admission +
    /// error reduction).
    pub admission: Summary,
    /// (c) The constant local admission control it builds on.
    pub local: Summary,
    /// (d) Final barrier + phase correction.
    pub barrier_phase: Summary,
    /// End-to-end group change constraints.
    pub total: Summary,
}

/// Group sizes to measure.
pub fn group_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![2, 4, 8, 16, 32, 63],
        Scale::Paper => vec![2, 4, 8, 16, 32, 64, 128, 192, 255],
    }
}

/// Measure group admission at one size.
pub fn measure(n: usize, seed: u64) -> GaCosts {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(n + 1).with_seed(seed);
    let mut node = Node::new(cfg);
    let observed = node.observe(GaTimings::default());
    let gid = GroupId(0);
    let mut tids = Vec::new();
    for i in 0..n {
        let prog = FnProgram::new(move |_cx, step| {
            let k = if i == 0 { step } else { step + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "fig10" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(3_000_000)), // settle
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::Periodic {
                        phase: 1_000_000,
                        period: 10_000_000,
                        slice: 1_000_000,
                    },
                }),
                _ => Action::Exit,
            }
        });
        tids.push(
            node.spawn_on(i + 1, &format!("m{i}"), Box::new(prog))
                .unwrap(),
        );
    }
    node.run_until_quiescent();
    let freq = node.freq();
    let to_cycles = |ns: u64| freq.ns_to_cycles(ns);
    let observed = observed.borrow();
    let join: Vec<u64> = observed
        .joins()
        .iter()
        .map(|&(_, d)| to_cycles(d))
        .collect();
    let timings = observed.admissions();
    assert_eq!(timings.len(), n, "every member must complete admission");
    let election: Vec<u64> = timings
        .iter()
        .map(|t| to_cycles(t.t_elect - t.t_call))
        .collect();
    let admission: Vec<u64> = timings
        .iter()
        .map(|t| to_cycles(t.t_reduce - t.t_elect))
        .collect();
    let local: Vec<u64> = timings
        .iter()
        .map(|t| to_cycles(t.local_admit_ns))
        .collect();
    let barrier_phase: Vec<u64> = timings
        .iter()
        .map(|t| to_cycles(t.t_done - t.t_reduce))
        .collect();
    let total: Vec<u64> = timings
        .iter()
        .map(|t| to_cycles(t.t_done - t.t_call))
        .collect();
    GaCosts {
        n,
        join: Summary::of(&join),
        election: Summary::of(&election),
        admission: Summary::of(&admission),
        local: Summary::of(&local),
        barrier_phase: Summary::of(&barrier_phase),
        total: Summary::of(&total),
    }
}

/// Run the size sweep.
pub fn run(scale: Scale, seed: u64) -> Vec<GaCosts> {
    group_sizes(scale)
        .into_iter()
        .map(|n| measure(n, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_grow_with_group_size() {
        let small = measure(4, 9);
        let big = measure(32, 9);
        assert!(big.election.mean > small.election.mean);
        assert!(big.admission.mean > small.admission.mean);
        assert!(big.barrier_phase.mean > small.barrier_phase.mean);
        assert!(big.total.mean > small.total.mean);
    }

    #[test]
    fn local_admission_is_constant_in_group_size() {
        // Figure 10c's "Local Change Constraints" line is flat: it is the
        // hard floor under distributed admission.
        let small = measure(4, 9);
        let big = measure(32, 9);
        let ratio = big.local.mean / small.local.mean;
        assert!(
            (0.8..1.25).contains(&ratio),
            "local admission should not scale with n (ratio {ratio})"
        );
        assert!(big.local.mean < big.admission.mean);
    }

    #[test]
    fn growth_is_roughly_linear() {
        let a = measure(8, 9);
        let b = measure(32, 9);
        // 4x the members => roughly 2..6x the admission step (linear with
        // a constant term).
        let ratio = b.admission.mean / a.admission.mean;
        assert!(
            (1.5..8.0).contains(&ratio),
            "expected near-linear growth, ratio {ratio}"
        );
    }
}

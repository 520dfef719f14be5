//! Figures 11 and 12: cross-CPU scheduler synchronization in a group.
//!
//! Once a group is admitted, the local schedulers coordinate only through
//! wall-clock time. Each context switch *to* a group member is
//! timestamped on its own CPU; the figure plots, per invocation index, the
//! maximum difference across members. Phase correction is **disabled**
//! here, exactly as in the paper, so the plot shows the barrier
//! release-order bias (growing with group size) plus the uncorrectable
//! variation (largely independent of group size, ~4000 cycles on the Phi).

use crate::common::Scale;
use crate::harness::{run_trials, HarnessStats};
use nautix_des::Summary;
use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, GroupId, SysCall};
use nautix_rt::{dispatch_spreads, DispatchStamps, GaTimings, HarnessConfig, Node, NodeConfig};

/// Spread series for one group size.
#[derive(Debug, Clone)]
pub struct SyncSeries {
    /// Group size.
    pub n: usize,
    /// Per-invocation-index max cross-CPU difference, cycles.
    pub spreads: Vec<u64>,
    /// Summary over the series.
    pub summary: Summary,
}

/// Run one group-sync measurement.
pub fn measure(n: usize, invocations: usize, phase_correction: bool, seed: u64) -> SyncSeries {
    measure_instrumented(n, invocations, phase_correction, seed).0
}

/// [`measure`] plus the trial's simulated-event count.
pub fn measure_instrumented(
    n: usize,
    invocations: usize,
    phase_correction: bool,
    seed: u64,
) -> (SyncSeries, u64) {
    let machine = MachineConfig::phi().with_cpus(n + 1).with_seed(seed);
    let (series, events, _) = measure_on(machine, n, invocations, phase_correction);
    (series, events)
}

/// [`measure`] on an explicit machine: the group occupies CPUs `1..=n` of
/// whatever `machine` describes (which must have at least `n + 1` CPUs —
/// topology, queue backend, and seed all come from the config). Returns
/// the spread series, the trial's simulated-event count, and the
/// machine's per-distance IPI counters (same-LLC, same-package,
/// cross-package) — the gang-dispatch kick traffic the topology
/// benchmarks report.
pub fn measure_on(
    machine: MachineConfig,
    n: usize,
    invocations: usize,
    phase_correction: bool,
) -> (SyncSeries, u64, [u64; 3]) {
    let mut cfg = NodeConfig::phi();
    // Idle threads occupy one table entry per CPU; machine-sized groups
    // on 1024-CPU machines need more than the default 1024 entries.
    cfg.max_threads = cfg.max_threads.max(machine.n_cpus + n + 64);
    cfg.machine = machine;
    cfg.phase_correction = phase_correction;
    let mut node = Node::new(cfg);
    let stamps = node.observe(DispatchStamps::new(invocations + 64));
    let ga = node.observe(GaTimings::default());
    let gid = GroupId(0);
    let period: u64 = 100_000; // 100 µs
    let slice: u64 = 50_000;
    let mut tids = Vec::new();
    for i in 0..n {
        let prog = FnProgram::new(move |_cx, step| {
            let k = if i == 0 { step } else { step + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "sync" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(3_000_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::Periodic {
                        phase: 1_000_000,
                        period,
                        slice,
                    },
                }),
                // Compute forever: every period produces one dispatch.
                _ => Action::Compute(1_000_000),
            }
        });
        tids.push(
            node.spawn_on(i + 1, &format!("s{i}"), Box::new(prog))
                .unwrap(),
        );
    }
    // Horizon: settle + admission + the requested invocations.
    let horizon_ns = 10_000_000 + (invocations as u64 + 8) * period;
    node.run_for_ns(horizon_ns);
    let t_admitted = ga
        .borrow()
        .admissions()
        .iter()
        .map(|t| t.t_done)
        .max()
        .expect("admission must complete");
    // Align logs at the first gang-scheduled dispatch. A bound thread's
    // stamps are in time order: keep the suffix after the cut-off.
    let freq = node.freq();
    let stamps = stamps.borrow();
    let cut = t_admitted + period;
    let logs: Vec<&[u64]> = tids
        .iter()
        .map(|&t| {
            let all = stamps.times(t);
            &all[all.partition_point(|&x| x <= cut)..]
        })
        .collect();
    let spreads_ns = dispatch_spreads(&logs);
    let spreads: Vec<u64> = spreads_ns
        .iter()
        .take(invocations)
        .map(|&ns| freq.ns_to_cycles(ns))
        .collect();
    (
        SyncSeries {
            n,
            summary: Summary::of(&spreads),
            spreads,
        },
        node.machine.events_processed(),
        node.machine.ipis_by_distance(),
    )
}

/// Figure 11: an 8-thread group followed over many invocations.
pub fn fig11(scale: Scale, seed: u64) -> SyncSeries {
    let inv = match scale {
        Scale::Quick => 1000,
        Scale::Paper => 10_000,
    };
    measure(8, inv, false, seed)
}

/// Figure 12: spread series at several group sizes, one independent trial
/// per size, fanned across worker threads.
pub fn fig12_with_stats(
    hc: &HarnessConfig,
    scale: Scale,
    seed: u64,
) -> (Vec<SyncSeries>, HarnessStats) {
    let (sizes, inv): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![8, 32, 63], 300),
        Scale::Paper => (vec![8, 64, 128, 255], 1000),
    };
    let set = run_trials(hc, sizes, |&n| measure_instrumented(n, inv, false, seed));
    (set.results, set.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_thread_group_stays_within_a_few_thousand_cycles() {
        let s = measure(8, 300, false, 21);
        assert!(s.spreads.len() >= 200, "got {} spreads", s.spreads.len());
        // Figure 11: "context switch events on the local schedulers happen
        // within a few 1000s of cycles"; the band sits below ~8000.
        assert!(
            s.summary.max < 10_000,
            "spread max {} cycles too wide",
            s.summary.max
        );
        assert!(s.summary.mean > 0.0);
    }

    #[test]
    fn variation_is_independent_of_group_size_but_bias_grows() {
        let small = measure(8, 200, false, 21);
        let big = measure(48, 200, false, 21);
        // Mean (bias) grows with n without phase correction...
        assert!(
            big.summary.mean > small.summary.mean,
            "bias should grow with group size ({} vs {})",
            big.summary.mean,
            small.summary.mean
        );
        // ...but the variation does not grow proportionally (paper:
        // "largely independent of the number of threads").
        let ratio = big.summary.std_dev / small.summary.std_dev.max(1.0);
        assert!(
            ratio < 6.0,
            "variation grew too much with group size (x{ratio})"
        );
    }

    #[test]
    fn phase_correction_removes_the_bias() {
        let raw = measure(16, 200, false, 21);
        let corrected = measure(16, 200, true, 21);
        assert!(
            corrected.summary.mean < raw.summary.mean,
            "phase correction must shrink the spread ({} vs {})",
            corrected.summary.mean,
            raw.summary.mean
        );
    }
}

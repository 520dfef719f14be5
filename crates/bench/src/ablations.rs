//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation isolates one mechanism the paper argues for and measures
//! the system with it toggled:
//!
//! * eager vs. lazy EDF under SMI injection (§3.6),
//! * the utilization-limit knob under SMI injection (§3.6),
//! * phase correction on/off (§4.4 — see also `groupsync`),
//! * interrupt steering in/out of the RT partition (§3.5),
//! * APIC tick quantization vs. TSC-deadline timing (§3.3),
//! * admission policies: EDF bound vs. RM bound vs. hyperperiod
//!   simulation (§3.2),
//! * hard admission vs. soft overload (§7),
//! * online EDF vs. a statically compiled cyclic executive (§8).

use crate::harness::{run_trials, HarnessStats};
use nautix_des::{Nanos, Summary};
use nautix_hw::{Cost, FaultPattern, MachineConfig, SmiConfig, TimerMode};
use nautix_kernel::{
    constrained_loop, Action, Constraints, FnProgram, Program, SysCall, SysResult,
};
use nautix_rt::{
    compile_cyclic, AdmissionPolicy, CpuLoad, CyclicExecutive, CyclicTask, DispatchStamps,
    HarnessConfig, Node, NodeConfig, SchedConfig, SchedMode,
};

/// Miss rate of a periodic thread under the given scheduler mode and SMI
/// injection intensity.
pub fn miss_rate_under_smi(
    mode: SchedMode,
    smi_mean_interval_us: Option<u64>,
    util_limit_ppm: u64,
    seed: u64,
) -> f64 {
    miss_rate_under_smi_instrumented(mode, smi_mean_interval_us, util_limit_ppm, seed).0
}

/// [`miss_rate_under_smi`] plus the trial's simulated-event count.
pub fn miss_rate_under_smi_instrumented(
    mode: SchedMode,
    smi_mean_interval_us: Option<u64>,
    util_limit_ppm: u64,
    seed: u64,
) -> (f64, u64) {
    let freq = nautix_des::Freq::phi();
    let mut machine = MachineConfig::phi().with_cpus(2).with_seed(seed);
    if let Some(us) = smi_mean_interval_us {
        machine = machine.with_smi(SmiConfig {
            pattern: FaultPattern::Poisson {
                mean_interval: freq.us_to_cycles(us),
            },
            duration: Cost::new(freq.us_to_cycles(100), freq.us_to_cycles(20)),
        });
    }
    let mut cfg = NodeConfig::for_machine(machine);
    cfg.sched.mode = mode;
    cfg.sched.util_limit_ppm = util_limit_ppm;
    cfg.sched.sporadic_reserve_ppm = 0;
    cfg.sched.aperiodic_reserve_ppm = 0;
    let mut node = Node::new(cfg);
    // The thread requests a slice sized to the admissible limit minus a
    // small margin: the tighter the limit, the less slack absorbs SMIs.
    let period: Nanos = 1_000_000;
    let slice = period * (util_limit_ppm.saturating_sub(40_000)) / 1_000_000;
    let prog = constrained_loop(Constraints::periodic(period, slice).build(), 200_000);
    let tid = node.spawn_on(1, "probe", Box::new(prog)).unwrap();
    node.run_for_ns(300_000_000);
    let rate = node.thread_state(tid).stats.miss_rate();
    (rate, node.machine.events_processed())
}

/// Eager-vs-lazy rows: (smi interval µs or None, eager rate, lazy rate).
/// The eight underlying simulations are independent trials fanned across
/// worker threads.
pub fn eager_vs_lazy_with_stats(
    hc: &HarnessConfig,
    seed: u64,
) -> (Vec<(Option<u64>, f64, f64)>, HarnessStats) {
    let intervals = [None, Some(50_000u64), Some(10_000), Some(3_000)];
    let trials: Vec<(Option<u64>, SchedMode)> = intervals
        .iter()
        .flat_map(|&smi| [(smi, SchedMode::Eager), (smi, SchedMode::Lazy)])
        .collect();
    let set = run_trials(hc, trials, |&(smi, mode)| {
        miss_rate_under_smi_instrumented(mode, smi, 900_000, seed)
    });
    let rows = intervals
        .iter()
        .enumerate()
        .map(|(i, &smi)| (smi, set.results[2 * i], set.results[2 * i + 1]))
        .collect();
    (rows, set.stats)
}

/// Utilization-limit knob rows: (limit %, miss rate) under fixed SMI noise,
/// one independent trial per limit.
pub fn util_limit_knob_with_stats(
    hc: &HarnessConfig,
    seed: u64,
) -> (Vec<(u64, f64)>, HarnessStats) {
    let limits = vec![990_000u64, 950_000, 900_000, 800_000, 700_000];
    let set = run_trials(hc, limits.clone(), |&limit| {
        miss_rate_under_smi_instrumented(SchedMode::Eager, Some(5_000), limit, seed)
    });
    let rows = limits
        .iter()
        .zip(&set.results)
        .map(|(&limit, &rate)| (limit / 10_000, rate))
        .collect();
    (rows, set.stats)
}

/// Interrupt steering: jitter of an RT thread's dispatches with device
/// interrupts steered away (default partition) vs. onto its CPU.
pub fn steering_effect(steer_to_rt_cpu: bool, seed: u64) -> f64 {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(3).with_seed(seed);
    let mut node = Node::new(cfg);
    let stamps = node.observe(DispatchStamps::new(4096));
    if steer_to_rt_cpu {
        node.steer_irq(1, 1);
    } else {
        node.steer_irq(1, 0);
    }
    let prog = constrained_loop(Constraints::periodic(100_000, 30_000).build(), 100_000);
    let tid = node.spawn_on(1, "rt", Box::new(prog)).unwrap();
    // A chatty device: one interrupt every ~20 µs.
    for _ in 0..2000 {
        node.raise_device_irq(1);
        node.run_for_ns(20_000);
    }
    // Dispatch interval jitter (cycles) of the RT thread.
    let stamps = stamps.borrow();
    let times = stamps.times(tid);
    let freq = node.freq();
    let intervals: Vec<u64> = times
        .windows(2)
        .map(|w| freq.ns_to_cycles(w[1] - w[0]))
        .collect();
    nautix_des::Summary::of(&intervals).std_dev
}

/// Timer-mode wakeup precision: mean absolute error (cycles) between
/// consecutive dispatch intervals and the programmed period.
pub fn timer_mode_precision(mode: TimerMode, seed: u64) -> f64 {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi()
        .with_cpus(2)
        .with_seed(seed)
        .with_timer_mode(mode);
    let mut node = Node::new(cfg);
    let stamps = node.observe(DispatchStamps::new(4096));
    let period: Nanos = 50_000;
    let prog = constrained_loop(Constraints::periodic(period, 10_000).build(), 100_000);
    let tid = node.spawn_on(1, "rt", Box::new(prog)).unwrap();
    node.run_for_ns(100_000_000);
    let stamps = stamps.borrow();
    let times = stamps.times(tid);
    let freq = node.freq();
    let period_cycles = freq.ns_to_cycles(period) as f64;
    let errs: Vec<f64> = times
        .windows(2)
        .map(|w| (freq.ns_to_cycles(w[1] - w[0]) as f64 - period_cycles).abs())
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Timer-mode rows: `(mode label, mean absolute period error in cycles)`
/// for TSC-deadline timing and one-shot ticks of 26, 260 and 2600 cycles.
pub fn timer_modes(seed: u64) -> Vec<(&'static str, f64)> {
    [
        ("tsc_deadline", TimerMode::TscDeadline),
        ("oneshot_26c", TimerMode::OneShot { tick_cycles: 26 }),
        ("oneshot_260c", TimerMode::OneShot { tick_cycles: 260 }),
        ("oneshot_2600c", TimerMode::OneShot { tick_cycles: 2600 }),
    ]
    .map(|(name, mode)| (name, timer_mode_precision(mode, seed)))
    .to_vec()
}

/// Phase-correction rows: `(group size, corrected?, dispatch-spread
/// summary in cycles)` for groups of 8, 16 and 32 over 200 invocations,
/// each size with correction off then on (§4.4).
pub fn phase_correction(seed: u64) -> Vec<(usize, bool, Summary)> {
    [8usize, 16, 32]
        .iter()
        .flat_map(|&n| [false, true].map(|corrected| (n, corrected)))
        .map(|(n, corrected)| {
            let s = crate::groupsync::measure(n, 200, corrected, seed);
            (n, corrected, s.summary)
        })
        .collect()
}

/// Hard vs. soft real-time under overload (§7 contrasts this work with
/// the authors' earlier soft model): two threads each want 60% of one CPU.
/// Hard admission rejects one of them and the admitted one never misses;
/// the soft configuration admits both and each misses a large fraction.
/// Returns `(hard_admitted_missrate, hard_admitted_count, soft_missrates)`.
pub fn hard_vs_soft_overload(seed: u64) -> (f64, usize, Vec<f64>) {
    use nautix_hw::MachineConfig as MC;
    let run = |admission: bool| {
        let mut cfg = NodeConfig::for_machine(MC::phi().with_cpus(2).with_seed(seed));
        cfg.sched.admission_enabled = admission;
        cfg.sched.sporadic_reserve_ppm = 0;
        cfg.sched.aperiodic_reserve_ppm = 0;
        let mut node = Node::new(cfg);
        let admitted = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tids = Vec::new();
        for t in 0..2usize {
            let admitted2 = admitted.clone();
            let prog = FnProgram::new(move |cx, n| {
                if n == 0 {
                    Action::Call(SysCall::ChangeConstraints(
                        Constraints::periodic(1_000_000, 600_000).build(),
                    ))
                } else {
                    if n == 1 {
                        admitted2
                            .borrow_mut()
                            .push((t, cx.result == nautix_kernel::SysResult::Admission(Ok(()))));
                    }
                    Action::Compute(200_000)
                }
            });
            tids.push(node.spawn_on(1, &format!("t{t}"), Box::new(prog)).unwrap());
        }
        node.run_for_ns(200_000_000);
        let rates: Vec<f64> = tids
            .iter()
            .map(|&t| node.thread_state(t).stats.miss_rate())
            .collect();
        let flags = admitted.borrow().clone();
        drop(node);
        (rates, flags)
    };
    let (hard_rates, hard_flags) = run(true);
    let (soft_rates, _) = run(false);
    let admitted_count = hard_flags.iter().filter(|&&(_, ok)| ok).count();
    let admitted_rate = hard_flags
        .iter()
        .find(|&&(_, ok)| ok)
        .map(|&(t, _)| hard_rates[t])
        .unwrap_or(f64::NAN);
    (admitted_rate, admitted_count, soft_rates)
}

/// What one scheduling scheme cost on the cyclic-vs-EDF task set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeCounts {
    /// Deadlines missed.
    pub missed: u64,
    /// Timer interrupts taken on the hosting CPU.
    pub timer_interrupts: u64,
    /// Context switches on the hosting CPU.
    pub context_switches: u64,
}

/// The periodic set both schemes run: 15% + 20% + 7.5% of one CPU.
const CYCLIC_SET: [CyclicTask; 3] = [
    CyclicTask {
        period: 100_000,
        wcet: 15_000,
    },
    CyclicTask {
        period: 200_000,
        wcet: 40_000,
    },
    CyclicTask {
        period: 400_000,
        wcet: 30_000,
    },
];

/// Online eager EDF vs. a statically compiled cyclic executive on the same
/// periodic set for `horizon_ns` (§8 future work, implemented). Returns
/// `(edf, cyclic)`. Both meet every deadline; the executive's interrupt
/// count is fixed by construction (one per minor frame, scheduling decided
/// offline), while EDF's depends on how arrivals and slice ends coalesce.
pub fn cyclic_vs_edf(horizon_ns: Nanos, seed: u64) -> (SchemeCounts, SchemeCounts) {
    let node = || {
        let mut cfg = NodeConfig::phi();
        cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(seed);
        cfg.sched = SchedConfig::throughput();
        Node::new(cfg)
    };
    let counts = |node: &Node, missed: u64| {
        let st = &node.scheduler(1).stats;
        SchemeCounts {
            missed,
            timer_interrupts: st.timer_invocations,
            context_switches: st.switches,
        }
    };

    // The set as three independent EDF threads on one CPU.
    let mut edf = node();
    let tids: Vec<_> = CYCLIC_SET
        .iter()
        .map(|&t| {
            let requested = Constraints::periodic(t.period, t.wcet).build();
            let prog = constrained_loop(requested, 1_000_000);
            edf.spawn_on(1, "edf", Box::new(prog)).unwrap()
        })
        .collect();
    edf.run_for_ns(horizon_ns);
    let edf_missed = tids.iter().map(|&t| edf.thread_state(t).stats.missed).sum();

    // The same set as one thread hosting the compiled executive.
    let schedule = compile_cyclic(&CYCLIC_SET).unwrap();
    schedule.verify().unwrap();
    let mut cyc = node();
    let hosting = schedule.hosting_constraints(10_000);
    let major_cycles = (horizon_ns / schedule.hyperperiod) as usize;
    let mut exec = Some(CyclicExecutive::new(schedule, cyc.freq(), major_cycles));
    let mut inner: Option<CyclicExecutive> = None;
    let prog = FnProgram::new(move |cx, n| {
        if n == 0 {
            return Action::Call(SysCall::ChangeConstraints(hosting));
        }
        if n == 1 {
            assert_eq!(cx.result, SysResult::Admission(Ok(())));
            inner = exec.take();
        }
        inner.as_mut().unwrap().resume(cx)
    });
    let tid = cyc.spawn_on(1, "cyclic", Box::new(prog)).unwrap();
    cyc.run_until_quiescent();
    let cyc_missed = cyc.thread_state(tid).stats.missed;

    (counts(&edf, edf_missed), counts(&cyc, cyc_missed))
}

/// Admission-policy comparison on a fixed constraint menu. Returns rows of
/// `(label, edf, rm, hyperperiod)` acceptance.
pub fn admission_policy_matrix() -> Vec<(&'static str, bool, bool, bool)> {
    let menu: Vec<(&'static str, Vec<Constraints>)> = vec![
        (
            "two_large_tasks_77pct",
            vec![
                Constraints::periodic(100_000, 47_000).build(),
                Constraints::periodic(100_000, 30_000).build(),
            ],
        ),
        (
            "three_tasks_78pct",
            vec![
                Constraints::periodic(100_000, 30_000).build(),
                Constraints::periodic(100_000, 30_000).build(),
                Constraints::periodic(100_000, 18_000).build(),
            ],
        ),
        (
            "fine_grain_50pct_at_10us",
            vec![Constraints::periodic(10_000, 5_000).build()],
        ),
        (
            "coarse_50pct_at_1ms",
            vec![Constraints::periodic(1_000_000, 500_000).build()],
        ),
    ];
    let policies = [
        AdmissionPolicy::EdfBound,
        AdmissionPolicy::RmBound,
        AdmissionPolicy::HyperperiodSim {
            overhead_ns: 9_200, // two Phi interrupts
            window_cap_ns: 1_000_000_000,
        },
    ];
    menu.into_iter()
        .map(|(label, set)| {
            let mut accepted = [true; 3];
            for (i, policy) in policies.iter().enumerate() {
                let cfg = SchedConfig {
                    policy: *policy,
                    ..SchedConfig::default()
                };
                let mut load = CpuLoad::new();
                for c in &set {
                    if load.admit(&cfg, c).is_err() {
                        accepted[i] = false;
                        break;
                    }
                }
            }
            (label, accepted[0], accepted[1], accepted[2])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_beats_lazy_under_smi() {
        let (rows, _) = eager_vs_lazy_with_stats(&HarnessConfig::serial(), 31);
        // Without SMIs both modes meet everything.
        let (none, eager0, lazy0) = rows[0];
        assert_eq!(none, None);
        assert!(eager0 < 0.02, "eager clean rate {eager0}");
        assert!(lazy0 < 0.05, "lazy clean rate {lazy0}");
        // With aggressive SMIs, lazy misses much more.
        let (_, eager_hot, lazy_hot) = rows[3];
        assert!(
            lazy_hot > eager_hot + 0.05,
            "lazy {lazy_hot} must miss more than eager {eager_hot}"
        );
    }

    #[test]
    fn lower_utilization_limit_absorbs_more_smi_noise() {
        let (rows, _) = util_limit_knob_with_stats(&HarnessConfig::serial(), 31);
        let at99 = rows[0].1;
        let at70 = rows.last().unwrap().1;
        assert!(
            at70 < at99,
            "a 70% limit ({at70}) should miss less than 99% ({at99})"
        );
    }

    #[test]
    fn steering_interrupts_at_the_rt_cpu_adds_jitter() {
        let away = steering_effect(false, 13);
        let onto = steering_effect(true, 13);
        assert!(
            onto > away,
            "device interrupts on the RT CPU must add jitter ({onto} vs {away})"
        );
    }

    #[test]
    fn tsc_deadline_is_more_precise_than_coarse_ticks() {
        let coarse = timer_mode_precision(TimerMode::OneShot { tick_cycles: 2600 }, 13);
        let exact = timer_mode_precision(TimerMode::TscDeadline, 13);
        assert!(
            exact < coarse,
            "TSC deadline ({exact}) should beat a 2 µs tick ({coarse})"
        );
    }

    #[test]
    fn hard_admission_protects_but_soft_overload_degrades_everyone() {
        let (admitted_rate, admitted_count, soft_rates) = hard_vs_soft_overload(47);
        assert_eq!(admitted_count, 1, "hard admission accepts exactly one");
        assert_eq!(
            admitted_rate, 0.0,
            "the admitted hard-RT thread never misses"
        );
        assert!(
            soft_rates.iter().any(|&r| r > 0.25),
            "soft overload must show heavy misses: {soft_rates:?}"
        );
    }

    #[test]
    fn the_executive_takes_one_interrupt_per_frame_and_neither_scheme_misses() {
        let (edf, cyclic) = cyclic_vs_edf(100_000_000, 77);
        assert_eq!((edf.missed, cyclic.missed), (0, 0));
        // 100 ms of 100 µs minor frames.
        assert_eq!(cyclic.timer_interrupts, 1000);
        assert!(edf.timer_interrupts > cyclic.timer_interrupts);
    }

    #[test]
    fn policies_disagree_exactly_where_expected() {
        let rows = admission_policy_matrix();
        let get = |label: &str| rows.iter().find(|r| r.0 == label).copied().unwrap();
        // 77%: under both EDF budget (79%) and 2-task RM bound (82.8%).
        assert_eq!(
            get("two_large_tasks_77pct"),
            ("two_large_tasks_77pct", true, true, true)
        );
        // 78% with 3 tasks: over the 3-task RM bound (~78.0%), under EDF.
        let r = get("three_tasks_78pct");
        assert!(r.1, "EDF accepts 78%");
        assert!(!r.2, "RM rejects 78% with 3 tasks");
        // 50% at 10 µs: bounds accept, the overhead-aware simulation must
        // reject (overhead eats the period).
        let r = get("fine_grain_50pct_at_10us");
        assert!(r.1 && r.2);
        assert!(!r.3, "hyperperiod simulation must reject 10 µs / 50%");
        // The same 50% at 1 ms is fine for everyone.
        assert_eq!(
            get("coarse_50pct_at_1ms"),
            ("coarse_50pct_at_1ms", true, true, true)
        );
    }
}

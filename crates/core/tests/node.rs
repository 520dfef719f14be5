//! Whole-node integration tests: boot, threads, admission, real-time
//! execution, groups, stealing, tasks, and interrupt steering.

use nautix_hw::{Cost, FaultPattern, MachineConfig, SmiConfig};
use nautix_kernel::{Action, Constraints, FnProgram, IdleLoop, Script, SysCall, SysResult};
use nautix_rt::{
    AdmissionError, AdmissionRequest, LayerTable, Node, NodeConfig, SchedConfig, SchedMode,
};

fn small_node(cpus: usize) -> Node {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(cpus).with_seed(1234);
    Node::new(cfg)
}

#[test]
fn boots_and_is_quiescent_without_threads() {
    let mut node = small_node(4);
    node.run_until_quiescent();
    assert_eq!(node.live_programs(), 0);
}

#[test]
fn runs_a_simple_compute_program_to_exit() {
    let mut node = small_node(2);
    let tid = node
        .spawn_on(
            1,
            "worker",
            Box::new(Script::new(vec![
                Action::Compute(10_000),
                Action::Compute(5_000),
            ])),
        )
        .unwrap();
    node.run_until_quiescent();
    assert_eq!(node.live_programs(), 0);
    assert!(node.thread_state(tid).stats.executed_cycles >= 15_000);
}

#[test]
fn sleep_delays_execution() {
    let mut node = small_node(2);
    let tid = node
        .spawn_on(
            1,
            "sleeper",
            Box::new(Script::new(vec![
                Action::Call(SysCall::SleepNs(1_000_000)), // 1 ms
                Action::Compute(1_000),
            ])),
        )
        .unwrap();
    node.run_until_quiescent();
    let _ = tid;
    // 1 ms at 1.3 GHz is 1.3M cycles; the machine must have advanced past it.
    assert!(node.machine.now() > 1_300_000);
}

#[test]
fn change_constraints_result_is_delivered() {
    let mut node = small_node(2);
    let mut results = Vec::new();
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log2 = log.clone();
    let prog = FnProgram::new(move |cx, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(
            Constraints::periodic(1_000_000, 100_000).build(),
        )),
        1 => {
            log2.borrow_mut().push(cx.result);
            Action::Compute(1_000)
        }
        _ => Action::Exit,
    });
    node.spawn_on(1, "rt", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    results.extend(log.borrow().iter().copied());
    assert_eq!(results, vec![SysResult::Admission(Ok(()))]);
}

#[test]
fn infeasible_constraints_are_rejected() {
    let mut node = small_node(2);
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log2 = log.clone();
    let prog = FnProgram::new(move |cx, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(
            Constraints::periodic(
                100_000, 95_000, // 95% > the 79% periodic budget
            )
            .build(),
        )),
        1 => {
            log2.borrow_mut().push(cx.result);
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.spawn_on(1, "greedy", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    assert_eq!(
        log.borrow()[0],
        SysResult::Admission(Err(AdmissionError::UtilizationExceeded))
    );
}

#[test]
fn periodic_thread_meets_feasible_deadlines() {
    let mut node = small_node(2);
    // 1 ms period, 200 us slice; run ~60 ms of virtual time, computing
    // forever so every job's slice is exercised.
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(1_000_000, 200_000).build(),
            ))
        } else {
            Action::Compute(50_000)
        }
    });
    let tid = node.spawn_on(1, "rt", Box::new(prog)).unwrap();
    node.run_for_ns(60_000_000);
    let st = node.thread_state(tid);
    assert!(st.stats.arrivals >= 50, "arrivals={}", st.stats.arrivals);
    assert_eq!(st.stats.missed, 0, "feasible constraints must never miss");
    assert!(st.stats.met >= 50);
}

#[test]
fn infeasible_period_misses_with_admission_disabled() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(7);
    cfg.sched.admission_enabled = false;
    cfg.sched.min_period_ns = 1_000;
    let mut node = Node::new(cfg);
    // 8 us period with a 7 us slice: overhead (~4.6 us/interrupt) makes
    // this hopeless on the Phi (Figure 6's infeasible region).
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(8_000, 7_000).build(),
            ))
        } else {
            Action::Compute(50_000)
        }
    });
    let tid = node.spawn_on(1, "doomed", Box::new(prog)).unwrap();
    node.run_for_ns(20_000_000);
    let st = node.thread_state(tid);
    assert!(st.stats.arrivals > 100);
    assert!(
        st.stats.miss_rate() > 0.9,
        "miss rate {} should be ~1 in the infeasible region",
        st.stats.miss_rate()
    );
    // Miss times stay small relative to the period (Figure 8).
    let mt = st.stats.miss_time_summary();
    assert!(mt.mean < 20_000.0, "mean miss time {} ns", mt.mean);
}

#[test]
fn group_admission_gang_schedules_and_phase_corrects() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(9).with_seed(5);
    let mut node = Node::new(cfg);
    let stamps = node.observe(nautix_rt::DispatchStamps::new(64));
    let ga = node.observe(nautix_rt::GaTimings::default());
    let gid = nautix_kernel::GroupId(0);
    let mut tids = Vec::new();
    for cpu in 1..9 {
        // The creator has one extra leading step; `k` is the common index.
        let prog = FnProgram::new(move |cx, n| {
            let k = if cpu == 1 { n } else { n + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "gang" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                // Everyone sleeps past the join traffic so membership is
                // settled before admission begins (as in the paper: all
                // threads join, then the group changes constraints).
                2 => Action::Call(SysCall::SleepNs(500_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::Periodic {
                        phase: 100_000,
                        period: 1_000_000,
                        slice: 300_000,
                    },
                }),
                4 => {
                    assert_eq!(cx.result, SysResult::Admission(Ok(())));
                    Action::Compute(100_000)
                }
                k if k < 21 => Action::Compute(100_000),
                _ => Action::Exit,
            }
        });
        tids.push(
            node.spawn_on(cpu, &format!("g{cpu}"), Box::new(prog))
                .unwrap(),
        );
    }
    node.run_for_ns(60_000_000);
    node.run_until_quiescent();
    // Every member got RT dispatches; compare dispatch times after the
    // last member finished admission (the gang-scheduled regime).
    let ga = ga.borrow();
    let t_admitted = ga.admissions().iter().map(|t| t.t_done).max().unwrap();
    let stamps = stamps.borrow();
    let mut logs: Vec<Vec<u64>> = Vec::new();
    for &t in &tids {
        let filtered: Vec<u64> = stamps
            .times(t)
            .iter()
            .copied()
            .filter(|&x| x > t_admitted)
            .collect();
        assert!(filtered.len() >= 3, "each member must run gang-scheduled");
        logs.push(filtered);
    }
    let refs: Vec<&[u64]> = logs.iter().map(Vec::as_slice).collect();
    let spreads = nautix_rt::dispatch_spreads(&refs);
    for &s in &spreads {
        assert!(
            s < 20_000,
            "gang dispatch spread {s} ns is too wide for lock-step execution"
        );
    }
    assert_eq!(ga.admissions().len(), 8, "one timing record per member");
    assert_eq!(ga.joins().len(), 8, "one join per member");
    for t in ga.admissions() {
        assert!(t.t_elect >= t.t_call);
        assert!(t.t_reduce >= t.t_elect);
        assert!(t.t_done >= t.t_reduce);
        assert_eq!(t.n, 8);
    }
}

#[test]
fn group_admission_fails_atomically_when_one_cpu_is_full() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(5).with_seed(5);
    // Pin the load shape: stealing could migrate the queued squatter to an
    // idle CPU and change which local admission fails.
    cfg.sched.work_stealing = false;
    let mut node = Node::new(cfg);
    let gid = nautix_kernel::GroupId(0);
    // A squatter occupies most of CPU 2's RT budget.
    let squatter = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(1_000_000, 700_000).build(),
            ))
        } else {
            Action::Compute(1_000_000)
        }
    });
    node.spawn_on(2, "squatter", Box::new(squatter)).unwrap();
    let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut tids = Vec::new();
    for cpu in 1..5 {
        let results2 = results.clone();
        let prog = FnProgram::new(move |cx, n| {
            let k = if cpu == 1 { n } else { n + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "gang" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(500_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    // 40%: fits everywhere except the squatter's CPU.
                    constraints: Constraints::periodic(1_000_000, 400_000).build(),
                }),
                4 => {
                    results2.borrow_mut().push(cx.result);
                    Action::Exit
                }
                _ => Action::Exit,
            }
        });
        tids.push(
            node.spawn_on(cpu, &format!("g{cpu}"), Box::new(prog))
                .unwrap(),
        );
    }
    node.run_for_ns(50_000_000);
    let rs = results.borrow();
    assert_eq!(rs.len(), 4, "all members must get an answer");
    for r in rs.iter() {
        assert_eq!(
            *r,
            SysResult::Admission(Err(AdmissionError::GroupMemberRejected)),
            "group admission must fail for every member"
        );
    }
    // The members fell back to aperiodic and none hold RT constraints.
    for &t in &tids {
        assert!(!node.thread_state(t).is_rt());
    }
}

#[test]
fn work_stealing_migrates_aperiodic_threads() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(4).with_seed(3);
    let mut node = Node::new(cfg);
    // Pile several compute-bound, *unbound* threads on CPU 1.
    for i in 0..6 {
        node.spawn_unbound(
            1,
            &format!("w{i}"),
            Box::new(Script::new(vec![
                Action::Compute(50_000_000), // ~38 ms each
            ])),
        )
        .unwrap();
    }
    node.run_until_quiescent();
    let steals: u64 = (0..4).map(|c| node.scheduler(c).stats.steals).sum();
    assert!(steals > 0, "idle CPUs should have stolen work");
    // Stolen threads really executed elsewhere: some thread's final CPU
    // differs from 1 — visible through steal counts on other CPUs.
    assert!((0..4)
        .filter(|&c| c != 1)
        .any(|c| node.scheduler(c).stats.steals > 0));
}

#[test]
fn bound_threads_are_never_stolen_even_with_backlog() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(4).with_seed(3);
    let mut node = Node::new(cfg);
    // Six *bound* compute threads piled on CPU 1: backlog exists, but
    // bound threads must not migrate.
    for i in 0..6 {
        node.spawn_on(
            1,
            &format!("b{i}"),
            Box::new(Script::new(vec![Action::Compute(5_000_000)])),
        )
        .unwrap();
    }
    node.run_until_quiescent();
    let steals: u64 = (0..4).map(|c| node.scheduler(c).stats.steals).sum();
    assert_eq!(steals, 0, "bound threads migrated");
}

#[test]
fn rt_threads_are_never_stolen() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(3).with_seed(3);
    let mut node = Node::new(cfg);
    let prog = FnProgram::new(move |_cx, n| {
        if n == 0 {
            Action::Call(SysCall::ChangeConstraints(
                Constraints::periodic(1_000_000, 500_000).build(),
            ))
        } else if n < 20 {
            Action::Compute(400_000)
        } else {
            Action::Exit
        }
    });
    let tid = node.spawn_on(1, "rt", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    // The RT thread must have stayed on CPU 1 (dispatches only there).
    assert_eq!(node.thread_state(tid).stats.missed, 0);
    assert_eq!(node.scheduler(0).stats.steals, 0);
    assert_eq!(node.scheduler(2).stats.steals, 0);
}

#[test]
fn sized_tasks_run_inline_and_unsized_via_idle() {
    let mut node = small_node(2);
    let prog = FnProgram::new(move |_cx, n| match n {
        0 => Action::Call(SysCall::TaskSpawn {
            size: Some(5_000),
            work: 5_000,
        }),
        1 => Action::Call(SysCall::TaskSpawn {
            size: None,
            work: 10_000,
        }),
        2 => Action::Compute(1_000),
        _ => Action::Exit,
    });
    node.spawn_on(1, "spawner", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    let t = node.tasks(1);
    assert_eq!(t.inline_completed, 1, "sized task must run inline");
    assert_eq!(t.helper_completed, 1, "unsized task must run via idle");
    assert!(t.is_empty());
}

#[test]
fn smi_injection_causes_misses_in_lazy_mode_but_not_eager() {
    let run = |mode: SchedMode| {
        let mut cfg = NodeConfig::phi();
        cfg.machine = MachineConfig::phi()
            .with_cpus(2)
            .with_seed(11)
            .with_smi(SmiConfig {
                pattern: FaultPattern::Poisson {
                    mean_interval: 13_000_000, // ~every 10 ms
                },
                duration: Cost::new(130_000, 26_000), // ~100 us stalls
            });
        cfg.sched.mode = mode;
        let mut node = Node::new(cfg);
        let prog = FnProgram::new(move |_cx, n| {
            if n == 0 {
                Action::Call(SysCall::ChangeConstraints(
                    Constraints::periodic(
                        1_000_000, 300_000, // 30%: plenty of slack
                    )
                    .build(),
                ))
            } else {
                Action::Compute(250_000)
            }
        });
        let tid = node.spawn_on(1, "rt", Box::new(prog)).unwrap();
        node.run_for_ns(400_000_000); // 0.4 s
        let st = node.thread_state(tid);
        assert!(node.machine.smi_stats().count > 10, "SMIs must have fired");
        (st.stats.miss_rate(), st.stats.arrivals)
    };
    let (eager_rate, eager_arrivals) = run(SchedMode::Eager);
    let (lazy_rate, _) = run(SchedMode::Lazy);
    assert!(eager_arrivals > 300);
    assert!(
        eager_rate < 0.02,
        "eager scheduling should absorb SMIs (rate {eager_rate})"
    );
    assert!(
        lazy_rate > eager_rate,
        "lazy ({lazy_rate}) must miss more than eager ({eager_rate}) under SMIs"
    );
}

#[test]
fn device_interrupts_stay_in_the_laden_partition() {
    let mut node = small_node(4);
    for _ in 0..20 {
        node.raise_device_irq(5);
        node.run_for_ns(100_000);
    }
    node.run_until_quiescent();
    assert_eq!(
        node.device_irqs_handled[0], 20,
        "default partition is CPU 0"
    );
    for c in 1..4 {
        assert_eq!(node.device_irqs_handled[c], 0, "CPU {c} is interrupt-free");
    }
}

#[test]
fn node_runs_are_deterministic() {
    let run = || {
        let mut node = small_node(3);
        for cpu in 1..3 {
            let prog = FnProgram::new(move |_cx, n| {
                if n == 0 {
                    Action::Call(SysCall::ChangeConstraints(
                        Constraints::periodic(500_000, 100_000).build(),
                    ))
                } else if n < 50 {
                    Action::Compute(90_000)
                } else {
                    Action::Exit
                }
            });
            node.spawn_on(cpu, "d", Box::new(prog)).unwrap();
        }
        node.run_until_quiescent();
        (
            node.machine.now(),
            node.machine.events_processed(),
            (1..3)
                .map(|c| node.scheduler(c).stats.invocations)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// "Tracing never perturbs the simulation": the same seeded workload —
/// periodic threads, a stealable aperiodic pile, sized and unsized tasks —
/// with and without the oracles armed processes the same events and counts
/// the same everything.
#[test]
fn arming_oracles_does_not_perturb_the_run() {
    let run = |armed: bool| {
        let mut node = small_node(4);
        if armed {
            node.enable_oracles();
        }
        for cpu in 1..3 {
            let prog = FnProgram::new(move |_cx, n| match n {
                0 => Action::Call(SysCall::ChangeConstraints(
                    Constraints::periodic(500_000, 100_000).build(),
                )),
                1 => Action::Call(SysCall::TaskSpawn {
                    size: Some(5_000),
                    work: 5_000,
                }),
                2 => Action::Call(SysCall::TaskSpawn {
                    size: None,
                    work: 10_000,
                }),
                n if n < 50 => Action::Compute(90_000),
                _ => Action::Exit,
            });
            node.spawn_on(cpu, "rt", Box::new(prog)).unwrap();
        }
        for i in 0..6 {
            let pile = Script::new(vec![Action::Compute(5_000_000)]);
            node.spawn_unbound(1, &format!("w{i}"), Box::new(pile))
                .unwrap();
        }
        node.run_until_quiescent();
        let records = node.oracles().map(|o| o.borrow().stats().records);
        (
            node.machine.events_processed(),
            node.stats_snapshot(),
            records,
        )
    };
    let (events, snapshot, records) = run(true);
    assert!(records.unwrap() > 0, "the armed run must have recorded");
    assert!(snapshot.met > 0 && snapshot.steals > 0 && snapshot.inline_tasks > 0);
    let (plain_events, plain_snapshot, _) = run(false);
    assert_eq!(events, plain_events);
    assert_eq!(snapshot, plain_snapshot);
}

/// A two-CPU node with one idle slot thread per CPU for a team, and one
/// more per CPU to hold background load.
fn team_node(sched: SchedConfig) -> (Node, [usize; 2], [usize; 2]) {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(1234);
    cfg.sched = sched;
    let mut node = Node::new(cfg);
    let spawn = |node: &mut Node, cpu| {
        node.spawn_on(cpu, "slot", Box::new(IdleLoop::new(1)))
            .unwrap()
    };
    let team = [spawn(&mut node, 0), spawn(&mut node, 1)];
    let load = [spawn(&mut node, 0), spawn(&mut node, 1)];
    (node, team, load)
}

fn hold(node: &mut Node, tid: usize, c: Constraints) {
    let held = node.admit(AdmissionRequest::thread(tid).constraints(c));
    assert!(held.is_admitted(), "{held:?}");
}

/// A team whose last (fullest) seat is over the periodic budget is
/// refused with `UtilizationExceeded`, leaving every ledger as it was,
/// and `SchedConfig::refuses_team_over_budget` reads that verdict off the
/// fullest seat alone.
#[test]
fn a_team_over_budget_at_its_last_seat_is_refused() {
    let sched = SchedConfig::default();
    let (mut node, team, load) = team_node(sched);
    hold(
        &mut node,
        load[1],
        Constraints::periodic(1_000_000, 700_000).build(),
    );
    let c = Constraints::periodic(1_000_000, 150_000).build();
    let ledgers = |node: &Node| [0, 1].map(|cpu| node.scheduler(cpu).load.periodic_util_ppm());
    assert_eq!(ledgers(&node), [0, 700_000]);
    assert!(!sched.refuses_team_over_budget(&c, 0));
    assert!(sched.refuses_team_over_budget(&c, 700_000));

    let out = node.admit(AdmissionRequest::team(team).constraints(c));
    assert_eq!(out.error(), Some(AdmissionError::UtilizationExceeded));
    assert_eq!(
        ledgers(&node),
        [0, 700_000],
        "the first seat was rolled back"
    );
}

/// Where the layer gate binds below the budget, an earlier seat can fail
/// it first, so the fullest seat no longer decides the error: the
/// shortcut stands aside and the transaction says `LayerOvercommit`.
#[test]
fn a_binding_layer_gate_keeps_the_team_transaction() {
    // One layer for every class, guaranteeing less than the periodic
    // budget plus the sporadic reservation (790k + 100k ppm).
    let sched = SchedConfig {
        layers: LayerTable::single(800_000, 0, 10_000_000).unwrap(),
        ..SchedConfig::default()
    };
    let (mut node, team, load) = team_node(sched);
    // Seat 0: 600k periodic + 100k sporadic; seat 1: 700k periodic.
    hold(
        &mut node,
        load[0],
        Constraints::periodic(1_000_000, 600_000).build(),
    );
    let sporadic = node
        .spawn_on(0, "burst", Box::new(IdleLoop::new(1)))
        .unwrap();
    hold(
        &mut node,
        sporadic,
        Constraints::sporadic(100_000, 1_000_000).build(),
    );
    hold(
        &mut node,
        load[1],
        Constraints::periodic(1_000_000, 700_000).build(),
    );

    let c = Constraints::periodic(1_000_000, 150_000).build();
    assert!(!sched.refuses_team_over_budget(&c, 700_000));
    let out = node.admit(AdmissionRequest::team(team).constraints(c));
    assert_eq!(out.error(), Some(AdmissionError::LayerOvercommit));
}

//! Cross-crate integration tests through the `nautix` facade: the whole
//! stack — DES engine, machine model, kernel, groups, scheduler, BSP —
//! exercised together.

use nautix::bsp::{run_bsp, BspMode, BspParams};
use nautix::kernel::{FnProgram, GroupId, Script, SysResult};
use nautix::prelude::*;
use nautix::rt::SchedConfig;

fn small(cpus: usize, seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(cpus).with_seed(seed);
    cfg
}

#[test]
fn facade_reexports_compose() {
    // Types from every layer are usable together through the prelude.
    let mut node = Node::new(small(2, 1));
    let tid = node
        .spawn_on(1, "t", Box::new(Script::new(vec![Action::Compute(1000)])))
        .unwrap();
    node.run_until_quiescent();
    assert!(node.thread_state(tid).stats.executed_cycles >= 1000);
}

#[test]
fn sporadic_burst_end_to_end() {
    let mut node = Node::new(small(2, 2));
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log2 = log.clone();
    let prog = FnProgram::new(move |cx, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(
            Constraints::sporadic(50_000, 500_000).build(),
        )),
        1 => {
            log2.borrow_mut().push(cx.result);
            Action::Compute(65_000) // the burst
        }
        2 => Action::Compute(10_000), // now aperiodic
        _ => Action::Exit,
    });
    let tid = node.spawn_on(1, "burst", Box::new(prog)).unwrap();
    node.run_until_quiescent();
    assert_eq!(log.borrow()[0], SysResult::Admission(Ok(())));
    let st = node.thread_state(tid);
    assert_eq!(st.stats.met, 1, "the sporadic burst must meet its deadline");
    assert!(!st.is_rt(), "after the burst the thread is aperiodic");
}

#[test]
fn two_gangs_share_the_node() {
    // Two independent real-time gangs with different periods coexist,
    // each meeting its own constraints.
    let mut cfg = small(9, 3);
    cfg.sched = SchedConfig::throughput();
    let mut node = Node::new(cfg);
    let mut tids = Vec::new();
    for g in 0..2usize {
        let gid = GroupId(g as u32);
        let period = [500_000u64, 1_000_000][g];
        let slice = period / 5;
        for i in 0..4usize {
            let prog = FnProgram::new(move |_cx, step| {
                let k = if i == 0 { step } else { step + 1 };
                match k {
                    0 => Action::Call(SysCall::GroupCreate {
                        name: if g == 0 { "gang-a" } else { "gang-b" },
                    }),
                    1 => Action::Call(SysCall::GroupJoin(gid)),
                    2 => Action::Call(SysCall::SleepNs(2_000_000)),
                    3 => Action::Call(SysCall::GroupChangeConstraints {
                        group: gid,
                        constraints: Constraints::periodic(period, slice).build(),
                    }),
                    _ => Action::Compute(80_000),
                }
            });
            let cpu = 1 + g * 4 + i;
            tids.push(
                node.spawn_on(cpu, &format!("g{g}t{i}"), Box::new(prog))
                    .unwrap(),
            );
        }
    }
    node.run_for_ns(50_000_000);
    for &t in &tids {
        let st = node.thread_state(t);
        assert!(st.is_rt(), "every member admitted");
        assert!(st.stats.arrivals > 20);
        assert_eq!(st.stats.missed, 0, "no gang member may miss");
    }
}

#[test]
fn bsp_through_the_facade() {
    let mut cfg = small(5, 4);
    cfg.sched = SchedConfig::throughput();
    let r = run_bsp(
        cfg,
        BspParams::fine(4, 20).with_mode(BspMode::RtGroup {
            period: 1_000_000,
            slice: 600_000,
        }),
    );
    assert!(r.admitted);
    assert_eq!(r.violations(), 0);
    assert!(r.max_ns > 0);
}

#[test]
fn smi_missing_time_is_visible_in_wall_clock() {
    use nautix::hw::{Cost, FaultPattern, SmiConfig};
    let mut cfg = small(2, 5);
    cfg.machine = cfg.machine.with_smi(SmiConfig {
        pattern: FaultPattern::Periodic {
            interval: 1_300_000, // every ~1 ms
        },
        duration: Cost::fixed(130_000), // 100 µs stalls
    });
    let mut node = Node::new(cfg);
    let tid = node
        .spawn_on(
            1,
            "w",
            Box::new(Script::new(vec![Action::Compute(13_000_000)])),
        )
        .unwrap();
    node.run_until_quiescent();
    // 10 ms of work stretched by ~10 SMIs of 100 µs each: wall clock shows
    // at least ~0.8 ms of missing time.
    let wall = node.machine.now();
    assert!(
        wall > 13_000_000 + 800_000,
        "missing time absent: wall {wall}"
    );
    assert!(node.machine.smi_stats().count >= 8);
    let _ = tid;
}

/// The full stack under the pooled trial harness: the same RT workload
/// fanned over seeds via `run_trials_pooled` (worker-local `NodePool`s
/// reusing nodes through `Node::reset`) must be green — every deadline
/// met — and byte-equal to fresh-node runs of the same seeds.
#[test]
fn full_stack_is_green_under_the_pooled_harness() {
    use nautix_bench::harness::run_trials_pooled;

    fn trial(node: &mut Node) -> (u64, u64, u64) {
        let mut tids = Vec::new();
        for cpu in 1..3 {
            let prog = FnProgram::new(move |_cx, n| {
                if n == 0 {
                    Action::Call(SysCall::ChangeConstraints(
                        Constraints::periodic(200_000, 50_000).build(),
                    ))
                } else if n < 40 {
                    Action::Compute(30_000)
                } else {
                    Action::Exit
                }
            });
            tids.push(node.spawn_on(cpu, "p", Box::new(prog)).unwrap());
        }
        node.run_until_quiescent();
        let missed = tids
            .iter()
            .map(|&t| node.thread_state(t).stats.missed)
            .sum();
        (node.machine.now(), node.machine.events_processed(), missed)
    }

    let seeds: Vec<u64> = (100..112).collect();
    let hc = nautix_rt::HarnessConfig::with_threads(4);
    let pooled = run_trials_pooled(&hc, seeds.clone(), |pool, &seed| {
        let node = pool.node(small(3, seed));
        let r = trial(node);
        (r, r.1)
    });
    assert_eq!(pooled.results.len(), seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let fresh = trial(&mut Node::new(small(3, seed)));
        assert_eq!(
            pooled.results[i], fresh,
            "pooled node diverged from a fresh node on seed {seed}"
        );
        assert_eq!(pooled.results[i].2, 0, "deadline missed under seed {seed}");
    }
    assert_eq!(
        pooled.stats.events,
        pooled.results.iter().map(|r| r.1).sum::<u64>(),
        "harness event accounting must match the trials"
    );
}

#[test]
fn seeds_differ_but_each_is_reproducible() {
    let run = |seed: u64| {
        let mut node = Node::new(small(3, seed));
        for cpu in 1..3 {
            let prog = FnProgram::new(move |_cx, n| {
                if n == 0 {
                    Action::Call(SysCall::ChangeConstraints(
                        Constraints::periodic(200_000, 50_000).build(),
                    ))
                } else if n < 40 {
                    Action::Compute(30_000)
                } else {
                    Action::Exit
                }
            });
            node.spawn_on(cpu, "p", Box::new(prog)).unwrap();
        }
        node.run_until_quiescent();
        (node.machine.now(), node.machine.events_processed())
    };
    assert_eq!(run(1234), run(1234), "identical seeds, identical runs");
    assert_ne!(run(1234), run(4321), "different seeds, different noise");
}

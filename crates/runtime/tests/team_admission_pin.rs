//! Byte-level pin of the `GroupAdmitTeam` rendezvous — the path this
//! crate's teams take into the scheduler, which no CSV or replay pin
//! exercises (they all use `GroupChangeConstraints` or plain barriers).
//!
//! Three 8-worker teams share CPUs 1..=8 of one node with a solo periodic
//! thread on CPU 7: the first is admitted; the second arrives while the
//! first is live and is rejected as over-utilised on CPU 7 — its last slot
//! but one, so the all-or-nothing transaction has seven members to unwind;
//! the third arrives after the first has exited and is admitted. The event count, the stats
//! snapshot and every member's admission anchor are pinned.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, GroupId, SysCall, SysResult, ThreadId};
use nautix_rt::{AdmissionPolicy, Node, NodeConfig, SchedConfig};
use std::cell::RefCell;
use std::rc::Rc;

const WORKERS: usize = 8;

fn gang() -> Constraints {
    Constraints::Periodic {
        phase: 500_000,
        period: 1_000_000,
        slice: 300_000,
    }
}

/// Spawn one team: sleep `start_ns`, join, settle, sleep `gap_ns` times the
/// worker's index (so the arrival order, and with it the slot order of the
/// transaction, is the index order), `GroupAdmitTeam`, log the verdict,
/// burn `work` cycles, exit.
fn spawn_team(
    node: &mut Node,
    gid: GroupId,
    start_ns: u64,
    gap_ns: u64,
    work: u64,
    verdicts: &Rc<RefCell<Vec<SysResult>>>,
) -> Vec<ThreadId> {
    (0..WORKERS)
        .map(|i| {
            let verdicts = Rc::clone(verdicts);
            let mut state = 0;
            let prog = FnProgram::new(move |cx, _| {
                state += 1;
                match state {
                    1 => Action::Call(SysCall::SleepNs(start_ns)),
                    2 => Action::Call(SysCall::GroupJoin(gid)),
                    // Poll the member count until the whole team joined.
                    3 => Action::Call(SysCall::GroupSize(gid)),
                    4 if cx.result != SysResult::Value(WORKERS as u64) => {
                        state = 2;
                        Action::Call(SysCall::SleepNs(50_000))
                    }
                    4 => Action::Call(SysCall::SleepNs(gap_ns * i as u64)),
                    5 => Action::Call(SysCall::GroupAdmitTeam {
                        group: gid,
                        constraints: gang(),
                    }),
                    6 => {
                        verdicts.borrow_mut().push(cx.result);
                        Action::Compute(work)
                    }
                    _ => Action::Exit,
                }
            });
            node.spawn_on(i + 1, &format!("g{}w{i}", gid.0), Box::new(prog))
                .expect("spawn worker")
        })
        .collect()
}

fn ledgers(node: &Node) -> Vec<(u64, usize)> {
    (1..=WORKERS)
        .map(|cpu| {
            let load = &node.scheduler(cpu).load;
            assert_eq!(load.periodic_util_ppm(), load.periodic_util_ppm_rescan());
            (load.periodic_util_ppm(), load.periodic_count())
        })
        .collect()
}

fn anchors(node: &Node, team: &[ThreadId]) -> Vec<u64> {
    team.iter()
        .map(|&t| node.thread_state(t).admit_ns)
        .collect()
}

#[test]
fn admitted_rejected_and_readmitted_teams_are_pinned() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi()
        .with_cpus(WORKERS + 1)
        .with_seed(0x7EA0);
    cfg.sched = SchedConfig {
        policy: AdmissionPolicy::HyperperiodSim {
            overhead_ns: 2_000,
            window_cap_ns: 200_000_000,
        },
        ..SchedConfig::default()
    };
    let mut node = Node::new(cfg);
    let solo = FnProgram::new(|_, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(Constraints::Periodic {
            phase: 0,
            period: 1_000_000,
            slice: 300_000,
        })),
        _ => Action::Compute(100_000),
    });
    node.spawn_on(7, "solo", Box::new(solo)).unwrap();
    let (va, vb, vc) = (Rc::default(), Rc::default(), Rc::default());
    let ga = node.create_group("a");
    let gb = node.create_group("b");
    let gc = node.create_group("c");
    let a = spawn_team(&mut node, ga, 0, 0, 12_000_000, &va);
    let b = spawn_team(&mut node, gb, 5_000_000, 1_000_000, 1_000, &vb);
    let c = spawn_team(&mut node, gc, 45_000_000, 100_000, 1_000_000, &vc);

    // Team a is in; team b has not arrived yet.
    node.run_for_ns(4_000_000);
    assert_eq!(*va.borrow(), vec![SysResult::Admission(Ok(())); WORKERS]);
    let before = ledgers(&node);
    assert_eq!(before[6].0, 600_000, "solo + gang on CPU 7");
    let a_anchors = anchors(&node, &a);

    // Team b came and went while a was live: every ledger as it was.
    node.run_for_ns(16_000_000);
    assert_eq!(vb.borrow().len(), WORKERS);
    assert!(vb
        .borrow()
        .iter()
        .all(|v| matches!(v, SysResult::Admission(Err(_)))));
    assert_eq!(ledgers(&node), before);
    let b_anchors = anchors(&node, &b);

    // Team a exited; team c is admitted into the freed utilisation.
    node.run_for_ns(50_000_000);
    assert_eq!(*vc.borrow(), vec![SysResult::Admission(Ok(())); WORKERS]);
    let c_anchors = anchors(&node, &c);

    let report = format!(
        "events {}\na {a_anchors:?}\nb {b_anchors:?}\nc {c_anchors:?}\n{}",
        node.machine.events_processed(),
        node.stats_snapshot().to_text()
    );
    assert_eq!(report, PIN, "\n{report}");
}

/// Captured at the commit before gang coordination moved to `gang.rs`.
const PIN: &str = "\
events 1956\n\
a [478961, 478961, 478961, 478961, 478961, 478961, 478961, 478961]\n\
b [0, 0, 0, 0, 0, 0, 0, 0]\n\
c [46026355, 46026355, 46026355, 46026355, 46026355, 46026355, 46026355, 46026355]\n\
nautix-stats v3\n\
trials 1\n\
events 1956\n\
arrivals 343\n\
met 326\n\
missed 0\n\
dispatches 528\n\
invocations 1081\n\
timer_invocations 671\n\
kick_invocations 34\n\
switches 997\n\
steals 0\n\
steals_llc 0\n\
steals_pkg 0\n\
steals_xpkg 0\n\
inline_tasks 0\n\
ipis 0\n\
ipis_llc 0\n\
ipis_pkg 0\n\
ipis_xpkg 0\n\
device_irqs 0\n\
timer_programmings 866\n\
smis 0\n\
kicks_dropped 0\n\
kicks_delayed 0\n\
timer_overshoots 0\n\
freq_dips 0\n\
spurious_irqs 0\n\
cpu_stalls 0\n\
sporadic_demotions 0\n\
periodic_widenings 0\n\
periodic_demotions 0\n\
sim_hits 22\n\
sim_misses 2\n\
rollbacks 7\n\
oracle_suites 0\n\
oracle_records 0\n\
oracle_checks 0\n\
oracle_env_misses 0\n\
oracle_divergences 0\n\
cluster_decisions 0\n\
cluster_placed 0\n\
cluster_rejected 0\n\
cluster_probes 0\n\
cluster_departures 0\n\
layer_throttles 0\n\
layer_replenishes 0\n\
end\n\
";

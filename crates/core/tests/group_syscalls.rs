//! The standalone group-coordination syscalls (§4.2): election,
//! max-reduction, broadcast, barrier, size, and leave — exercised directly
//! by thread programs, outside group admission control.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, FnProgram, GroupId, SysCall, SysResult};
use nautix_rt::{Node, NodeConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn node(cpus: usize) -> Node {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(cpus).with_seed(101);
    Node::new(cfg)
}

/// Build an n-member group where each member runs `steps` after joining
/// and settling; `steps(i, k, result)` returns the k-th action.
fn run_group<F>(n: usize, horizon_ns: u64, steps: F) -> Node
where
    F: Fn(usize, u64, SysResult) -> Action + 'static + Clone,
{
    let gid = GroupId(0);
    let mut node = node(n + 1);
    for i in 0..n {
        let steps = steps.clone();
        let prog = FnProgram::new(move |cx, raw| {
            let k = if i == 0 { raw } else { raw + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "g" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(1_000_000)),
                k => steps(i, k - 3, cx.result),
            }
        });
        node.spawn_on(i + 1, &format!("m{i}"), Box::new(prog))
            .unwrap();
    }
    node.run_for_ns(horizon_ns);
    node
}

#[test]
fn election_returns_the_same_leader_to_everyone() {
    let results = Rc::new(RefCell::new(Vec::new()));
    let r2 = results.clone();
    let mut node = run_group(4, 20_000_000, move |_i, k, result| match k {
        0 => Action::Call(SysCall::GroupElect(GroupId(0))),
        1 => {
            r2.borrow_mut().push(result);
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.run_until_quiescent();
    let rs = results.borrow();
    assert_eq!(rs.len(), 4);
    let SysResult::Value(leader) = rs[0] else {
        panic!("expected a value, got {:?}", rs[0]);
    };
    assert!(rs.iter().all(|&r| r == SysResult::Value(leader)));
}

#[test]
fn reduce_max_delivers_the_maximum() {
    let results = Rc::new(RefCell::new(Vec::new()));
    let r2 = results.clone();
    let mut node = run_group(5, 20_000_000, move |i, k, result| match k {
        0 => Action::Call(SysCall::GroupReduceMax {
            group: GroupId(0),
            value: (i as u64 + 1) * 7,
        }),
        1 => {
            r2.borrow_mut().push(result);
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.run_until_quiescent();
    let rs = results.borrow();
    assert_eq!(rs.len(), 5);
    assert!(rs.iter().all(|&r| r == SysResult::Value(35)));
}

#[test]
fn broadcast_delivers_the_leaders_value() {
    // The broadcast source is the first member in join order (member 0).
    let results = Rc::new(RefCell::new(Vec::new()));
    let r2 = results.clone();
    let mut node = run_group(4, 20_000_000, move |i, k, result| match k {
        0 => Action::Call(SysCall::GroupBroadcast {
            group: GroupId(0),
            value: 1000 + i as u64,
        }),
        1 => {
            r2.borrow_mut().push(result);
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.run_until_quiescent();
    let rs = results.borrow();
    assert_eq!(rs.len(), 4);
    assert!(
        rs.iter().all(|&r| r == SysResult::Value(1000)),
        "everyone gets member 0's value: {rs:?}"
    );
}

#[test]
fn barrier_synchronizes_unequal_arrivals() {
    // Member i computes i * 200 µs before the barrier; all must depart at
    // (essentially) the same instant, after the slowest arrival.
    let depart: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let d2 = depart.clone();
    let mut node = run_group(4, 50_000_000, move |i, k, result| match k {
        0 => Action::Compute(260_000 * i as u64 + 1_000),
        1 => Action::Call(SysCall::GroupBarrier(GroupId(0))),
        2 => Action::Call(SysCall::ReadClock),
        3 => {
            if let SysResult::Clock(t) = result {
                d2.borrow_mut().push(t);
            }
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.run_until_quiescent();
    let ds = depart.borrow();
    assert_eq!(ds.len(), 4);
    let spread = ds.iter().max().unwrap() - ds.iter().min().unwrap();
    assert!(
        spread < 50_000,
        "barrier departures must cluster (spread {spread} ns)"
    );
    // The slowest member computed ~600 µs, so departures are after that.
    let earliest = *ds.iter().min().unwrap();
    assert!(earliest > 600_000, "departed before the slowest arrival?");
}

#[test]
fn group_size_and_leave() {
    let results = Rc::new(RefCell::new(Vec::new()));
    let r2 = results.clone();
    let mut node = run_group(3, 30_000_000, move |i, k, result| match (i, k) {
        // Member 2 leaves, then member 0 reads the size.
        (2, 0) => Action::Call(SysCall::GroupLeave(GroupId(0))),
        (_, 0) => Action::Call(SysCall::SleepNs(2_000_000)),
        (0, 1) => Action::Call(SysCall::GroupSize(GroupId(0))),
        (0, 2) => {
            r2.borrow_mut().push(result);
            Action::Exit
        }
        _ => Action::Exit,
    });
    node.run_until_quiescent();
    let rs = results.borrow();
    assert_eq!(rs.as_slice(), &[SysResult::Value(2)]);
}

#[test]
fn every_group_syscall_on_an_unknown_group_returns_instead_of_panicking() {
    use nautix_kernel::{Constraints, GroupError};
    let ghost = GroupId(41);
    let periodic = Constraints::Periodic {
        phase: 0,
        period: 1_000_000,
        slice: 100_000,
    };
    let not_found = SysResult::Group(Err(GroupError::NotFound));
    let table = [
        (SysCall::GroupJoin(ghost), not_found),
        (SysCall::GroupLeave(ghost), not_found),
        (SysCall::GroupSize(ghost), SysResult::Value(0)),
        (SysCall::GroupBarrier(ghost), not_found),
        (SysCall::GroupElect(ghost), not_found),
        (
            SysCall::GroupReduceMax {
                group: ghost,
                value: 7,
            },
            not_found,
        ),
        (
            SysCall::GroupBroadcast {
                group: ghost,
                value: 7,
            },
            not_found,
        ),
        (
            SysCall::GroupChangeConstraints {
                group: ghost,
                constraints: periodic,
            },
            not_found,
        ),
        (
            SysCall::GroupAdmitTeam {
                group: ghost,
                constraints: periodic,
            },
            not_found,
        ),
    ];
    for (call, expected) in table {
        let seen = Rc::new(RefCell::new(None));
        let s2 = seen.clone();
        let c2 = call.clone();
        let mut node = node(2);
        let prog = FnProgram::new(move |cx, k| match k {
            0 => Action::Call(c2.clone()),
            1 => {
                *s2.borrow_mut() = Some(cx.result);
                // The thread runs on, still aperiodic, and exits normally.
                Action::Compute(10_000)
            }
            _ => Action::Exit,
        });
        let tid = node.spawn_on(1, "lost", Box::new(prog)).unwrap();
        node.run_until_quiescent();
        assert_eq!(*seen.borrow(), Some(expected), "{call:?}");
        assert_eq!(node.live_programs(), 0, "{call:?}: thread never exited");
        assert!(!node.thread_state(tid).is_rt(), "{call:?}");
    }
}

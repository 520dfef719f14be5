//! Routing is not perturbation: a figure's observer registered beside the
//! armed oracles leaves every oracle counter where it was, because the
//! oracles receive exactly their own kinds, in the same order.

use nautix_hw::MachineConfig;
use nautix_kernel::{constrained_loop, Action, Constraints, FnProgram, GroupId, SysCall, ThreadId};
use nautix_rt::oracle::OracleStats;
use nautix_rt::{DispatchStamps, Node, NodeConfig};

/// Arm the oracles on `cfg`'s node, optionally register dispatch stamps
/// beside them, run `trial` for `ns`, and return the oracle counters.
fn armed_run(
    cfg: impl Fn() -> NodeConfig,
    stamped: bool,
    ns: u64,
    trial: impl Fn(&mut Node) -> Vec<ThreadId>,
) -> OracleStats {
    let mut node = Node::new(cfg());
    let suite = node.enable_oracles();
    let stamps = stamped.then(|| node.observe(DispatchStamps::new(1 << 16)));
    let tids = trial(&mut node);
    node.run_for_ns(ns);
    if let Some(stamps) = stamps {
        for t in tids {
            assert!(
                !stamps.borrow().times(t).is_empty(),
                "tid {t} never stamped"
            );
        }
    }
    let stats = *suite.borrow().stats();
    assert!(stats.records > 0 && stats.edf_checks > 0);
    stats
}

fn same_with_and_without_stamps(
    cfg: impl Fn() -> NodeConfig,
    ns: u64,
    trial: impl Fn(&mut Node) -> Vec<ThreadId>,
) {
    let plain = armed_run(&cfg, false, ns, &trial);
    assert_eq!(armed_run(&cfg, true, ns, &trial), plain);
}

#[test]
fn stamps_beside_the_oracles_change_no_counter_on_a_gang() {
    let n = 32;
    let cfg = || {
        let mut cfg = NodeConfig::phi();
        cfg.machine = MachineConfig::phi().with_cpus(n + 1).with_seed(8);
        cfg
    };
    same_with_and_without_stamps(cfg, 12_000_000, |node| {
        let gid = GroupId(0);
        (0..n)
            .map(|i| {
                let prog = FnProgram::new(move |_cx, step| {
                    let k = if i == 0 { step } else { step + 1 };
                    match k {
                        0 => Action::Call(SysCall::GroupCreate { name: "gang" }),
                        1 => Action::Call(SysCall::GroupJoin(gid)),
                        2 => Action::Call(SysCall::SleepNs(3_000_000)),
                        3 => Action::Call(SysCall::GroupChangeConstraints {
                            group: gid,
                            constraints: Constraints::Periodic {
                                phase: 1_000_000,
                                period: 100_000,
                                slice: 50_000,
                            },
                        }),
                        _ => Action::Compute(1_000_000),
                    }
                });
                node.spawn_on(i + 1, &format!("g{i}"), Box::new(prog))
                    .unwrap()
            })
            .collect()
    });
}

#[test]
fn stamps_beside_the_oracles_change_no_counter_on_a_missrate_trial() {
    let cfg = || {
        let mut cfg = NodeConfig::phi();
        cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(9);
        // The infeasible corner: admission off, so jobs miss.
        cfg.sched.admission_enabled = false;
        cfg
    };
    same_with_and_without_stamps(cfg, 20_000_000, |node| {
        let requested = Constraints::periodic(20_000, 19_000).build();
        let prog = constrained_loop(requested, 100_000);
        vec![node.spawn_on(1, "probe", Box::new(prog)).unwrap()]
    });
}

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, GroupId, SysCall};
use nautix_rt::{Node, NodeConfig};

fn main() {
    let n = 8;
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(n + 1).with_seed(21);
    cfg.dispatch_log_cap = 256;
    cfg.phase_correction = false;
    let mut node = Node::new(cfg);
    let gid = GroupId(0);
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
                        period: 100_000,
                        slice: 50_000,
                    },
                }),
                _ => Action::Compute(1_000_000),
            }
        });
        tids.push(
            node.spawn_on(i + 1, &format!("s{i}"), Box::new(prog))
                .unwrap(),
        );
    }
    node.run_for_ns(12_000_000);
    for t in node.ga_timings() {
        println!("tid {} done at {}", t.tid, t.t_done);
    }
    for (j, &t) in tids.iter().enumerate() {
        let times = node.thread_state(t).dispatch_log.times();
        let tail: Vec<u64> = times.iter().rev().take(5).rev().copied().collect();
        println!("thread {j}: n={} last5={:?}", times.len(), tail);
    }
}

//! Mixed-criticality node: a hard real-time gang shares the machine with
//! best-effort background work and lightweight tasks, while device
//! interrupts stay penned in the interrupt-laden partition (§3.1, §3.5).
//!
//! Demonstrates: the RT gang is *isolated* (zero misses) no matter how
//! much background load and interrupt traffic the node carries, and the
//! background work still gets the leftover CPU (including via work
//! stealing).
//!
//! ```sh
//! cargo run --release --example mixed_criticality
//! ```

use nautix::kernel::{FnProgram, GroupId, Script, SysResult};
use nautix::prelude::*;

fn main() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(8).with_seed(23);
    let mut node = Node::new(cfg);
    let gid = GroupId(0);

    // A 4-thread hard real-time gang on CPUs 1-4: 500 µs period, 40% CPU.
    let mut gang = Vec::new();
    for i in 0..4usize {
        let prog = FnProgram::new(move |cx, step| {
            let k = if i == 0 { step } else { step + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate {
                    name: "control-loop",
                }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(2_000_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::periodic(500_000, 200_000).build(),
                }),
                4 => {
                    assert_eq!(cx.result, SysResult::Admission(Ok(())));
                    Action::Compute(150_000)
                }
                _ => Action::Compute(150_000),
            }
        });
        gang.push(
            node.spawn_on(i + 1, &format!("gang{i}"), Box::new(prog))
                .unwrap(),
        );
    }

    // Six best-effort batch jobs dumped on CPU 5; the idle CPUs 6 and 7
    // will steal some of them.
    let mut batch = Vec::new();
    for j in 0..6 {
        batch.push(
            node.spawn_unbound(
                5,
                &format!("batch{j}"),
                Box::new(Script::new(vec![Action::Compute(40_000_000)])),
            )
            .unwrap(),
        );
    }

    // A spawner thread that feeds lightweight tasks (§3.1): size-tagged
    // ones run inline in scheduler slack, unsized ones via the idle loop.
    let spawner = FnProgram::new(|_cx, n| {
        if n < 40 {
            Action::Call(SysCall::TaskSpawn {
                size: if n % 2 == 0 { Some(20_000) } else { None },
                work: 20_000,
            })
        } else {
            Action::Exit
        }
    });
    node.spawn_on(6, "task-source", Box::new(spawner)).unwrap();

    // Meanwhile, a chatty NIC hammers the interrupt-laden partition.
    for _ in 0..300 {
        node.raise_device_irq(3);
        node.run_for_ns(100_000);
    }
    node.run_for_ns(70_000_000);

    // Report.
    let mut total_met = 0;
    let mut total_missed = 0;
    for &t in &gang {
        let st = node.thread_state(t);
        total_met += st.stats.met;
        total_missed += st.stats.missed;
    }
    println!("hard real-time gang: {total_met} deadlines met, {total_missed} missed");
    assert_eq!(total_missed, 0, "the gang must be isolated from the noise");

    let steals: u64 = (0..8).map(|c| node.scheduler(c).stats.steals).sum();
    let batch_cycles: u64 = batch
        .iter()
        .map(|&t| node.thread_state(t).stats.executed_cycles)
        .sum();
    println!("batch work executed {batch_cycles} cycles; {steals} threads were stolen");
    assert!(steals > 0, "idle CPUs should have helped with batch work");

    let tasks = node.tasks(6);
    println!(
        "tasks: {} inline (size-tagged), {} via the idle loop",
        tasks.inline_completed, tasks.helper_completed
    );
    println!(
        "device interrupts: {} handled, all on CPU 0: {}",
        node.device_irqs_handled[0],
        (1..8).all(|c| node.device_irqs_handled[c] == 0)
    );
}

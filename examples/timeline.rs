//! Watch a gang schedule execute: record the node's context switches and
//! render the lock-step pattern as an ASCII timeline — the whole-machine
//! version of the paper's oscilloscope.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use nautix::kernel::{FnProgram, GroupId, SysCall};
use nautix::prelude::*;
use nautix::rt::Timeline;

fn main() {
    let n = 4;
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(n + 1).with_seed(17);
    let mut node = Node::new(cfg);
    let tl = node.observe(Timeline::new(n + 1, 100_000, node.freq()));
    let gid = GroupId(0);
    for i in 0..n {
        let prog = FnProgram::new(move |_cx, step| {
            let k = if i == 0 { step } else { step + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "gang" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(2_000_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::Periodic {
                        phase: 500_000,
                        period: 200_000, // 200 µs period
                        slice: 80_000,   // 40% slice
                    },
                }),
                _ => Action::Compute(1_000_000),
            }
        });
        node.spawn_on(i + 1, &format!("g{i}"), Box::new(prog))
            .unwrap();
    }
    node.run_for_ns(8_000_000);
    let mut tl = tl.borrow_mut();
    tl.finish(node.machine.now());
    // Render 1.2 ms of steady-state gang execution (6 periods).
    let from = 5_000_000;
    let to = from + 1_200_000;
    println!(
        "4-thread hard real-time gang, τ=200µs σ=80µs, {}..{} µs:\n",
        from / 1000,
        to / 1000
    );
    print!("{}", tl.render(from, to, 96));
    println!(
        "\neach row is one CPU; letters are gang members, dots are idle.\n\
         the columns line up because the schedulers coordinate only\n\
         through synchronized wall-clock time (§4.1)."
    );
}

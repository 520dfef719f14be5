//! The timeline recorder wired into a live node.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, SysCall};
use nautix_rt::{Node, NodeConfig, Timeline};

#[test]
fn node_timeline_captures_periodic_execution() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(3).with_seed(91);
    let mut node = Node::new(cfg);
    let tl = node.observe(Timeline::new(3, 10_000, node.freq()));
    for cpu in 1..3 {
        let prog = FnProgram::new(move |_cx, n| {
            if n == 0 {
                Action::Call(SysCall::ChangeConstraints(
                    Constraints::periodic(
                        200_000,
                        80_000 * cpu as u64 / 2, // different duty per CPU
                    )
                    .build(),
                ))
            } else {
                Action::Compute(1_000_000)
            }
        });
        node.spawn_on(cpu, &format!("p{cpu}"), Box::new(prog))
            .unwrap();
    }
    node.run_for_ns(5_000_000);
    let mut tl = tl.borrow_mut();
    tl.finish(node.machine.now());
    // Spans exist on both worker CPUs and alternate thread/idle.
    for cpu in 1..3usize {
        let spans: Vec<_> = tl.spans().iter().filter(|s| s.cpu == cpu).collect();
        assert!(spans.len() > 20, "cpu {cpu} has only {} spans", spans.len());
        assert!(spans.iter().any(|s| s.tid.is_some()));
        assert!(spans.iter().any(|s| s.tid.is_none()), "idle gaps expected");
        // Spans are time-ordered and non-overlapping per CPU.
        for w in spans.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns);
        }
    }
    // The rendering covers both CPUs with distinct symbols.
    let pic = tl.render(1_000_000, 3_000_000, 80);
    assert!(pic.contains("cpu   1 |"));
    assert!(pic.contains("cpu   2 |"));
    assert!(pic.contains("legend:"));
    // CPU 2's thread has twice CPU 1's duty cycle: more letters per row.
    let letters = |row: &str| {
        row.chars()
            .filter(|c| c.is_ascii_alphabetic() && *c != 'c' && *c != 'p' && *c != 'u')
            .count()
    };
    let rows: Vec<&str> = pic.lines().filter(|l| l.starts_with("cpu")).collect();
    assert!(
        letters(rows[1]) > letters(rows[0]),
        "higher duty cycle must show denser occupancy:\n{pic}"
    );
}

/// Recording is per trial: a reset drops the registered timeline, so the
/// next trial runs unobserved.
#[test]
fn timeline_disabled_by_default() {
    let cfg = || {
        let mut cfg = NodeConfig::phi();
        cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(92);
        cfg
    };
    let mut node = Node::new(cfg());
    let tl = node.observe(Timeline::new(2, 10_000, node.freq()));
    node.reset(cfg());
    node.spawn_on(
        1,
        "t",
        Box::new(nautix_kernel::Script::new(vec![Action::Compute(1000)])),
    )
    .unwrap();
    node.run_until_quiescent();
    tl.borrow_mut().finish(node.machine.now());
    assert!(tl.borrow().spans().is_empty());
}

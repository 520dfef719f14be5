//! Thread-pool maintenance: exited threads are reaped by the idle path
//! and their slots recycled, so churn far beyond the table capacity works.

use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Script};
use nautix_rt::{Node, NodeConfig};

#[test]
fn thread_churn_beyond_table_capacity() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(81);
    cfg.max_threads = 16; // 2 idle threads + 14 slots
    let mut node = Node::new(cfg);
    // Spawn-and-run far more threads than the table can hold at once;
    // reaping must recycle slots between waves.
    let mut total = 0;
    for wave in 0..20 {
        for i in 0..10 {
            node.spawn_on(
                1,
                &format!("w{wave}_{i}"),
                Box::new(Script::new(vec![Action::Compute(5_000)])),
            )
            .expect("slot must be available after reaping");
            total += 1;
        }
        node.run_until_quiescent();
    }
    assert_eq!(total, 200);
    assert_eq!(node.live_programs(), 0);
}

#[test]
fn exited_thread_slots_are_recycled() {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(82);
    let mut node = Node::new(cfg);
    // The default table holds 1024 threads: 3000 sequential ones only
    // work if every exit gives its slot back.
    for wave in 0..300 {
        for i in 0..10 {
            node.spawn_on(
                1,
                &format!("s{wave}_{i}"),
                Box::new(Script::new(vec![Action::Compute(100)])),
            )
            .expect("spawn");
        }
        node.run_until_quiescent();
    }
    assert_eq!(node.live_programs(), 0);
}

//! Direct drive of each layer's public functions, from outside: the host
//! cost of one queue operation, one timer re-arm, one machine advance, one
//! scheduler pass, one node boot, one admission, and so on. These are the
//! per-layer metrics an optimisation is proposed against; which
//! end-to-end metric each should move, on which workload, is tabulated in
//! `README.md`. Every figure is the median of `REPS` timed batches, and
//! each is measured in one workload's traced run only.

use crate::metrics::median;
use crate::workloads::{serial_config, Layers};
use nautix_bench::throttle::{self, Granularity};
use nautix_bench::{run_trials, Scale, Scenario};
use nautix_bsp::{collect_bsp, spawn_bsp, BspParams};
use nautix_cluster::{ClusterConfig, Fleet, PlacementStrategy, TenantStream};
use nautix_des::{DetRng, EventQueue, Freq};
use nautix_groups::{Collective, Decision};
use nautix_hw::{Cost, Machine, MachineConfig, MachineEvent, Platform, TimerSlots};
use nautix_kernel::{
    Action, Constraints, FixedHeap, FnProgram, IdleLoop, SysCall, TPR_HARD_RT, TPR_OPEN,
};
use nautix_rt::{
    AdmissionPolicy, AdmissionRequest, CpuLoad, HarnessConfig, InvokeReason, LocalScheduler, Node,
    NodeConfig, NodePool, SchedConfig, SchedThread, SimCache,
};
use nautix_stats::{HubOptions, StatsHub, StatsSnapshot};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Timed batches per figure.
const REPS: usize = 5;

/// Median host ns per operation over `REPS` batches of `iters` operations;
/// `batch(n)` performs `n` of them.
fn per_op_ns(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median host µs of `reps` calls of `once`, each timed alone.
fn per_call_us(reps: usize, mut once: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            once();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// A small deterministic delay stream, 1..=4096 cycles.
struct Delays(u64);

impl Delays {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 52) + 1
    }
}

// ------------------------------------------------------------------ des

/// Hold model at a standing backlog: pop the earliest event, schedule one
/// a random delay later. ns per pop+schedule pair.
fn queue_churn_ns(backlog: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut d = Delays(backlog as u64);
    for i in 0..backlog {
        q.schedule(d.next(), i as u64);
    }
    per_op_ns(200_000, |n| {
        for _ in 0..n {
            let (t, _, payload) = q.pop().expect("standing backlog");
            q.schedule(t + d.next(), black_box(payload));
        }
    })
}

/// Schedule then cancel against a standing backlog of 128.
fn queue_cancel_ns() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut d = Delays(7);
    for i in 0..128 {
        q.schedule(d.next(), i);
    }
    per_op_ns(200_000, |n| {
        for i in 0..n {
            let id = q.schedule(q.now() + d.next(), i);
            black_box(q.cancel(id));
        }
    })
}

/// Eight events at one instant drained by one `pop_batch`; ns per event.
fn queue_batch_pop_ns() -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    per_op_ns(200_000, |n| {
        for _ in 0..n / 8 {
            let at = q.now() + 100;
            for i in 0..8 {
                q.schedule(at, i);
            }
            black_box(q.pop_batch(|t, _, e| {
                black_box((t, e));
            }));
        }
    })
}

// ------------------------------------------------------------------- hw

/// Fire the earliest one-shot and re-arm it one period later: the
/// steady state of `cpus` tickless schedulers. ns per fire+re-arm.
fn timer_rearm_ns(cpus: usize) -> f64 {
    let mut t = TimerSlots::new(cpus);
    for cpu in 0..cpus {
        t.arm(cpu, 1_000 + 7 * cpu as u64);
    }
    per_op_ns(100_000, |n| {
        for _ in 0..n {
            let (cpu, deadline) = t.earliest().expect("every slot is armed");
            t.arm(cpu, deadline + 130_000);
        }
    })
}

fn machine(cpus: usize) -> Machine {
    Machine::new(MachineConfig::phi().with_cpus(cpus).with_seed(1))
}

/// Timer ping-pong through `Machine::advance` alone: every CPU's one-shot
/// fires and is re-armed, no scheduler above it. ns per advance.
fn machine_advance_ns(cpus: usize) -> f64 {
    let mut m = machine(cpus);
    for cpu in 0..cpus {
        m.set_timer_cycles(cpu, 1_000 + 7 * cpu as u64);
    }
    per_op_ns(100_000, |n| {
        for _ in 0..n {
            if let Some((_, MachineEvent::TimerInterrupt { cpu })) = m.advance() {
                m.set_timer_cycles(cpu, 130_000);
            }
        }
    })
}

fn set_tpr_ns() -> f64 {
    let mut m = machine(64);
    per_op_ns(200_000, |n| {
        for i in 0..n {
            let tpr = if i & 64 == 0 { TPR_HARD_RT } else { TPR_OPEN };
            m.set_tpr((i % 64) as usize, tpr);
        }
    })
}

// --------------------------------------------------------------- kernel

/// Pop the minimum and push it back later at occupancy `n`.
fn fixed_heap_ns(n: usize) -> f64 {
    let mut h: FixedHeap<u64, usize> = FixedHeap::new(n);
    let mut d = Delays(n as u64);
    for v in 0..n {
        h.push(d.next(), v).expect("within capacity");
    }
    per_op_ns(200_000, |iters| {
        for _ in 0..iters {
            let (k, v) = h.pop().expect("standing occupancy");
            h.push(k + d.next(), black_box(v)).expect("within capacity");
        }
    })
}

// ----------------------------------------------------------------- core

/// `LocalScheduler::invoke` on a timer pass with `q` periodic threads
/// resident, the clock moving 10 µs a pass.
fn invoke_ns(q: usize) -> f64 {
    let mut sched = LocalScheduler::new(0, 0, SchedConfig::default(), Freq::phi(), 64);
    let mut threads: Vec<SchedThread> = (0..16).map(|_| SchedThread::new_aperiodic()).collect();
    for (tid, st) in threads.iter_mut().enumerate().skip(1).take(q) {
        let k = tid as u64;
        let cons = Constraints::periodic(100_000 * k, 5_000 * k).build();
        sched
            .change_constraints(tid, st, cons, 0, true)
            .expect("an admissible set");
        sched.enqueue(tid, st, 0);
    }
    let mut now = 0u64;
    per_op_ns(200_000, |n| {
        for _ in 0..n {
            now += 10_000;
            black_box(sched.invoke(now, &mut threads, InvokeReason::Timer, true));
        }
    })
}

fn node_config(cpus: usize) -> NodeConfig {
    let mut cfg = NodeConfig::for_machine(MachineConfig::phi().with_cpus(cpus).with_seed(1));
    cfg.max_threads = cfg.max_threads.max(2 * cpus + 64);
    cfg
}

/// A long-lived node with one periodic thread (100 µs / 30%) on every CPU
/// past CPU 0, run past admission.
fn busy_node(cpus: usize) -> Node {
    let mut node = Node::new(node_config(cpus));
    for cpu in 1..cpus {
        let prog = FnProgram::new(|_cx, n| {
            if n == 0 {
                Action::Call(SysCall::ChangeConstraints(
                    Constraints::periodic(100_000, 30_000).build(),
                ))
            } else {
                Action::Compute(100_000)
            }
        });
        node.spawn_on(cpu, "p", Box::new(prog))
            .expect("spawn a periodic thread");
    }
    node.run_for_ns(2_000_000);
    node
}

/// `Node::step` on the busy node, no harness around it. ns per event.
fn node_step_ns(cpus: usize) -> f64 {
    let mut node = busy_node(cpus);
    per_op_ns(100_000, |n| {
        for _ in 0..n {
            black_box(node.step());
        }
    })
}

fn node_boot_us(cpus: usize, reps: usize) -> f64 {
    per_call_us(reps, || {
        black_box(Node::new(node_config(cpus)));
    })
}

/// `NodePool::node` on a pool that already holds the shape: `Node::reset`.
fn node_reset_us(cpus: usize, reps: usize) -> f64 {
    let mut pool = NodePool::new();
    pool.node(node_config(cpus));
    per_call_us(reps, || {
        black_box(pool.node(node_config(cpus)).machine.now());
    })
}

/// The cluster's admission policy: overhead-aware hyperperiod simulation.
fn sim_sched() -> SchedConfig {
    SchedConfig {
        policy: AdmissionPolicy::HyperperiodSim {
            overhead_ns: 2_000,
            window_cap_ns: 200_000_000,
        },
        ..SchedConfig::default()
    }
}

/// Admit then release one periodic reservation on a ledger that already
/// holds three, from the tenant palette. ns per admit+release cycle.
fn ledger_cycle_ns(cfg: &SchedConfig, cache: Option<Rc<RefCell<SimCache>>>, iters: u64) -> f64 {
    let mut load = CpuLoad::new();
    if let Some(cache) = cache {
        load.install_sim_cache(cache);
    }
    for (period, slice) in [
        (1_000_000, 50_000),
        (4_000_000, 400_000),
        (16_000_000, 800_000),
    ] {
        load.admit(cfg, &Constraints::periodic(period, slice).build())
            .expect("an admissible resident set");
    }
    let probe = Constraints::periodic(2_000_000, 200_000).build();
    per_op_ns(iters, |n| {
        for _ in 0..n {
            black_box(load.admit(cfg, &probe)).expect("the probe fits");
            load.release(&probe);
        }
    })
}

/// One 8-member team transaction through `Node::admit` on a shard-shaped
/// node, and its release. µs per admit+release pair.
fn admit_team_us() -> f64 {
    let shard = ClusterConfig::new(1, 8, 1, PlacementStrategy::BestFit);
    let mut cfg = NodeConfig::for_machine(shard.machine.clone().with_seed(1));
    cfg.sched = shard.sched;
    cfg.max_threads = 8 * 2 + 8;
    let mut node = Node::new(cfg);
    let team: Vec<_> = (0..8)
        .map(|cpu| {
            node.spawn_on(cpu, "slot", Box::new(IdleLoop::new(1)))
                .expect("spawn a reservation slot")
        })
        .collect();
    let gang = Constraints::periodic(2_000_000, 200_000).build();
    per_op_ns(2_000, |n| {
        for _ in 0..n {
            let admitted = node.admit(AdmissionRequest::team(team.clone()).constraints(gang));
            assert!(admitted.is_admitted(), "the gang fits an empty shard");
            node.admit(
                AdmissionRequest::team(team.clone()).constraints(Constraints::default_aperiodic()),
            )
            .into_result()
            .expect("aperiodic release cannot fail");
        }
    }) / 1e3
}

// -------------------------------------------------------------- cluster

/// A fresh 16x8 fleet booted up to its first decision, ms.
fn cluster_boot_ms() -> f64 {
    let cfg = ClusterConfig::new(16, 8, 1, PlacementStrategy::BestFit);
    per_call_us(7, || {
        black_box(nautix_cluster::run(&cfg, &mut Fleet::new()).decisions);
    }) / 1e3
}

fn next_request_ns() -> f64 {
    let mut stream = TenantStream::new(42, 400_000, 200_000_000, 8);
    per_op_ns(200_000, |n| {
        for _ in 0..n {
            black_box(stream.next_request());
        }
    })
}

// --------------------------------------------------------- groups / bsp

/// One arrival at a 64-party collective (every 64th completes it).
fn barrier_arrive_ns() -> f64 {
    let mut bar = Collective::new(64);
    let mut rng = DetRng::seed_from(1);
    let stagger = Cost::new(180, 70);
    per_op_ns(64 * 2_000, |n| {
        for i in 0..n {
            black_box(bar.arrive((i % 64) as usize, i, Decision::Max, &mut rng, stagger));
        }
    })
}

/// Spawning and collecting a 63-worker fine-grain BSP gang on a 64-CPU
/// node: `(spawn µs, collect µs)`.
fn bsp_spawn_collect_us() -> (f64, f64) {
    let params = BspParams::fine(63, 4);
    let (mut spawn, mut collect) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut node = Node::new(node_config(64));
        let t = Instant::now();
        let handles = spawn_bsp(&mut node, params, 1);
        spawn.push(t.elapsed().as_nanos() as f64 / 1e3);
        node.run_until_quiescent();
        let t = Instant::now();
        black_box(collect_bsp(&node, &handles));
        collect.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    (median(&spawn), median(&collect))
}

// -------------------------------------------------------- stats / bench

fn snapshot_us() -> f64 {
    let node = busy_node(64);
    per_op_ns(5_000, |n| {
        for _ in 0..n {
            black_box(node.stats_snapshot());
        }
    }) / 1e3
}

/// One `StatsTx::delta` send into a running in-memory hub.
fn hub_delta_ns() -> f64 {
    let hub = StatsHub::start(HubOptions::default());
    let tx = hub.tx();
    let snap = StatsSnapshot {
        trials: 1,
        events: 1_700,
        ..StatsSnapshot::default()
    };
    let ns = per_op_ns(50_000, |n| {
        for _ in 0..n {
            tx.delta(black_box(snap));
        }
    });
    drop(tx);
    black_box(hub.finish().total.trials);
    ns
}

fn snapshot_codec_us() -> f64 {
    let snap = busy_node(2).stats_snapshot();
    per_op_ns(5_000, |n| {
        for _ in 0..n {
            let text = snap.to_text();
            black_box(StatsSnapshot::from_text(&text).expect("own encoding parses"));
        }
    }) / 1e3
}

fn scenario_codec_us() -> f64 {
    let sc = Scenario::missrate(Platform::Phi, 100_000, 30_000, 300, 5);
    per_op_ns(5_000, |n| {
        for _ in 0..n {
            let text = sc.to_replay_string();
            black_box(Scenario::from_replay_string(&text).expect("own encoding parses"));
        }
    }) / 1e3
}

/// Harness cost of dispatching one empty trial on one worker.
fn harness_dispatch_ns(hc: &HarnessConfig) -> f64 {
    per_op_ns(20_000, |n| {
        black_box(run_trials(hc, (0..n).collect(), |&i| (i, 1)).stats.events);
    })
}

/// `cpu_secs / wall_secs` of a sample of the Figure 14 section on two
/// worker threads. Moves no end-to-end metric here; recorded for the
/// parked parallel-DES work.
fn harness_speedup_2t() -> f64 {
    let hc = HarnessConfig {
        threads: 2,
        ..HarnessConfig::serial()
    };
    let (periods, pcts) = throttle::grid(Scale::Paper);
    let points: Vec<(u64, u64)> = periods
        .iter()
        .step_by(5)
        .flat_map(|&p| pcts.iter().step_by(5).map(move |&pct| (p, p * pct / 100)))
        .collect();
    let p = throttle::worker_count(Scale::Paper);
    run_trials(&hc, points, |&(period, slice)| {
        throttle::measure_instrumented(Granularity::Fine, p, period, slice, Scale::Paper, 3)
    })
    .stats
    .speedup()
}

/// Measure the direct-drive costs `workload`'s traced run owns (the `on`
/// column of the registry): each cost is taken once across the five
/// traced runs, beside the workload whose end-to-end metrics it should
/// move most.
pub fn direct_drive(workload: &str, layers: &mut Layers) {
    match workload {
        "paper_repro" => mid_backlog_gangs(layers),
        "small_trials" => small_nodes(layers),
        "storm_1024" => big_machine(layers),
        "cluster_churn" => admission_service(layers),
        "armed_repro" => live_stats(layers),
        other => panic!("no direct-drive costs for `{other}`"),
    }
}

/// `paper_repro`: 64-CPU nodes at a backlog of about a hundred events,
/// BSP gangs, one real-time thread per CPU.
fn mid_backlog_gangs(layers: &mut Layers) {
    layers.set("des.queue.churn_ns_b128", queue_churn_ns(128));
    layers.set("des.queue.cancel_ns", queue_cancel_ns());
    layers.set("des.queue.batch_pop_ns", queue_batch_pop_ns());
    let advance_c64 = machine_advance_ns(64);
    layers.set("hw.machine.advance_ns_c64", advance_c64);
    layers.set("hw.apic.set_tpr_ns", set_tpr_ns());
    layers.set("core.local.invoke_ns_q1", invoke_ns(1));
    layers.set("core.local.invoke_ns_q8", invoke_ns(8));
    let step_c64 = node_step_ns(64);
    layers.set("core.node.step_ns_c64", step_c64);
    layers.set("core.node.sched_side_ns_c64", step_c64 - advance_c64);
    layers.set("core.node.boot_us_c64", node_boot_us(64, 15));
    layers.set("core.node.boot_us_c256", node_boot_us(256, 7));
    layers.set("core.node.reset_us_c64", node_reset_us(64, 15));
    layers.set("groups.barrier.arrive_ns", barrier_arrive_ns());
    let (spawn_us, collect_us) = bsp_spawn_collect_us();
    layers.set("bsp.spawn_us_p63", spawn_us);
    layers.set("bsp.collect_us_p63", collect_us);
    layers.set("bench.harness.speedup_2t", harness_speedup_2t());
}

/// `small_trials`: 2-CPU nodes, a backlog of a few events, and the
/// per-trial machinery around a 250 µs trial.
fn small_nodes(layers: &mut Layers) {
    layers.set("des.queue.churn_ns_b4", queue_churn_ns(4));
    layers.set("hw.timer.rearm_ns_c2", timer_rearm_ns(2));
    layers.set("hw.machine.advance_ns_c2", machine_advance_ns(2));
    layers.set("kernel.queue.push_pop_ns_n8", fixed_heap_ns(8));
    layers.set("core.node.step_ns_c2", node_step_ns(2));
    layers.set("core.node.boot_us_c2", node_boot_us(2, 31));
    layers.set("core.node.reset_us_c2", node_reset_us(2, 31));
    layers.set("bench.scenario.codec_roundtrip_us", scenario_codec_us());
    layers.set(
        "bench.harness.dispatch_ns",
        harness_dispatch_ns(&serial_config()),
    );
}

/// `storm_1024`: 1024 CPUs, a backlog of thousands, 256 tasks a pile.
fn big_machine(layers: &mut Layers) {
    layers.set("des.queue.churn_ns_b2048", queue_churn_ns(2048));
    layers.set("hw.timer.rearm_ns_c1024", timer_rearm_ns(1024));
    layers.set("hw.machine.advance_ns_c1024", machine_advance_ns(1024));
    layers.set("kernel.queue.push_pop_ns_n256", fixed_heap_ns(256));
    layers.set("core.node.step_ns_c1024", node_step_ns(1024));
    layers.set("core.node.boot_us_c1024", node_boot_us(1024, 5));
    layers.set("core.node.reset_us_c1024", node_reset_us(1024, 5));
}

/// `cluster_churn`: the admission ledger, the memoised simulation and
/// the fleet.
fn admission_service(layers: &mut Layers) {
    layers.set(
        "core.admission.ledger_cycle_ns",
        ledger_cycle_ns(&SchedConfig::default(), None, 200_000),
    );
    let memo = Rc::new(RefCell::new(SimCache::new()));
    layers.set(
        "core.admission.sim_hit_ns",
        ledger_cycle_ns(&sim_sched(), Some(memo), 100_000),
    );
    // A ledger without a memo simulates on every request: the miss path.
    layers.set(
        "core.admission.sim_miss_us",
        ledger_cycle_ns(&sim_sched(), None, 2_000) / 1e3,
    );
    layers.set("core.node.admit_team_us_g8", admit_team_us());
    layers.set("cluster.boot_ms", cluster_boot_ms());
    layers.set("cluster.tenant.next_request_ns", next_request_ns());
}

/// `armed_repro`: snapshots, the hub and the codec, in the build where
/// they sit on the blocking path.
fn live_stats(layers: &mut Layers) {
    layers.set("stats.snapshot_us_c64", snapshot_us());
    layers.set("stats.hub.delta_ns", hub_delta_ns());
    layers.set("stats.codec.roundtrip_us", snapshot_codec_us());
}

//! The BSP workload generator and runner.

use nautix_des::Nanos;
use nautix_hw::CpuId;
use nautix_kernel::{Action, Constraints, GroupId, Program, ResumeCx, SysCall, SysResult};
use nautix_rt::{Node, NodeConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// How the benchmark is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BspMode {
    /// Non-real-time round-robin scheduling (the paper's aperiodic
    /// baseline, 100% utilization). Barriers are required for correctness.
    Aperiodic,
    /// Gang-scheduled hard real-time group with the given periodic
    /// constraints (admitted via group admission control with phase
    /// correction).
    RtGroup {
        /// Period τ in ns.
        period: Nanos,
        /// Slice σ in ns.
        slice: Nanos,
    },
}

/// Benchmark parameters (§6.1).
#[derive(Debug, Clone, Copy)]
pub struct BspParams {
    /// Number of CPUs used; thread *i* runs on CPU *i + 1* (CPU 0 stays
    /// in the interrupt-laden partition, as in the paper's 255-CPU runs).
    pub p: usize,
    /// Elements of the domain local to each CPU.
    pub ne: u64,
    /// Computations per element per iteration.
    pub nc: u64,
    /// Remote writes per iteration (ring pattern).
    pub nw: u64,
    /// Iterations.
    pub iters: u64,
    /// Whether `optional_barrier()` is executed each iteration.
    pub barrier: bool,
    /// Scheduling mode.
    pub mode: BspMode,
    /// Per-thread compute imbalance in ppm: thread *i* computes
    /// `(1 + i/(P-1) * imbalance)` times the base work. Zero models the
    /// paper's "fully balanced" benchmark (§6.4) — the property barrier
    /// removal depends on; nonzero values let experiments measure how
    /// imbalance erodes barrier-free lock-step.
    pub imbalance_ppm: u64,
}

impl BspParams {
    /// The paper's "coarsest granularity" shape, scaled to run quickly:
    /// compute dominates the barrier.
    pub fn coarse(p: usize, iters: u64) -> Self {
        BspParams {
            p,
            ne: 2048,
            nc: 16,
            nw: 16,
            iters,
            barrier: true,
            mode: BspMode::Aperiodic,
            imbalance_ppm: 0,
        }
    }

    /// The paper's "finest granularity" shape: per-iteration work is
    /// comparable to the barrier and scheduling costs.
    pub fn fine(p: usize, iters: u64) -> Self {
        BspParams {
            p,
            ne: 64,
            nc: 4,
            nw: 8,
            iters,
            barrier: true,
            mode: BspMode::Aperiodic,
            imbalance_ppm: 0,
        }
    }

    /// Set the scheduling mode.
    pub fn with_mode(mut self, mode: BspMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable/disable the optional barrier.
    pub fn with_barrier(mut self, barrier: bool) -> Self {
        self.barrier = barrier;
        self
    }

    /// Set the per-thread compute imbalance.
    pub fn with_imbalance_ppm(mut self, ppm: u64) -> Self {
        self.imbalance_ppm = ppm;
        self
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BspResult {
    /// Per-thread execution time (ns) from successful admission (or start
    /// in aperiodic mode) to completing the last iteration.
    pub per_thread_ns: Vec<Nanos>,
    /// The benchmark's execution time: the slowest thread.
    pub max_ns: Nanos,
    /// Mean thread execution time.
    pub mean_ns: f64,
    /// Halo reads that observed a *stale* value (writer behind by more
    /// than one iteration).
    pub stale_reads: u64,
    /// Halo reads that observed a *future* value (writer overwrote data
    /// before it was consumed).
    pub torn_reads: u64,
    /// Deadline misses across all threads (RT mode).
    pub misses: u64,
    /// Whether group admission succeeded (always true in aperiodic mode).
    pub admitted: bool,
    /// Simulated machine events processed during the run (throughput
    /// instrumentation; populated by [`run_bsp`], zero from bare
    /// [`collect_bsp`] on a shared node).
    pub events: u64,
}

impl BspResult {
    /// Total synchronization violations.
    pub fn violations(&self) -> u64 {
        self.stale_reads + self.torn_reads
    }
}

/// Shared benchmark state across the P threads.
///
/// Halo data is double-buffered, as a correct single-barrier BSP code must
/// be: the writer of iteration k targets buffer `k % 2`, the reader of
/// iteration k consumes buffer `(k-1) % 2` at the *end* of its compute.
///
/// `optional_barrier()` is the benchmark's own **spin barrier** (a
/// sense-reversing counter in shared memory), exactly as an application
/// would write it: spinning threads keep consuming their slice, so under
/// real-time constraints a barrier wait burns guaranteed CPU time — the
/// cost the paper's barrier-removal experiment eliminates.
struct Shared {
    /// `tags[i][b][e]`: iteration number last written into thread i's halo
    /// buffer b, element e (`e < nw.min(ne)`), by its ring predecessor.
    tags: Vec<[Vec<i64>; 2]>,
    stale: u64,
    torn: u64,
    done_ns: Vec<Option<(Nanos, Nanos)>>, // (start, end) per thread
    admit_failed: bool,
    /// Spin-barrier arrival counter.
    barrier_count: usize,
    /// Spin-barrier sense flag.
    barrier_sense: bool,
}

enum Step {
    Join,
    /// Poll the member count until all P threads have joined: group
    /// admission requires settled membership (the paper's threads all
    /// join before the collective `nk_group_sched_change_constraints`).
    Settle,
    CheckSettle,
    Admit,
    AwaitAdmit,
    StartClock,
    Compute(u64),
    Communicate(u64),
    Barrier(u64),
    /// Spinning in the application barrier with the given local sense.
    BarrierSpin(u64, bool),
    EndClock,
    Done,
}

/// One BSP worker thread.
struct BspThread {
    idx: usize,
    params: BspParams,
    gid: GroupId,
    shared: Rc<RefCell<Shared>>,
    step: Step,
    compute_cycles: u64,
    write_cycles: u64,
    /// Cost of one contended RMW (barrier arrival).
    rmw_cycles: u64,
    /// Cost of one spin-wait check.
    spin_cycles: u64,
    start_ns: Nanos,
}

impl BspThread {
    /// Consume iteration `iter - 1`'s halo (at the end of iteration
    /// `iter`'s compute): buffer `(iter-1) % 2` must carry exactly tag
    /// `iter - 1`. Older means the writer fell behind the lock-step
    /// (stale); newer means the writer lapped the reader and destroyed
    /// unconsumed data (torn).
    fn check_halo(&self, iter: u64) {
        if iter == 0 {
            return;
        }
        let mut sh = self.shared.borrow_mut();
        let expect = iter as i64 - 1;
        let buf = ((iter - 1) % 2) as usize;
        let nw = self.params.nw.min(self.params.ne) as usize;
        for e in 0..nw {
            let tag = sh.tags[self.idx][buf][e];
            if tag < expect {
                sh.stale += 1;
            } else if tag > expect {
                sh.torn += 1;
            }
        }
    }

    fn write_halo(&self, iter: u64) {
        let mut sh = self.shared.borrow_mut();
        let succ = (self.idx + 1) % self.params.p;
        let buf = (iter % 2) as usize;
        let nw = self.params.nw.min(self.params.ne) as usize;
        for e in 0..nw {
            sh.tags[succ][buf][e] = iter as i64;
        }
    }
}

impl Program for BspThread {
    fn resume(&mut self, cx: &mut ResumeCx) -> Action {
        loop {
            match self.step {
                Step::Join => {
                    self.step = Step::Settle;
                    return Action::Call(SysCall::GroupJoin(self.gid));
                }
                Step::Settle => {
                    self.step = Step::CheckSettle;
                    return Action::Call(SysCall::GroupSize(self.gid));
                }
                Step::CheckSettle => {
                    if cx.result == SysResult::Value(self.params.p as u64) {
                        self.step = Step::Admit;
                    } else {
                        self.step = Step::Settle;
                        return Action::Call(SysCall::SleepNs(50_000));
                    }
                }
                Step::Admit => match self.params.mode {
                    BspMode::Aperiodic => {
                        self.step = Step::StartClock;
                    }
                    BspMode::RtGroup { period, slice } => {
                        self.step = Step::AwaitAdmit;
                        return Action::Call(SysCall::GroupChangeConstraints {
                            group: self.gid,
                            constraints: Constraints::Periodic {
                                phase: period / 2,
                                period,
                                slice,
                            },
                        });
                    }
                },
                Step::AwaitAdmit => {
                    if cx.result == SysResult::Admission(Ok(())) {
                        self.step = Step::StartClock;
                    } else {
                        self.shared.borrow_mut().admit_failed = true;
                        self.step = Step::Done;
                    }
                }
                Step::StartClock => {
                    self.start_ns = cx.now_ns;
                    self.step = Step::Compute(0);
                }
                Step::Compute(i) => {
                    if i >= self.params.iters {
                        self.step = Step::EndClock;
                        continue;
                    }
                    self.step = Step::Communicate(i);
                    return Action::Compute(self.compute_cycles.max(1));
                }
                Step::Communicate(i) => {
                    // End of compute: consume the previous iteration's halo
                    // and publish this iteration's remote writes.
                    self.check_halo(i);
                    self.write_halo(i);
                    self.step = Step::Barrier(i);
                    if self.write_cycles > 0 {
                        return Action::Compute(self.write_cycles);
                    }
                }
                Step::Barrier(i) => {
                    if !self.params.barrier {
                        self.step = Step::Compute(i + 1);
                        continue;
                    }
                    // Arrive: one contended RMW on the shared counter.
                    let mut sh = self.shared.borrow_mut();
                    let my_sense = sh.barrier_sense;
                    sh.barrier_count += 1;
                    if sh.barrier_count == self.params.p {
                        // Last arriver flips the sense and proceeds.
                        sh.barrier_count = 0;
                        sh.barrier_sense = !sh.barrier_sense;
                        drop(sh);
                        self.step = Step::Compute(i + 1);
                        return Action::Compute(self.rmw_cycles);
                    }
                    drop(sh);
                    self.step = Step::BarrierSpin(i, my_sense);
                    return Action::Compute(self.rmw_cycles);
                }
                Step::BarrierSpin(i, my_sense) => {
                    let released = self.shared.borrow().barrier_sense != my_sense;
                    if released {
                        self.step = Step::Compute(i + 1);
                    } else {
                        // One spin-check worth of busy waiting.
                        return Action::Compute(self.spin_cycles);
                    }
                }
                Step::EndClock => {
                    let mut sh = self.shared.borrow_mut();
                    sh.done_ns[self.idx] = Some((self.start_ns, cx.now_ns));
                    self.step = Step::Done;
                }
                Step::Done => return Action::Exit,
            }
        }
    }

    fn name(&self) -> &str {
        "bsp"
    }
}

/// A spawned-but-unfinished benchmark instance on a shared node: lets
/// several gangs (or a gang plus other load) coexist.
pub struct BspHandles {
    params: BspParams,
    tids: Vec<nautix_kernel::ThreadId>,
    shared: Rc<RefCell<Shared>>,
}

/// Spawn one benchmark instance on `node`. Worker *i* is bound to CPU
/// `cpu_base + i`. The instance's group is created here (no creation-order
/// races between co-resident gangs).
pub fn spawn_bsp(node: &mut Node, params: BspParams, cpu_base: usize) -> BspHandles {
    assert!(params.p >= 1);
    assert!(
        cpu_base >= 1 && cpu_base + params.p <= node.machine.n_cpus(),
        "workers {}..{} do not fit the machine",
        cpu_base,
        cpu_base + params.p
    );
    let gid = node.create_group("bsp");
    let cm = *node.machine.cost_model();
    let base_compute = params.ne * params.nc * cm.local_compute_unit.base;
    let write_cycles = params.nw * cm.remote_write.base;
    // A halo is the first `nw` elements (at most `ne`): no other tag is
    // ever read or written.
    let halo = params.nw.min(params.ne) as usize;
    let shared = Rc::new(RefCell::new(Shared {
        tags: (0..params.p)
            .map(|_| [vec![-1; halo], vec![-1; halo]])
            .collect(),
        stale: 0,
        torn: 0,
        done_ns: vec![None; params.p],
        admit_failed: false,
        barrier_count: 0,
        barrier_sense: false,
    }));
    let mut tids = Vec::with_capacity(params.p);
    for i in 0..params.p {
        // Per-thread imbalance: thread i carries up to `imbalance_ppm`
        // extra compute, linearly by index.
        let extra = if params.p > 1 {
            base_compute * params.imbalance_ppm * i as u64 / (params.p as u64 - 1) / 1_000_000
        } else {
            0
        };
        let t = BspThread {
            idx: i,
            params,
            gid,
            shared: shared.clone(),
            step: Step::Join,
            compute_cycles: base_compute + extra,
            write_cycles,
            rmw_cycles: cm.atomic_rmw_contended.base,
            spin_cycles: (cm.spin_check.base * 8).max(500),
            start_ns: 0,
        };
        let cpu: CpuId = cpu_base + i;
        tids.push(
            node.spawn_on(cpu, &format!("bsp{i}"), Box::new(t))
                .expect("spawn bsp thread"),
        );
    }
    BspHandles {
        params,
        tids,
        shared,
    }
}

/// Collect a finished instance's results (call after the node has run).
pub fn collect_bsp(node: &Node, handles: &BspHandles) -> BspResult {
    let sh = handles.shared.borrow();
    let per_thread_ns: Vec<Nanos> = sh
        .done_ns
        .iter()
        .map(|d| d.map(|(s, e)| e.saturating_sub(s)).unwrap_or(0))
        .collect();
    let max_ns = per_thread_ns.iter().copied().max().unwrap_or(0);
    let mean_ns = if per_thread_ns.is_empty() {
        0.0
    } else {
        per_thread_ns.iter().sum::<u64>() as f64 / per_thread_ns.len() as f64
    };
    let misses = handles
        .tids
        .iter()
        .map(|&t| node.thread_state(t).stats.missed)
        .sum();
    let _ = handles.params;
    BspResult {
        per_thread_ns,
        max_ns,
        mean_ns,
        stale_reads: sh.stale,
        torn_reads: sh.torn,
        misses,
        admitted: !sh.admit_failed,
        events: 0,
    }
}

/// Run the benchmark alone on a freshly booted node.
pub fn run_bsp(mut node_cfg: NodeConfig, params: BspParams) -> BspResult {
    assert!(
        params.p < node_cfg.machine.n_cpus,
        "need {} CPUs for P={} plus the interrupt-laden CPU 0",
        params.p + 1,
        params.p
    );
    // The benchmark threads are the only load; make sure thread capacity
    // fits the idle threads plus P workers.
    node_cfg.max_threads = node_cfg
        .max_threads
        .max(node_cfg.machine.n_cpus + params.p + 1);
    let mut node = Node::new(node_cfg);
    let handles = spawn_bsp(&mut node, params, 1);
    node.run_until_quiescent();
    let mut r = collect_bsp(&node, &handles);
    r.events = node.machine.events_processed();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautix_hw::MachineConfig;

    fn cfg(cpus: usize) -> NodeConfig {
        let mut c = NodeConfig::phi();
        c.machine = MachineConfig::phi().with_cpus(cpus).with_seed(77);
        c.sched = nautix_rt::SchedConfig::throughput();
        c
    }

    #[test]
    fn aperiodic_with_barriers_is_race_free() {
        let p = BspParams::fine(4, 20);
        let r = run_bsp(cfg(5), p);
        assert!(r.admitted);
        assert_eq!(r.violations(), 0, "barriers must eliminate violations");
        assert!(r.max_ns > 0);
        assert_eq!(r.per_thread_ns.len(), 4);
    }

    #[test]
    fn aperiodic_without_barriers_races_under_imbalance() {
        // Without barriers and without lock-step scheduling, imbalanced
        // ring neighbors drift apart and the halo checks must fire. (5%
        // imbalance over 100 iterations drifts several full iterations.)
        let p = BspParams::fine(4, 100)
            .with_barrier(false)
            .with_imbalance_ppm(50_000);
        let r = run_bsp(cfg(5), p);
        assert!(
            r.violations() > 0,
            "unsynchronized drifting BSP must exhibit violations"
        );
    }

    #[test]
    fn barriers_tolerate_imbalance() {
        let p = BspParams::fine(4, 100)
            .with_barrier(true)
            .with_imbalance_ppm(50_000);
        let r = run_bsp(cfg(5), p);
        assert_eq!(r.violations(), 0, "barriers must mask imbalance");
    }

    #[test]
    fn rt_group_without_barriers_stays_in_lockstep() {
        let p = BspParams::fine(4, 30)
            .with_barrier(false)
            .with_mode(BspMode::RtGroup {
                period: 1_000_000,
                slice: 800_000,
            });
        let r = run_bsp(cfg(5), p);
        assert!(r.admitted, "group admission must succeed");
        assert_eq!(
            r.violations(),
            0,
            "gang-scheduled lock-step must substitute for the barrier"
        );
    }

    #[test]
    fn throttling_scales_execution_time() {
        let base = BspParams::coarse(2, 20);
        let t_hi = run_bsp(
            cfg(3),
            base.with_mode(BspMode::RtGroup {
                period: 1_000_000,
                slice: 800_000,
            }),
        );
        let t_lo = run_bsp(
            cfg(3),
            base.with_mode(BspMode::RtGroup {
                period: 1_000_000,
                slice: 200_000,
            }),
        );
        assert!(t_hi.admitted && t_lo.admitted);
        let ratio = t_lo.max_ns as f64 / t_hi.max_ns as f64;
        // 80% vs 20% utilization: ~4x slower, with scheduling slack.
        assert!(
            (2.5..6.0).contains(&ratio),
            "throttling ratio {ratio} not commensurate (hi={} lo={})",
            t_hi.max_ns,
            t_lo.max_ns
        );
    }

    #[test]
    fn infeasible_group_constraints_fail_admission() {
        let p = BspParams::fine(2, 5).with_mode(BspMode::RtGroup {
            period: 100_000,
            slice: 99_900, // 99.9% > even the throughput config's 99%
        });
        let r = run_bsp(cfg(3), p);
        assert!(!r.admitted);
    }
}

//! The shared-memory x64 node: CPUs, clocks, interrupts, and missing time.
//!
//! [`Machine`] is a deterministic discrete-event model of the paper's
//! testbeds. The kernel layers above drive it through a small "hardware
//! interface": read/write TSCs, program one-shot timers, set the processor
//! priority, send kick IPIs, start computations, and charge the cycle cost
//! of kernel paths. [`Machine::advance`] plays events back in timestamp
//! order; the kernel reacts to each one exactly as an interrupt handler
//! would.
//!
//! # Execution model
//!
//! Each CPU does one thing at a time:
//!
//! * an **operation** (`begin_op`) models the current thread computing for
//!   a known number of cycles; it is preemptible (`cancel_op` returns the
//!   remaining cycles);
//! * a **charge** models non-preemptible kernel path time (interrupt
//!   handling, scheduler pass, context switch) and advances the CPU's
//!   `busy_until` horizon; interrupt deliveries that land inside a busy
//!   window are deferred to its end, exactly like interrupts held off by
//!   a critical section;
//! * an **SMI** stalls *every* CPU: in-flight operations stretch, busy
//!   windows extend, deliveries defer — but TSCs and timer deadlines keep
//!   advancing, so software observes missing time (§3.6).

use crate::apic::{Apic, TimerMode, VEC_DEVICE_BASE, VEC_KICK, VEC_TIMER};
use crate::cost::{Cost, CostModel};
use crate::fault::{FaultPlan, FaultStats};
use crate::smi::{SmiConfig, SmiStats};
use crate::timer::TimerSlots;
use crate::topology::{TopoMap, Topology};
use crate::tsc::Tsc;
use nautix_des::{Cycles, DetRng, EventId, EventQueue, Freq, Nanos};
use nautix_trace::{FaultLane, Kind, Record, TraceHandle, Tracing};

/// Index of a hardware thread ("CPU" in the paper's terminology).
pub type CpuId = usize;

/// The two evaluation platforms of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Colfax KNL Ninja: Xeon Phi 7210, 64 cores x 4 hardware threads,
    /// 1.3 GHz.
    Phi,
    /// Dell R415: dual AMD Opteron 4122, 8 cores, 2.2 GHz.
    R415,
}

impl Platform {
    /// Hardware thread count of the stock machine.
    pub fn default_cpus(&self) -> usize {
        match self {
            Platform::Phi => 256,
            Platform::R415 => 8,
        }
    }

    /// Core clock.
    pub fn freq(&self) -> Freq {
        match self {
            Platform::Phi => Freq::phi(),
            Platform::R415 => Freq::r415(),
        }
    }

    /// Calibrated cost model.
    pub fn cost_model(&self) -> CostModel {
        match self {
            Platform::Phi => CostModel::phi(),
            Platform::R415 => CostModel::r415(),
        }
    }

    /// Default timer mode: classic one-shot APIC countdown with the
    /// platform's tick quantum (neither testbed used TSC-deadline mode in
    /// the paper's configuration).
    pub fn timer_mode(&self) -> TimerMode {
        match self {
            // ~20 ns APIC tick at 1.3 GHz.
            Platform::Phi => TimerMode::OneShot { tick_cycles: 26 },
            // ~10 ns APIC tick at 2.2 GHz.
            Platform::R415 => TimerMode::OneShot { tick_cycles: 22 },
        }
    }
}

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Which testbed's frequency/cost calibration to use.
    pub platform: Platform,
    /// Number of hardware threads to model.
    pub n_cpus: usize,
    /// Timer hardware mode (override for the `abl_timer_mode` ablation).
    pub timer_mode: TimerMode,
    /// Whether TSCs can be written (§3.4).
    pub tsc_writable: bool,
    /// Maximum boot-time TSC phase skew, uniform per CPU. CPU 0 defines
    /// wall-clock and has zero offset.
    pub boot_skew_max: Cycles,
    /// SMI injection configuration.
    pub smi: SmiConfig,
    /// Fault-lane injection plan beyond SMIs (kick loss/delay, timer
    /// overshoot, frequency dips, spurious interrupts, per-CPU stalls).
    pub faults: FaultPlan,
    /// Package → LLC topology shape. Flat (the default) makes every hop
    /// same-LLC and is byte-identical to the pre-topology model; tree
    /// shapes make kick-IPI latency and steal costs distance-dependent.
    pub topology: Topology,
    /// Seed for all modeled jitter.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's primary testbed: a 256-CPU Phi.
    pub fn phi() -> Self {
        Self::for_platform(Platform::Phi)
    }

    /// The secondary testbed: an 8-CPU R415.
    pub fn r415() -> Self {
        Self::for_platform(Platform::R415)
    }

    /// Defaults for a platform.
    pub fn for_platform(platform: Platform) -> Self {
        MachineConfig {
            platform,
            n_cpus: platform.default_cpus(),
            timer_mode: platform.timer_mode(),
            tsc_writable: true,
            // Firmware brings APs up one after another; phases land within
            // a few milliseconds of each other before calibration.
            boot_skew_max: platform.freq().us_to_cycles(1500),
            smi: SmiConfig::disabled(),
            faults: FaultPlan::disabled(),
            topology: Topology::from_env(),
            seed: 0xAA71,
        }
    }

    /// Override the CPU count.
    pub fn with_cpus(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.n_cpus = n;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable SMI injection.
    pub fn with_smi(mut self, smi: SmiConfig) -> Self {
        self.smi = smi;
        self
    }

    /// Override the timer mode.
    pub fn with_timer_mode(mut self, mode: TimerMode) -> Self {
        self.timer_mode = mode;
        self
    }

    /// Enable fault-lane injection.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the topology shape (the `NAUTIX_TOPOLOGY` hatch picks the
    /// default; benches pin it explicitly for flat-vs-tree A/B sweeps).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

/// Events surfaced to the kernel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineEvent {
    /// The one-shot timer fired on `cpu`.
    TimerInterrupt { cpu: CpuId },
    /// A kick (or other) IPI arrived on `cpu`.
    Ipi { cpu: CpuId, vector: u8 },
    /// An external device interrupt was delivered to `cpu`.
    DeviceInterrupt { cpu: CpuId, irq: u8 },
    /// The operation started with `begin_op` ran to completion.
    OpComplete { cpu: CpuId, token: u64 },
    /// A node-level wakeup scheduled with `schedule_wakeup`.
    Wakeup { token: u64 },
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive {
        cpu: CpuId,
        vector: u8,
        irq: Option<u8>,
    },
    OpComplete {
        cpu: CpuId,
        seq: u64,
    },
    SmiEnter,
    /// Recurring fault lanes from the `FaultPlan`; the affected CPU is
    /// drawn when the event fires.
    FaultFreqDip,
    FaultSpuriousIrq,
    FaultCpuStall,
    Wakeup {
        token: u64,
        cpu: Option<CpuId>,
    },
}

/// One event drained by `pop_batch` into the machine's scratch buffer,
/// awaiting consumption. `dead` marks entries cancelled after the drain
/// (the batched analogue of removing a pending event from the queue).
#[derive(Debug, Clone, Copy)]
struct BatchEntry {
    time: Cycles,
    id: EventId,
    ev: Ev,
    dead: bool,
}

#[derive(Debug)]
struct InFlightOp {
    token: u64,
    seq: u64,
    start: Cycles,
    cycles: Cycles,
    stalled_add: Cycles,
    event: EventId,
}

#[derive(Debug)]
struct CpuState {
    tsc: Tsc,
    apic: Apic,
    busy_until: Cycles,
    /// Per-CPU stall horizon from single-CPU faults (stalls, dips); the
    /// machine-wide SMI stall lives in `Machine::stall_until`.
    stall_until: Cycles,
    op: Option<InFlightOp>,
}

/// The node model. See the module docs for the execution model.
pub struct Machine {
    cfg: MachineConfig,
    freq: Freq,
    cost: CostModel,
    topo: TopoMap,
    q: EventQueue<Ev>,
    /// Same-timestamp dispatch scratch: `advance` drains one whole instant
    /// here and consumes it across calls, so the queue sees one batched
    /// drain per timestamp instead of one pop per event. Allocation is
    /// retained across batches and resets.
    batch: Vec<BatchEntry>,
    batch_pos: usize,
    /// One pending one-shot deadline per CPU, kept out of the event queue so
    /// the scheduler's per-exit re-arm is an O(1) store (see [`TimerSlots`]).
    timers: TimerSlots,
    cpus: Vec<CpuState>,
    rng: DetRng,
    op_seq: u64,
    stall_until: Cycles,
    smi_stats: SmiStats,
    fault_stats: FaultStats,
    ipis_sent: u64,
    /// IPIs sent per hop-distance class, indexed by [`crate::Distance::index`]
    /// (same-LLC / same-package / cross-package). Flat topologies only
    /// ever touch slot 0.
    ipis_by_distance: [u64; 3],
    device_irqs: u64,
    trace: Option<TraceHandle>,
}

impl Machine {
    /// Build and "power on" a machine: TSCs get their boot skew, the SMI
    /// injector is armed, and the clock sits at zero. A powered-off shell
    /// of the right width, then [`Machine::reset`] — the one boot body.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut m = Machine {
            freq: cfg.platform.freq(),
            cost: cfg.platform.cost_model(),
            topo: TopoMap::new(cfg.topology, cfg.n_cpus),
            q: EventQueue::for_width(cfg.n_cpus),
            batch: Vec::new(),
            batch_pos: 0,
            timers: TimerSlots::new(cfg.n_cpus),
            cpus: Vec::with_capacity(cfg.n_cpus),
            rng: DetRng::seed_from(cfg.seed),
            op_seq: 0,
            stall_until: 0,
            smi_stats: SmiStats::default(),
            fault_stats: FaultStats::default(),
            ipis_sent: 0,
            ipis_by_distance: [0; 3],
            device_irqs: 0,
            trace: None,
            cfg: cfg.clone(),
        };
        m.reset(cfg);
        m
    }

    /// Schedule the first arrival of each enabled recurring fault lane, in
    /// a fixed order. Disabled lanes draw nothing — the all-disabled plan
    /// leaves both the RNG stream and the event heap untouched.
    fn arm_fault_lanes(faults: &FaultPlan, rng: &mut DetRng, q: &mut EventQueue<Ev>) {
        if let Some(gap) = faults.freq_dip.next_gap(rng) {
            q.schedule(gap, Ev::FaultFreqDip);
        }
        if let Some(gap) = faults.spurious_irq.next_gap(rng) {
            q.schedule(gap, Ev::FaultSpuriousIrq);
        }
        if let Some(gap) = faults.cpu_stall.next_gap(rng) {
            q.schedule(gap, Ev::FaultCpuStall);
        }
    }

    /// "Power-cycle" the machine in place for `cfg`, reusing the event
    /// queue's and CPU vector's allocations. This is the only boot body
    /// ([`Machine::new`] calls it on an empty shell): the RNG is reseeded
    /// and drawn in a fixed order (per-CPU boot skews, the first SMI gap,
    /// the fault lanes), so a reset machine is byte-for-byte a freshly
    /// constructed one — the foundation of pooled trial reuse.
    pub fn reset(&mut self, cfg: MachineConfig) {
        let mut rng = DetRng::seed_from(cfg.seed);
        self.freq = cfg.platform.freq();
        self.cost = cfg.platform.cost_model();
        self.cpus.clear();
        for i in 0..cfg.n_cpus {
            let offset = if i == 0 || cfg.boot_skew_max == 0 {
                0
            } else {
                rng.uniform(0, cfg.boot_skew_max) as i64
            };
            self.cpus.push(CpuState {
                tsc: Tsc::new(offset, cfg.tsc_writable),
                apic: Apic::new(cfg.timer_mode),
                busy_until: 0,
                stall_until: 0,
                op: None,
            });
        }
        self.q.reset_for_width(cfg.n_cpus);
        self.batch.clear();
        self.batch_pos = 0;
        if let Some(gap) = cfg.smi.pattern.next_gap(&mut rng) {
            self.q.schedule(gap, Ev::SmiEnter);
        }
        Self::arm_fault_lanes(&cfg.faults, &mut rng, &mut self.q);
        self.timers.reset(self.cpus.len());
        self.topo = TopoMap::new(cfg.topology, cfg.n_cpus);
        self.rng = rng;
        self.op_seq = 0;
        self.stall_until = 0;
        self.smi_stats = SmiStats::default();
        self.fault_stats = FaultStats::default();
        self.ipis_sent = 0;
        self.ipis_by_distance = [0; 3];
        self.device_irqs = 0;
        self.cfg = cfg;
        self.trace = None;
    }

    /// Install (or remove) the trace sink fed by this machine's timer and
    /// kick paths. Tracing never perturbs the simulation: no RNG draws, no
    /// event-queue traffic.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// True machine time. Kernel code must treat this as unobservable and
    /// go through [`Machine::read_tsc`]; harnesses use it as the external
    /// ground-truth clock (the "oscilloscope view").
    pub fn now(&self) -> Cycles {
        self.q.now()
    }

    /// Core frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The calibrated cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The resolved topology map (shape × CPU count).
    pub fn topology(&self) -> TopoMap {
        self.topo
    }

    /// Number of CPUs.
    pub fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Clocks
    // ------------------------------------------------------------------

    /// `rdtsc` on `cpu`.
    pub fn read_tsc(&self, cpu: CpuId) -> Cycles {
        self.cpus[cpu].tsc.read(self.q.now())
    }

    /// Adjust `cpu`'s TSC by a delta; the write lands with the platform's
    /// write-granularity slop. Returns false if unsupported.
    pub fn adjust_tsc(&mut self, cpu: CpuId, delta: i64) -> bool {
        let slop = self.cost.tsc_write_granularity.draw(&mut self.rng) as i64;
        self.cpus[cpu].tsc.adjust(delta + slop)
    }

    /// Ground-truth TSC phase of `cpu` (experiment reporting only).
    pub fn tsc_true_offset(&self, cpu: CpuId) -> i64 {
        self.cpus[cpu].tsc.true_offset()
    }

    // ------------------------------------------------------------------
    // Timers, IPIs, interrupts
    // ------------------------------------------------------------------

    /// Program `cpu`'s one-shot timer to fire after `delay_ns`. Re-arms
    /// (cancels) any previous programming. Returns the actual hardware
    /// delay in cycles after quantization.
    pub fn set_timer_ns(&mut self, cpu: CpuId, delay_ns: Nanos) -> Cycles {
        let delay = self.freq.ns_to_cycles(delay_ns);
        self.set_timer_cycles(cpu, delay)
    }

    /// Program `cpu`'s one-shot timer in raw cycles. Re-arming overwrites
    /// the slot in place — no event-queue traffic, no stale state.
    pub fn set_timer_cycles(&mut self, cpu: CpuId, delay: Cycles) -> Cycles {
        let now = self.q.now();
        let actual = self.cpus[cpu].apic.mode().quantize(delay);
        // An injected overshoot fires the one-shot late without telling
        // software: the returned delay stays the quantized request.
        let mut overshoot = 0;
        if FaultPlan::chance(self.cfg.faults.timer_overshoot_ppm, &mut self.rng) {
            overshoot = self.cfg.faults.timer_overshoot_extra.draw(&mut self.rng);
            self.fault_stats.timer_overshoots += 1;
            self.fault_stats.timer_overshoot_cycles += overshoot;
            if let Some(t) = self.trace.wants(Kind::Fault) {
                t.emit(Record::Fault {
                    cpu: cpu as u32,
                    lane: FaultLane::TimerOvershoot,
                    now_cycles: now,
                    magnitude_cycles: overshoot,
                });
            }
        }
        self.timers.arm(cpu, now + actual + overshoot);
        if let Some(t) = self.trace.wants(Kind::TimerArm) {
            t.emit(Record::TimerArm {
                cpu: cpu as u32,
                now_cycles: now,
                fire_at_cycles: now + actual + overshoot,
            });
        }
        actual
    }

    /// Disarm `cpu`'s one-shot timer.
    pub fn cancel_timer(&mut self, cpu: CpuId) {
        self.timers.disarm(cpu);
        if let Some(t) = self.trace.wants(Kind::TimerCancel) {
            t.emit(Record::TimerCancel {
                cpu: cpu as u32,
                now_cycles: self.q.now(),
            });
        }
    }

    /// The programmed timer deadline (true time), if armed.
    pub fn timer_deadline(&self, cpu: CpuId) -> Option<Cycles> {
        self.timers.deadline(cpu)
    }

    /// Total one-shot programmings performed, all CPUs (diagnostics).
    pub fn timer_programmings(&self) -> u64 {
        self.timers.arms()
    }

    /// Set `cpu`'s processor priority (TPR). Newly unblocked pending
    /// vectors are re-delivered.
    pub fn set_tpr(&mut self, cpu: CpuId, tpr: u8) {
        let released = self.cpus[cpu].apic.set_tpr(tpr);
        let now = self.q.now();
        for v in released {
            let irq = if (VEC_DEVICE_BASE..VEC_TIMER).contains(&v) {
                Some(v - VEC_DEVICE_BASE)
            } else {
                None
            };
            self.q.schedule(
                now,
                Ev::Arrive {
                    cpu,
                    vector: v,
                    irq,
                },
            );
        }
    }

    /// Current TPR of `cpu`.
    pub fn tpr(&self, cpu: CpuId) -> u8 {
        self.cpus[cpu].apic.tpr()
    }

    /// Send the scheduler kick IPI (§3.4). Subject to the fault plan's
    /// kick lanes: the send can be silently dropped in the interconnect
    /// or delivered late, both invisible to the sender.
    pub fn send_kick(&mut self, from: CpuId, to: CpuId) {
        if let Some(t) = self.trace.wants(Kind::Kick) {
            t.emit(Record::Kick {
                from: from as u32,
                to: to as u32,
                now_cycles: self.q.now(),
            });
        }
        if FaultPlan::chance(self.cfg.faults.kick_drop_ppm, &mut self.rng) {
            self.fault_stats.kicks_dropped += 1;
            if let Some(t) = self.trace.wants(Kind::Fault) {
                t.emit(Record::Fault {
                    cpu: to as u32,
                    lane: FaultLane::KickDrop,
                    now_cycles: self.q.now(),
                    magnitude_cycles: 0,
                });
            }
            return;
        }
        let mut extra = 0;
        if FaultPlan::chance(self.cfg.faults.kick_delay_ppm, &mut self.rng) {
            extra = self.cfg.faults.kick_delay_extra.draw(&mut self.rng);
            self.fault_stats.kicks_delayed += 1;
            self.fault_stats.kick_delay_cycles += extra;
            if let Some(t) = self.trace.wants(Kind::Fault) {
                t.emit(Record::Fault {
                    cpu: to as u32,
                    lane: FaultLane::KickDelay,
                    now_cycles: self.q.now(),
                    magnitude_cycles: extra,
                });
            }
        }
        debug_assert!(from < self.cpus.len() && to < self.cpus.len());
        self.ipis_sent += 1;
        let dist = self.topo.distance(from, to);
        self.ipis_by_distance[dist.index()] += 1;
        let latency = self.cost.ipi_latency_for(dist).draw(&mut self.rng) + extra;
        self.q.schedule_in(
            latency,
            Ev::Arrive {
                cpu: to,
                vector: VEC_KICK,
                irq: None,
            },
        );
    }

    /// Raise external device interrupt `irq` (0..=0x3F), steered to `cpu`.
    pub fn raise_irq(&mut self, cpu: CpuId, irq: u8) {
        assert!(irq < 0x40, "irq {irq} out of the device vector window");
        self.device_irqs += 1;
        let latency = self.cost.irq_raise_latency.draw(&mut self.rng);
        self.q.schedule_in(
            latency,
            Ev::Arrive {
                cpu,
                vector: VEC_DEVICE_BASE + irq,
                irq: Some(irq),
            },
        );
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Begin an operation of `cycles` on `cpu` for the current thread. The
    /// operation starts when the CPU's busy window ends and completes as a
    /// [`MachineEvent::OpComplete`] carrying `token`.
    ///
    /// Panics if an operation is already in flight on `cpu` — the kernel
    /// must preempt (`cancel_op`) before starting another.
    pub fn begin_op(&mut self, cpu: CpuId, cycles: Cycles, token: u64) {
        assert!(
            self.cpus[cpu].op.is_none(),
            "cpu {cpu} already has an operation in flight"
        );
        let now = self.q.now();
        let start = now
            .max(self.cpus[cpu].busy_until)
            .max(self.stall_until)
            .max(self.cpus[cpu].stall_until);
        self.op_seq += 1;
        let seq = self.op_seq;
        let completion = start + cycles;
        let ev = self.q.schedule(completion, Ev::OpComplete { cpu, seq });
        self.cpus[cpu].op = Some(InFlightOp {
            token,
            seq,
            start,
            cycles,
            stalled_add: 0,
            event: ev,
        });
    }

    /// Preempt the in-flight operation on `cpu`, if any, returning its
    /// token and remaining cycles.
    pub fn cancel_op(&mut self, cpu: CpuId) -> Option<(u64, Cycles)> {
        let now = self.q.now();
        let op = self.cpus[cpu].op.take()?;
        self.cancel_ev(op.event);
        let executed = now
            .saturating_sub(op.start)
            .saturating_sub(op.stalled_add)
            .min(op.cycles);
        Some((op.token, op.cycles - executed))
    }

    /// Whether `cpu` has an operation in flight.
    pub fn op_in_flight(&self, cpu: CpuId) -> bool {
        self.cpus[cpu].op.is_some()
    }

    /// Charge non-preemptible kernel path time on `cpu`: draws the cost and
    /// extends the CPU's busy window. Returns the drawn duration.
    ///
    /// Must not be called while an operation is in flight on `cpu` (the
    /// kernel preempts first); this is asserted.
    pub fn charge(&mut self, cpu: CpuId, cost: Cost) -> Cycles {
        debug_assert!(
            self.cpus[cpu].op.is_none(),
            "charging kernel time on cpu {cpu} while a thread op is in flight"
        );
        let d = cost.draw(&mut self.rng);
        self.charge_raw(cpu, d);
        d
    }

    /// Charge an exact, pre-drawn duration.
    pub fn charge_raw(&mut self, cpu: CpuId, cycles: Cycles) {
        let now = self.q.now();
        let stall = self.stall_until;
        let c = &mut self.cpus[cpu];
        c.busy_until = c.busy_until.max(now).max(stall).max(c.stall_until) + cycles;
    }

    /// End of `cpu`'s current busy window.
    pub fn busy_until(&self, cpu: CpuId) -> Cycles {
        self.cpus[cpu].busy_until
    }

    /// Draw a cost without charging it anywhere (for modeled delays the
    /// caller applies itself).
    pub fn draw(&mut self, cost: Cost) -> Cycles {
        cost.draw(&mut self.rng)
    }

    /// Deterministic uniform draw in `[lo, hi]` from the machine stream.
    pub fn rand_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.uniform(lo, hi)
    }

    /// Schedule a node-level wakeup at absolute true time `at`. If `cpu` is
    /// given, delivery defers like an interrupt (busy window + SMI);
    /// otherwise only SMIs defer it.
    pub fn schedule_wakeup(&mut self, at: Cycles, token: u64, cpu: Option<CpuId>) -> EventId {
        let at = at.max(self.q.now());
        self.q.schedule(at, Ev::Wakeup { token, cpu })
    }

    /// Cancel a wakeup scheduled earlier.
    pub fn cancel_wakeup(&mut self, ev: EventId) {
        self.cancel_ev(ev);
    }

    /// SMI ground truth so far.
    pub fn smi_stats(&self) -> SmiStats {
        self.smi_stats
    }

    /// Injected-fault ground truth so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// IPIs sent so far.
    pub fn ipis_sent(&self) -> u64 {
        self.ipis_sent
    }

    /// IPIs sent so far, broken down by hop distance — indexed by
    /// [`crate::Distance::index`] (same-LLC, same-package, cross-package).
    pub fn ipis_by_distance(&self) -> [u64; 3] {
        self.ipis_by_distance
    }

    /// Device interrupts raised so far.
    pub fn device_irqs(&self) -> u64 {
        self.device_irqs
    }

    /// Events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.q.events_processed()
    }

    /// Events currently pending (diagnostics): the global queue plus any
    /// live entries drained into the batch scratch but not yet consumed.
    /// Timer programmings live in the per-CPU slots and never appear here.
    pub fn event_backlog(&self) -> usize {
        self.q.backlog()
            + self.batch[self.batch_pos..]
                .iter()
                .filter(|e| !e.dead)
                .count()
    }

    // ------------------------------------------------------------------
    // The event pump
    // ------------------------------------------------------------------

    /// Advance to the next kernel-visible event, or `None` when both event
    /// sources drain (machine is quiescent).
    ///
    /// Two sources merge here in timestamp order: the global future-event
    /// queue and the per-CPU timer slots. A timer due no later than the
    /// queue head fires first — it models hardware raising the interrupt
    /// line, which precedes any same-instant software-visible event.
    ///
    /// Queue traffic is batched: when the scratch buffer is exhausted, one
    /// `pop_batch` drains every event at the next instant and subsequent
    /// calls consume the buffer. The observable stream — event order,
    /// trace records, counters — is identical to popping one event at a
    /// time: same-instant events already in the buffer precede events
    /// scheduled at that instant during their consumption (higher sequence
    /// numbers), exactly as the heap ordered them, and a timer armed
    /// mid-batch for the current instant still fires before the remaining
    /// entries (the unbatched merge fired on `deadline <= head`, equality
    /// included).
    pub fn advance(&mut self) -> Option<(Cycles, MachineEvent)> {
        loop {
            if self.batch_pos >= self.batch.len() {
                // Refill: fire every timer due no later than the queue
                // head (each firing may schedule an earlier head), then
                // drain the next instant wholesale.
                self.batch.clear();
                self.batch_pos = 0;
                while let Some((cpu, deadline)) = self.timers.due_before(self.q.peek_time()) {
                    self.fire_timer(cpu, deadline);
                }
                let batch = &mut self.batch;
                let n = self.q.pop_batch(|time, id, ev| {
                    batch.push(BatchEntry {
                        time,
                        id,
                        ev,
                        dead: false,
                    })
                });
                if n == 0 {
                    return None;
                }
                // Processed-event accounting happens per entry at consume
                // time below — the same observation points as unbatched
                // popping, so end-of-run totals and mid-run reads agree.
                self.q.forget_events(n as u64);
            }
            let t = self.batch[self.batch_pos].time;
            while let Some((cpu, deadline)) = self.timers.due_before(Some(t)) {
                self.fire_timer(cpu, deadline);
            }
            let i = self.batch_pos;
            self.batch_pos += 1;
            if self.batch[i].dead {
                continue;
            }
            self.q.note_external_events(1);
            let ev = self.batch[i].ev;
            match ev {
                Ev::SmiEnter => {
                    self.handle_smi_enter(t);
                }
                Ev::FaultFreqDip => {
                    self.handle_freq_dip(t);
                }
                Ev::FaultSpuriousIrq => {
                    self.handle_spurious_irq(t);
                }
                Ev::FaultCpuStall => {
                    self.handle_cpu_stall(t);
                }
                Ev::Arrive { cpu, vector, irq } => {
                    if let Some(deliver_at) = self.delivery_deferral(cpu, t) {
                        self.q.schedule(deliver_at, Ev::Arrive { cpu, vector, irq });
                        continue;
                    }
                    if self.cpus[cpu].apic.blocks(vector) {
                        self.cpus[cpu].apic.set_pending(vector);
                        continue;
                    }
                    let event = match (vector, irq) {
                        (VEC_TIMER, _) => MachineEvent::TimerInterrupt { cpu },
                        (_, Some(irq)) => MachineEvent::DeviceInterrupt { cpu, irq },
                        (v, None) => MachineEvent::Ipi { cpu, vector: v },
                    };
                    return Some((t, event));
                }
                Ev::OpComplete { cpu, seq } => {
                    let matches = self.cpus[cpu]
                        .op
                        .as_ref()
                        .map(|o| o.seq == seq)
                        .unwrap_or(false);
                    if matches {
                        let op = self.cpus[cpu].op.take().unwrap();
                        return Some((
                            t,
                            MachineEvent::OpComplete {
                                cpu,
                                token: op.token,
                            },
                        ));
                    }
                }
                Ev::Wakeup { token, cpu } => {
                    if let Some(c) = cpu {
                        if let Some(deliver_at) = self.delivery_deferral(c, t) {
                            self.q.schedule(deliver_at, Ev::Wakeup { token, cpu });
                            continue;
                        }
                    } else if t < self.stall_until {
                        self.q.schedule(self.stall_until, Ev::Wakeup { token, cpu });
                        continue;
                    }
                    return Some((t, MachineEvent::Wakeup { token }));
                }
            }
        }
    }

    /// Fire `cpu`'s one-shot at `deadline`: disarm, advance the clock,
    /// emit the trace record, and schedule the interrupt arrival after the
    /// modeled raise latency.
    fn fire_timer(&mut self, cpu: CpuId, deadline: Cycles) {
        self.timers.disarm(cpu);
        self.q.advance_to(deadline);
        self.q.note_external_events(1);
        if let Some(t) = self.trace.wants(Kind::TimerFire) {
            t.emit(Record::TimerFire {
                cpu: cpu as u32,
                at_cycles: deadline,
            });
        }
        let latency = self.cost.irq_raise_latency.draw(&mut self.rng);
        self.q.schedule(
            deadline + latency,
            Ev::Arrive {
                cpu,
                vector: VEC_TIMER,
                irq: None,
            },
        );
    }

    /// Cancel a pending event wherever it currently lives: still in the
    /// queue, or already drained into the batch scratch (where cancelling
    /// means marking the entry dead so consumption skips it — the batched
    /// analogue of removing it from the queue before it pops).
    fn cancel_ev(&mut self, id: EventId) -> bool {
        if self.q.cancel(id) {
            return true;
        }
        for e in &mut self.batch[self.batch_pos..] {
            if !e.dead && e.id == id {
                e.dead = true;
                return true;
            }
        }
        false
    }

    /// If delivery on `cpu` at time `t` must wait, returns when to retry.
    fn delivery_deferral(&self, cpu: CpuId, t: Cycles) -> Option<Cycles> {
        let horizon = self.cpus[cpu]
            .busy_until
            .max(self.stall_until)
            .max(self.cpus[cpu].stall_until);
        if t < horizon {
            Some(horizon)
        } else {
            None
        }
    }

    fn handle_smi_enter(&mut self, t: Cycles) {
        let d = self.cfg.smi.draw_duration(&mut self.rng).max(1);
        self.stall_until = t + d;
        self.smi_stats.count += 1;
        self.smi_stats.stalled_cycles += d;
        // Freeze all CPUs. Deliveries defer on the machine-wide
        // `stall_until`, so no per-CPU horizon is set.
        for cpu in 0..self.cpus.len() {
            self.stretch_cpu(cpu, t, d);
        }
        // Arm the next SMI.
        if let Some(gap) = self.cfg.smi.pattern.next_gap(&mut self.rng) {
            self.q.schedule(self.stall_until + gap, Ev::SmiEnter);
        }
    }

    /// Freeze a single CPU for `d` cycles at time `t`: the per-CPU
    /// analogue of the SMI freeze — the in-flight operation stretches,
    /// the busy window extends, deliveries defer — while every other CPU
    /// keeps running.
    fn stall_one_cpu(&mut self, cpu: CpuId, t: Cycles, d: Cycles) {
        let horizon = (t + d).max(self.cpus[cpu].stall_until);
        self.cpus[cpu].stall_until = horizon;
        self.stretch_cpu(cpu, t, d);
    }

    /// `cpu` executes nothing for `d` cycles from `t`: stretch its
    /// in-flight operation, re-schedule the completion, and extend an
    /// open busy window.
    fn stretch_cpu(&mut self, cpu: CpuId, t: Cycles, d: Cycles) {
        if let Some(op) = self.cpus[cpu].op.take() {
            self.cancel_ev(op.event);
            let completion = op.start + op.cycles + op.stalled_add + d;
            let ev = self
                .q
                .schedule(completion, Ev::OpComplete { cpu, seq: op.seq });
            self.cpus[cpu].op = Some(InFlightOp {
                stalled_add: op.stalled_add + d,
                event: ev,
                ..op
            });
        }
        let c = &mut self.cpus[cpu];
        if c.busy_until > t {
            c.busy_until += d;
        }
    }

    /// A transient frequency dip on one uniformly drawn CPU. A dip of
    /// wall-length `w` at a core running at `(100 - loss)%` speed costs
    /// the core `w * loss / 100` cycles of compute, which this models as
    /// a stall of exactly that aggregate length — equivalent lost work,
    /// one mechanism.
    fn handle_freq_dip(&mut self, t: Cycles) {
        let cpu = self.rng.uniform(0, (self.cpus.len() - 1) as u64) as CpuId;
        let window = self.cfg.faults.freq_dip_duration.draw(&mut self.rng).max(1);
        let lost = (window * self.cfg.faults.freq_dip_loss_pct as u64 / 100).max(1);
        self.fault_stats.freq_dips += 1;
        self.fault_stats.freq_dip_lost_cycles += lost;
        if let Some(trace) = self.trace.wants(Kind::Fault) {
            trace.emit(Record::Fault {
                cpu: cpu as u32,
                lane: FaultLane::FreqDip,
                now_cycles: t,
                magnitude_cycles: lost,
            });
        }
        self.stall_one_cpu(cpu, t, lost);
        if let Some(gap) = self.cfg.faults.freq_dip.next_gap(&mut self.rng) {
            self.q.schedule(t + window + gap, Ev::FaultFreqDip);
        }
    }

    /// A spurious device interrupt on one uniformly drawn CPU, delivered
    /// through the normal device-vector path: the kernel above sees a
    /// device interrupt nobody asked for and must shrug it off.
    fn handle_spurious_irq(&mut self, t: Cycles) {
        let cpu = self.rng.uniform(0, (self.cpus.len() - 1) as u64) as CpuId;
        let irq = self.cfg.faults.spurious_irq_line & 0x3F;
        self.fault_stats.spurious_irqs += 1;
        if let Some(trace) = self.trace.wants(Kind::Fault) {
            trace.emit(Record::Fault {
                cpu: cpu as u32,
                lane: FaultLane::SpuriousIrq,
                now_cycles: t,
                magnitude_cycles: 0,
            });
        }
        self.device_irqs += 1;
        let latency = self.cost.irq_raise_latency.draw(&mut self.rng);
        self.q.schedule_in(
            latency,
            Ev::Arrive {
                cpu,
                vector: VEC_DEVICE_BASE + irq,
                irq: Some(irq),
            },
        );
        if let Some(gap) = self.cfg.faults.spurious_irq.next_gap(&mut self.rng) {
            self.q.schedule(t + gap, Ev::FaultSpuriousIrq);
        }
    }

    /// A bounded stall of one uniformly drawn CPU (firmware or
    /// memory-controller hiccup); unlike an SMI, the other CPUs run on.
    fn handle_cpu_stall(&mut self, t: Cycles) {
        let cpu = self.rng.uniform(0, (self.cpus.len() - 1) as u64) as CpuId;
        let d = self
            .cfg
            .faults
            .cpu_stall_duration
            .draw(&mut self.rng)
            .max(1);
        self.fault_stats.cpu_stalls += 1;
        self.fault_stats.cpu_stall_cycles += d;
        if let Some(trace) = self.trace.wants(Kind::Fault) {
            trace.emit(Record::Fault {
                cpu: cpu as u32,
                lane: FaultLane::CpuStall,
                now_cycles: t,
                magnitude_cycles: d,
            });
        }
        self.stall_one_cpu(cpu, t, d);
        if let Some(gap) = self.cfg.faults.cpu_stall.next_gap(&mut self.rng) {
            self.q.schedule(t + d + gap, Ev::FaultCpuStall);
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.q.now())
            .field("n_cpus", &self.cpus.len())
            .field("platform", &self.cfg.platform)
            .finish()
    }
}

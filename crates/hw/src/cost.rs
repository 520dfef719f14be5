//! Calibrated cycle-cost model for kernel-visible hardware paths.
//!
//! The scheduler, kernel, and group code in this reproduction are real Rust
//! executed during simulation; what the paper measures, though, is the
//! *cycle cost* those paths have on real silicon. This module centralizes
//! every such constant, calibrated against the numbers the paper reports:
//!
//! * §5.3 / Figure 5: total local-scheduler software overhead on the Phi is
//!   ~6000 cycles per timer interrupt, "about half" of it the scheduling
//!   pass itself, the rest interrupt processing and the context switch. The
//!   R415's faster cores spend fewer cycles per path.
//! * §5.3 / Figures 6–7: feasibility edges around 10 µs (Phi) and 4 µs
//!   (R415) follow from those overheads (two interrupts per period).
//! * §4.4 / Figure 10: group-coordination costs are dominated by contended
//!   atomic read-modify-write operations and barrier release staggering.
//! * §3.4 / Figure 3: TSC read/write granularity bounds the achievable
//!   cross-CPU time synchronization (~1000 cycles over 256 CPUs).
//!
//! Every cost is a `(base, jitter)` pair: a deterministic path length plus
//! bounded uniform variation standing in for cache and pipeline state.

use crate::topology::Distance;
use nautix_des::{Cycles, DetRng};

/// A modeled cost: fixed base plus uniform jitter in `[0, jitter]` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Deterministic part of the path length, in cycles.
    pub base: Cycles,
    /// Upper bound of the uniform jitter added to `base`, in cycles.
    pub jitter: Cycles,
}

impl Cost {
    /// A cost with the given base and jitter.
    pub const fn new(base: Cycles, jitter: Cycles) -> Self {
        Cost { base, jitter }
    }

    /// A perfectly deterministic cost.
    pub const fn fixed(base: Cycles) -> Self {
        Cost { base, jitter: 0 }
    }

    /// Draw a concrete duration.
    pub fn draw(&self, rng: &mut DetRng) -> Cycles {
        rng.jitter(self.base, self.jitter)
    }

    /// Worst-case duration, used by admission-control accounting.
    pub fn worst(&self) -> Cycles {
        self.base + self.jitter
    }
}

/// The full set of modeled hardware/firmware path costs for one platform.
///
/// `Copy` on purpose: the model is a flat bag of `Cost` pairs (~320 bytes,
/// no heap), and the event hot path reads it on every interrupt. Callers
/// keep a copy by value instead of cloning through a reference each event.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Interrupt entry: vectoring, IDT dispatch, register save.
    pub irq_entry: Cost,
    /// Interrupt exit: register restore, `iret`.
    pub irq_exit: Cost,
    /// The local scheduler pass itself (queue pump + selection), excluding
    /// interrupt processing and the context switch.
    pub sched_pass: Cost,
    /// Incremental scheduler-pass cost per thread resident on this CPU
    /// (fixed-size heaps keep this small and bounded).
    pub sched_pass_per_thread: Cost,
    /// Bookkeeping around the pass that Figure 5 labels "Other"
    /// (state update, accounting, timer reprogram decision).
    pub sched_other: Cost,
    /// Hardware thread context switch (register state + stack swap).
    pub ctx_switch: Cost,
    /// Programming the APIC one-shot timer / TSC-deadline MSR.
    pub timer_program: Cost,
    /// Kick-IPI end-to-end delivery latency (send to remote vectoring).
    pub ipi_latency: Cost,
    /// Extra latency between a timer expiry and handler start.
    pub irq_raise_latency: Cost,
    /// Granularity (quantization + pipeline) error of one `rdtsc`-based
    /// timestamp exchange step during calibration.
    pub tsc_read_granularity: Cost,
    /// Error floor of a `wrmsr` to the TSC: the write itself takes time, so
    /// the value lands with this much slop (§3.4).
    pub tsc_write_granularity: Cost,
    /// A contended atomic read-modify-write on a shared cache line,
    /// serialized per contender (group join/barrier arrival).
    pub atomic_rmw_contended: Cost,
    /// An uncontended atomic / shared-line access.
    pub atomic_rmw: Cost,
    /// Per-waiter staggering of barrier release: invalidations of the flag
    /// line reach spinners one cache-line transfer apart. This is the δ the
    /// phase-correction algorithm of §4.4 measures and corrects for.
    pub barrier_release_stagger: Cost,
    /// One iteration of a spin-wait check loop.
    pub spin_check: Cost,
    /// A bounded device-interrupt handler (Nautilus drivers are written
    /// with deterministic path length, §2).
    pub device_handler: Cost,
    /// Thread creation/launch path (stack + context from the buddy
    /// allocator; "orders of magnitude faster" than user-level, §2).
    pub thread_spawn: Cost,
    /// Local admission-control processing for one change-constraints call
    /// (runs in the calling thread's context, §3.2).
    pub admission_local: Cost,
    /// One remote write to another CPU's element (BSP communication).
    pub remote_write: Cost,
    /// One local element computation unit in the BSP benchmark.
    pub local_compute_unit: Cost,
    /// Kick-IPI delivery latency when source and destination share a
    /// package but not an LLC (on-die interconnect hop). The same-LLC
    /// case *is* [`ipi_latency`](Self::ipi_latency) — the paper's flat
    /// calibration — so flat topologies draw the identical cost.
    pub ipi_latency_same_package: Cost,
    /// Kick-IPI delivery latency across packages (socket interconnect).
    pub ipi_latency_cross_package: Cost,
    /// One steal-probe read of a victim's queue length when the victim is
    /// in the same package but a different LLC (the same-LLC probe is
    /// [`atomic_rmw`](Self::atomic_rmw) — the line may already be shared).
    pub steal_probe_same_package: Cost,
    /// A steal-probe read across packages.
    pub steal_probe_cross_package: Cost,
    /// Taking a victim's queue lock plus dragging the stolen thread's hot
    /// state across an LLC boundary within one package (same-LLC is
    /// [`atomic_rmw_contended`](Self::atomic_rmw_contended)).
    pub steal_lock_same_package: Cost,
    /// Lock plus migration cost across packages — the working set refills
    /// through the interconnect.
    pub steal_lock_cross_package: Cost,
}

impl CostModel {
    /// Calibration for the Intel Xeon Phi 7210 (KNL) at 1.3 GHz: slow,
    /// in-order-ish cores; ~6000-cycle scheduler overhead per interrupt
    /// (Figure 5a); 10 µs feasibility edge (Figure 6).
    pub fn phi() -> Self {
        CostModel {
            irq_entry: Cost::new(750, 550),
            irq_exit: Cost::new(300, 200),
            sched_pass: Cost::new(2300, 1350),
            sched_pass_per_thread: Cost::new(18, 6),
            sched_other: Cost::new(450, 300),
            ctx_switch: Cost::new(700, 580),
            timer_program: Cost::new(180, 40),
            ipi_latency: Cost::new(1500, 400),
            irq_raise_latency: Cost::new(120, 60),
            tsc_read_granularity: Cost::new(90, 220),
            tsc_write_granularity: Cost::new(150, 400),
            atomic_rmw_contended: Cost::new(4200, 1600),
            atomic_rmw: Cost::new(220, 80),
            barrier_release_stagger: Cost::new(180, 70),
            spin_check: Cost::new(110, 30),
            device_handler: Cost::new(2600, 700),
            thread_spawn: Cost::new(2200, 500),
            admission_local: Cost::new(11000, 2000),
            remote_write: Cost::new(520, 160),
            local_compute_unit: Cost::new(42, 8),
            // KNL's mesh makes tile-to-tile hops cheap but far-quadrant and
            // (hypothetical multi-package) hops expensive: ~1.6x and ~3x the
            // same-LLC IPI respectively.
            ipi_latency_same_package: Cost::new(2400, 600),
            ipi_latency_cross_package: Cost::new(4500, 1100),
            steal_probe_same_package: Cost::new(520, 160),
            steal_probe_cross_package: Cost::new(1100, 300),
            steal_lock_same_package: Cost::new(5400, 1800),
            steal_lock_cross_package: Cost::new(8200, 2400),
        }
    }

    /// Calibration for the Dell R415 (dual AMD Opteron 4122, 2.2 GHz):
    /// faster single-thread cores, lower path costs in cycles *and* time
    /// (§5.3), giving the ~4 µs feasibility edge of Figure 7.
    pub fn r415() -> Self {
        CostModel {
            irq_entry: Cost::new(540, 130),
            irq_exit: Cost::new(200, 50),
            sched_pass: Cost::new(1450, 240),
            sched_pass_per_thread: Cost::new(9, 3),
            sched_other: Cost::new(330, 90),
            ctx_switch: Cost::new(560, 140),
            timer_program: Cost::new(110, 25),
            ipi_latency: Cost::new(900, 250),
            irq_raise_latency: Cost::new(80, 40),
            tsc_read_granularity: Cost::new(60, 140),
            tsc_write_granularity: Cost::new(100, 260),
            atomic_rmw_contended: Cost::new(700, 260),
            atomic_rmw: Cost::new(120, 40),
            barrier_release_stagger: Cost::new(90, 40),
            spin_check: Cost::new(60, 20),
            device_handler: Cost::new(1500, 400),
            thread_spawn: Cost::new(1300, 300),
            admission_local: Cost::new(5200, 900),
            remote_write: Cost::new(280, 90),
            local_compute_unit: Cost::new(20, 4),
            // The R415 is a real dual-socket box: HyperTransport hops cost
            // roughly 1.5x (on-die) and 3x (cross-socket) the local IPI.
            ipi_latency_same_package: Cost::new(1400, 350),
            ipi_latency_cross_package: Cost::new(2600, 700),
            steal_probe_same_package: Cost::new(260, 80),
            steal_probe_cross_package: Cost::new(560, 160),
            steal_lock_same_package: Cost::new(950, 300),
            steal_lock_cross_package: Cost::new(1500, 450),
        }
    }

    /// Kick-IPI delivery latency for a hop of the given distance. The
    /// same-LLC arm returns the flat model's `ipi_latency` field itself,
    /// so a flat topology (where every hop is same-LLC) draws exactly the
    /// costs — and exactly the RNG sequence — it always has.
    pub fn ipi_latency_for(&self, d: Distance) -> Cost {
        match d {
            Distance::SameLlc => self.ipi_latency,
            Distance::SamePackage => self.ipi_latency_same_package,
            Distance::CrossPackage => self.ipi_latency_cross_package,
        }
    }

    /// Steal-probe cost (one remote queue-length read) at a distance.
    pub fn steal_probe_for(&self, d: Distance) -> Cost {
        match d {
            Distance::SameLlc => self.atomic_rmw,
            Distance::SamePackage => self.steal_probe_same_package,
            Distance::CrossPackage => self.steal_probe_cross_package,
        }
    }

    /// Steal lock + migration cost at a distance.
    pub fn steal_lock_for(&self, d: Distance) -> Cost {
        match d {
            Distance::SameLlc => self.atomic_rmw_contended,
            Distance::SamePackage => self.steal_lock_same_package,
            Distance::CrossPackage => self.steal_lock_cross_package,
        }
    }

    /// Mean scheduler software overhead of one timer interrupt.
    pub fn mean_interrupt_overhead(&self, resident_threads: u64) -> Cycles {
        let mean = |c: Cost| c.base + c.jitter / 2;
        mean(self.irq_entry)
            + mean(self.sched_pass)
            + mean(self.sched_pass_per_thread) * resident_threads
            + mean(self.sched_other)
            + mean(self.ctx_switch)
            + mean(self.timer_program)
            + mean(self.irq_exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_overhead_matches_paper_ballpark() {
        // §5.3: "On the Phi, the software overhead is about 6000 cycles."
        let m = CostModel::phi();
        let mean = m.mean_interrupt_overhead(4);
        assert!(
            (5200..=6800).contains(&mean),
            "Phi mean interrupt overhead {mean} out of the paper's ballpark"
        );
    }

    #[test]
    fn phi_sched_pass_is_about_half_of_overhead() {
        // §5.3: "About half of the overhead involves the scheduling pass."
        let m = CostModel::phi();
        let pass = m.sched_pass.base + m.sched_pass.jitter / 2;
        let total = m.mean_interrupt_overhead(0);
        let frac = pass as f64 / total as f64;
        assert!((0.40..=0.60).contains(&frac), "pass fraction {frac}");
    }

    #[test]
    fn r415_is_cheaper_in_cycles_than_phi() {
        let phi = CostModel::phi();
        let r = CostModel::r415();
        assert!(r.mean_interrupt_overhead(4) < phi.mean_interrupt_overhead(4));
    }

    #[test]
    fn r415_feasibility_edge_near_4us() {
        // Two interrupts per period; the edge is where overhead eats the
        // whole period. 4 µs at 2.2 GHz is 8800 cycles.
        let r = CostModel::r415();
        let per_period = 2 * r.mean_interrupt_overhead(2);
        assert!(
            per_period < 8800 && per_period > 4400,
            "per-period overhead {per_period} inconsistent with a 4 µs edge"
        );
    }

    #[test]
    fn distance_costs_are_monotone_in_hops() {
        for m in [CostModel::phi(), CostModel::r415()] {
            for (near, mid, far) in [
                (
                    m.ipi_latency_for(Distance::SameLlc),
                    m.ipi_latency_for(Distance::SamePackage),
                    m.ipi_latency_for(Distance::CrossPackage),
                ),
                (
                    m.steal_probe_for(Distance::SameLlc),
                    m.steal_probe_for(Distance::SamePackage),
                    m.steal_probe_for(Distance::CrossPackage),
                ),
                (
                    m.steal_lock_for(Distance::SameLlc),
                    m.steal_lock_for(Distance::SamePackage),
                    m.steal_lock_for(Distance::CrossPackage),
                ),
            ] {
                assert!(near.worst() < mid.worst() && mid.worst() < far.worst());
            }
        }
    }

    #[test]
    fn same_llc_costs_are_the_flat_fields() {
        // The byte-identity contract: flat topology resolves every hop to
        // SameLlc, which must be the *same* Cost object the flat model used.
        let m = CostModel::phi();
        assert_eq!(m.ipi_latency_for(Distance::SameLlc), m.ipi_latency);
        assert_eq!(m.steal_probe_for(Distance::SameLlc), m.atomic_rmw);
        assert_eq!(m.steal_lock_for(Distance::SameLlc), m.atomic_rmw_contended);
    }

    #[test]
    fn cost_draw_within_bounds() {
        let c = Cost::new(100, 40);
        let mut rng = DetRng::seed_from(5);
        for _ in 0..200 {
            let v = c.draw(&mut rng);
            assert!((100..=140).contains(&v));
        }
        assert_eq!(c.worst(), 140);
        assert_eq!(Cost::fixed(7).draw(&mut rng), 7);
    }
}

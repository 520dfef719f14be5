//! Scheduler statistics: what the evaluation measures.
//!
//! Every figure in §5 is computed from one of these records: per-thread
//! deadline outcomes (Figures 6–9), and — observed on the trace stream —
//! per-CPU overhead breakdowns ([`OverheadLog`], Figure 5) and per-thread
//! dispatch timestamps ([`DispatchStamps`], Figures 11–12).

use nautix_des::{Cycles, Nanos, OnlineStats, Summary};
use nautix_hw::CpuId;
use nautix_kernel::ThreadId;
use nautix_trace::{Kind, Kinds, Observer, Record, TraceRing, TRACE_TID_IDLE};

/// Per-thread real-time accounting.
#[derive(Debug, Clone, Default)]
pub struct ThreadRtStats {
    /// Jobs that arrived (periodic arrivals or the sporadic burst).
    pub arrivals: u64,
    /// Jobs whose slice completed by the deadline.
    pub met: u64,
    /// Jobs that completed late.
    pub missed: u64,
    /// How late the late jobs were, in nanoseconds.
    pub miss_times: OnlineStats,
    /// Total execution received, in cycles.
    pub executed_cycles: Cycles,
    /// Context switches *to* this thread.
    pub dispatches: u64,
}

impl ThreadRtStats {
    /// Deadline miss rate in [0, 1] over completed jobs.
    pub fn miss_rate(&self) -> f64 {
        let done = self.met + self.missed;
        if done == 0 {
            0.0
        } else {
            self.missed as f64 / done as f64
        }
    }

    /// Summary of miss times (ns).
    pub fn miss_time_summary(&self) -> Summary {
        self.miss_times.summary()
    }
}

/// One local-scheduler invocation's overhead breakdown (Figure 5):
/// interrupt entry/exit, everything-else bookkeeping, the scheduling pass,
/// and the context switch, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadSample {
    /// Interrupt entry + exit.
    pub irq: Cycles,
    /// Bookkeeping around the pass ("Other").
    pub other: Cycles,
    /// The scheduling pass ("Resched").
    pub resched: Cycles,
    /// The context switch ("Switch"); zero when the same thread continues.
    pub switch: Cycles,
}

impl OverheadSample {
    /// Total software overhead of the invocation.
    pub fn total(&self) -> Cycles {
        self.irq + self.other + self.resched + self.switch
    }
}

/// Degraded-mode activations on one CPU (see
/// [`crate::admission::DegradePolicy`]). All zero unless the policy is
/// enabled and interference actually forced a response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Sporadic jobs demoted to aperiodic after overrunning a deadline.
    pub sporadic_demotions: u64,
    /// Periodic reservations revoked and resubmitted with a wider period.
    pub periodic_widenings: u64,
    /// Periodic threads demoted to aperiodic (widening rounds exhausted or
    /// the widened set rejected).
    pub periodic_demotions: u64,
}

impl DegradeStats {
    /// Total degradation activations of any kind.
    pub fn total(&self) -> u64 {
        self.sporadic_demotions + self.periodic_widenings + self.periodic_demotions
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &DegradeStats) {
        self.sporadic_demotions += other.sporadic_demotions;
        self.periodic_widenings += other.periodic_widenings;
        self.periodic_demotions += other.periodic_demotions;
    }
}

/// Incremental-admission-engine counters on one CPU's ledger (see
/// [`crate::admission::CpuLoad`]). All zero when the `HyperperiodSim`
/// policy never runs and no re-admission ever fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// `HyperperiodSim` verdicts served from the memo cache.
    pub sim_hits: u64,
    /// `HyperperiodSim` verdicts computed fresh by the demand criterion
    /// (cache misses, or every verdict on a ledger without a cache), not
    /// simulations run.
    pub sim_misses: u64,
    /// Ledger rollbacks: failed re-admissions (or failed team
    /// transactions) that restored previously held reservations.
    pub rollbacks: u64,
}

impl AdmissionStats {
    /// Total engine activity of any kind.
    pub fn total(&self) -> u64 {
        self.sim_hits + self.sim_misses + self.rollbacks
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.sim_hits += other.sim_hits;
        self.sim_misses += other.sim_misses;
        self.rollbacks += other.rollbacks;
    }
}

/// Per-CPU scheduler counters and samples.
#[derive(Debug, Default)]
pub struct CpuSchedStats {
    /// Local scheduler invocations.
    pub invocations: u64,
    /// Timer-interrupt invocations specifically.
    pub timer_invocations: u64,
    /// Kick-IPI invocations.
    pub kick_invocations: u64,
    /// Context switches performed.
    pub switches: u64,
    /// Threads stolen *by* this CPU's work stealer.
    pub steals: u64,
    /// Steals broken down by thief→victim hop distance, indexed by
    /// `Distance::index()` (same-LLC / same-package / cross-package).
    /// Flat topologies only ever touch slot 0.
    pub steals_by_distance: [u64; 3],
    /// Size-tagged tasks executed inline by the scheduler.
    pub inline_tasks: u64,
    /// Layer throttle events: a layer's token bucket went empty and its
    /// threads became ineligible until the next replenish. Always zero on
    /// the default single-layer config.
    pub layer_throttles: u64,
    /// Layer bucket refills at replenish-window boundaries (one per
    /// configured layer per refill pass).
    pub layer_replenishes: u64,
    /// Degraded-mode activations (all zero unless the policy is enabled).
    pub degrade: DegradeStats,
}

/// Figure 5's view of the trace stream: the overhead breakdown of every
/// timer/kick interrupt on one CPU, in order.
#[derive(Debug)]
pub struct OverheadLog {
    cpu: CpuId,
    samples: Vec<OverheadSample>,
}

impl OverheadLog {
    /// A log of `cpu`'s interrupts.
    pub fn new(cpu: CpuId) -> Self {
        OverheadLog {
            cpu,
            samples: Vec::new(),
        }
    }

    /// The samples so far.
    pub fn samples(&self) -> &[OverheadSample] {
        &self.samples
    }

    /// Summaries of each overhead component across samples.
    pub fn summaries(&self) -> OverheadBreakdown {
        let mut irq = OnlineStats::new();
        let mut other = OnlineStats::new();
        let mut resched = OnlineStats::new();
        let mut switch = OnlineStats::new();
        for s in &self.samples {
            irq.push(s.irq);
            other.push(s.other);
            resched.push(s.resched);
            if s.switch > 0 {
                switch.push(s.switch);
            }
        }
        OverheadBreakdown {
            irq: irq.summary(),
            other: other.summary(),
            resched: resched.summary(),
            switch: switch.summary(),
        }
    }
}

impl Observer for OverheadLog {
    fn kinds(&self) -> Kinds {
        Kinds::of(&[Kind::IrqExit])
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        if let Record::IrqExit {
            cpu,
            irq_cycles,
            other_cycles,
            resched_cycles,
            switch_cycles,
            ..
        } = *r
        {
            if cpu as CpuId == self.cpu {
                self.samples.push(OverheadSample {
                    irq: irq_cycles.into(),
                    other: other_cycles.into(),
                    resched: resched_cycles.into(),
                    switch: switch_cycles.into(),
                });
            }
        }
    }
}

/// Summaries of the four Figure-5 overhead components.
#[derive(Debug, Clone, Copy)]
pub struct OverheadBreakdown {
    /// Interrupt entry + exit.
    pub irq: Summary,
    /// Bookkeeping ("Other").
    pub other: Summary,
    /// Scheduling pass ("Resched").
    pub resched: Summary,
    /// Context switch ("Switch"), over invocations that switched.
    pub switch: Summary,
}

/// Figures 11–12's view of the trace stream: per thread, the wall-clock
/// instant of each switch to it, keeping the first `cap`. Threads are
/// keyed by id for the observer's lifetime (one trial).
#[derive(Debug)]
pub struct DispatchStamps {
    cap: usize,
    logs: Vec<Vec<Nanos>>,
}

impl DispatchStamps {
    /// Stamps of at most `cap` dispatches per thread.
    pub fn new(cap: usize) -> Self {
        DispatchStamps {
            cap,
            logs: Vec::new(),
        }
    }

    /// `tid`'s dispatch stamps, oldest first (empty if it never ran).
    pub fn times(&self, tid: ThreadId) -> &[Nanos] {
        self.logs.get(tid).map_or(&[], Vec::as_slice)
    }
}

impl Observer for DispatchStamps {
    fn kinds(&self) -> Kinds {
        Kinds::of(&[Kind::Switch])
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        let Record::Switch { next, wall_ns, .. } = *r else {
            return;
        };
        if next == TRACE_TID_IDLE || self.cap == 0 {
            return;
        }
        let tid = next as usize;
        if tid >= self.logs.len() {
            self.logs.resize_with(tid + 1, Vec::new);
        }
        let log = &mut self.logs[tid];
        if log.is_empty() {
            // A thread's first stamp: its log's one allocation.
            log.reserve_exact(self.cap.min(1 << 20));
        }
        if log.len() < self.cap {
            log.push(wall_ns);
        }
    }
}

/// Given one dispatch log per group member, the per-index spread:
/// `max_i(t[k][i]) - min_i(t[k][i])` for each invocation index k present in
/// all logs. This is exactly what Figures 11 and 12 plot.
pub fn dispatch_spreads(logs: &[&[Nanos]]) -> Vec<u64> {
    let Some(min_len) = logs.iter().map(|l| l.len()).min() else {
        return Vec::new();
    };
    (0..min_len)
        .map(|k| {
            let mut lo = u64::MAX;
            let mut hi = 0;
            for l in logs {
                lo = lo.min(l[k]);
                hi = hi.max(l[k]);
            }
            hi - lo
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_arithmetic() {
        let mut s = ThreadRtStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        s.met = 3;
        s.missed = 1;
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overhead_sample_total() {
        let s = OverheadSample {
            irq: 1000,
            other: 500,
            resched: 3000,
            switch: 900,
        };
        assert_eq!(s.total(), 5400);
    }

    #[test]
    fn switch_summary_skips_non_switching_invocations() {
        let mut c = OverheadLog::new(1);
        let ring = TraceRing::new(1);
        for (cpu, switch_cycles) in [(1, 0), (0, 5), (1, 10)] {
            let r = Record::IrqExit {
                cpu,
                irq_end_cycles: 0,
                irq_cycles: 1,
                other_cycles: 1,
                resched_cycles: 1,
                switch_cycles,
            };
            c.on_record(&r, &ring);
        }
        let b = c.summaries();
        assert_eq!(b.irq.n, 2);
        assert_eq!(b.switch.n, 1);
        assert_eq!(b.switch.mean, 10.0);
    }

    #[test]
    fn log_keeps_the_first_cap_stamps() {
        let mut s = DispatchStamps::new(2);
        let ring = TraceRing::new(1);
        for (next, wall_ns) in [(3, 10), (TRACE_TID_IDLE, 11), (5, 12), (3, 13), (3, 14)] {
            let r = Record::Switch {
                cpu: 0,
                prev: TRACE_TID_IDLE,
                next,
                at_cycles: 0,
                wall_ns,
            };
            s.on_record(&r, &ring);
        }
        assert_eq!(s.times(3), &[10, 13]);
        assert_eq!(s.times(5), &[12]);
        assert!(s.times(4).is_empty() && s.times(99).is_empty());
    }

    #[test]
    fn spreads_are_max_minus_min_per_index() {
        let a: Vec<Nanos> = (0..3).map(|k| 1000 * k + 5).collect();
        let mut b: Vec<Nanos> = (0..3).map(|k| 1000 * k).collect();
        let c: Vec<Nanos> = (0..3).map(|k| 1000 * k + 17).collect();
        b.push(9999); // extra entry in one log is ignored
        let spreads = dispatch_spreads(&[&a, &b, &c]);
        assert_eq!(spreads, vec![17, 17, 17]);
    }

    #[test]
    fn spreads_of_empty_input() {
        assert!(dispatch_spreads(&[]).is_empty());
    }
}

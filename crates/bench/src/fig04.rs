//! Figure 4: external (scope) verification of hard real-time scheduling.
//!
//! The paper drives a parallel port from the scheduler and watches it on a
//! DSO: the *test thread* trace (top) stays sharp while the *scheduler*
//! (middle) and *interrupt handler* (bottom) traces show fuzz. Our scope is
//! a [`GpioProbe`] on the node's trace stream, capturing on true machine
//! time; "sharpness" becomes period jitter statistics per pin.

use crate::common::Scale;
use nautix_hw::scope::PinAnalysis;
use nautix_hw::{GpioProbe, MachineConfig};
use nautix_kernel::{constrained_loop, Constraints};
use nautix_rt::{Node, NodeConfig};

/// The three analyzed traces.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// Pin 0: the test thread's active/inactive trace.
    pub thread: PinAnalysis,
    /// Pin 1: the local scheduler pass.
    pub scheduler: PinAnalysis,
    /// Pin 2: the timer interrupt handler.
    pub interrupt: PinAnalysis,
    /// The programmed period in cycles, for reference.
    pub period_cycles: u64,
}

/// Run the scope experiment: a periodic thread with τ = 100 µs,
/// σ = 50 µs, as in the figure.
pub fn run(scale: Scale, seed: u64) -> Fig04 {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(2).with_seed(seed);
    let mut node = Node::new(cfg);
    let prog = constrained_loop(Constraints::periodic(100_000, 50_000).build(), 13_000);
    let tid = node.spawn_on(1, "test", Box::new(prog)).unwrap();
    let probe = node.observe(GpioProbe::new(tid as u32));
    let horizon_ns = match scale {
        Scale::Quick => 20_000_000,  // 200 periods
        Scale::Paper => 100_000_000, // 1000 periods
    };
    node.run_for_ns(horizon_ns);
    let freq = node.freq();
    // Drop the admission transient (the thread's brief aperiodic life)
    // from the analyzed window, like triggering the scope after steady
    // state is reached.
    let settle = freq.ns_to_cycles(2_000_000);
    let trace: Vec<_> = probe
        .borrow()
        .trace()
        .iter()
        .copied()
        .filter(|s| s.time > settle)
        .collect();
    Fig04 {
        thread: nautix_hw::scope::analyze(&trace, 0),
        scheduler: nautix_hw::scope::analyze(&trace, 1),
        interrupt: nautix_hw::scope::analyze(&trace, 2),
        period_cycles: freq.ns_to_cycles(100_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_trace_is_sharp_and_duty_cycle_slightly_over_half() {
        let r = run(Scale::Quick, 3);
        assert!(r.thread.pulses > 150, "pulses={}", r.thread.pulses);
        // Period locked to 100 us (130_000 cycles at 1.3 GHz).
        assert!(
            (r.thread.periods.mean - r.period_cycles as f64).abs() < 500.0,
            "thread period mean {}",
            r.thread.periods.mean
        );
        // "The scheduler keeps the test thread trace sharp": jitter well
        // under 1% of the period.
        assert!(
            r.thread.periods.std_dev < 0.01 * r.period_cycles as f64,
            "thread period jitter {}",
            r.thread.periods.std_dev
        );
        // "Its active time includes the scheduler time, which is why the
        // duty cycle is slightly higher than 50%."
        assert!(
            (0.50..0.60).contains(&r.thread.duty_cycle),
            "duty cycle {}",
            r.thread.duty_cycle
        );
    }

    #[test]
    fn scheduler_and_interrupt_traces_show_fuzz() {
        let r = run(Scale::Quick, 3);
        // The handler/scheduler pulse widths vary (the "fuzz"), unlike the
        // thread trace.
        assert!(r.interrupt.high_widths.std_dev > 0.0);
        assert!(r.scheduler.high_widths.std_dev > 0.0);
        // Scheduler pass sits inside the interrupt pulse: narrower.
        assert!(r.scheduler.high_widths.mean < r.interrupt.high_widths.mean);
    }
}

//! The Figure 4 scope: GPIO (parallel port) capture and its analysis.
//!
//! §5.2: "A hard real-time scheduler, because it operates in sync with wall
//! clock time, must be verified by timing methods external to the machine."
//! The paper's authors soldered a parallel-port interface and watched it
//! with a Rigol DSO; a single `outb` toggles all 8 pins.
//!
//! Here the external observer is the simulator itself. [`GpioProbe`] reads
//! the node's trace stream and replays the `outb`s the paper's kernel made
//! — pin 0 around the watched thread's activity, pin 1 around the
//! scheduling pass, pin 2 around the interrupt handler — each against
//! *true machine time* (not any CPU's TSC), so the capture is exactly as
//! external as the scope was. [`scope`] turns a capture into the
//! statistics Figure 4 shows visually: per-pin edges, pulse widths,
//! periods, and the "fuzz" (jitter) of each trace.

use nautix_des::{Cycles, Summary};
use nautix_trace::{Kind, Kinds, Observer, Record, TraceRing, TraceTid};

/// One recorded GPIO sample: the port state immediately after a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpioSample {
    /// True machine time of the write.
    pub time: Cycles,
    /// All 8 pins after the write.
    pub pins: u8,
}

/// The parallel-port wiring of §5.2 as a trace observer: the 8-pin port
/// state plus every write since it was registered.
#[derive(Debug)]
pub struct GpioProbe {
    watch: TraceTid,
    pins: u8,
    trace: Vec<GpioSample>,
}

impl GpioProbe {
    /// A probe whose pin 0 follows thread `watch`, all pins low.
    pub fn new(watch: TraceTid) -> Self {
        GpioProbe {
            watch,
            pins: 0,
            trace: Vec::new(),
        }
    }

    /// Write the pins selected by `mask` to the corresponding bits of
    /// `value` at `at`, like an `outb` through a mask register.
    fn write(&mut self, at: Cycles, mask: u8, value: u8) {
        self.pins = (self.pins & !mask) | (value & mask);
        self.trace.push(GpioSample {
            time: at,
            pins: self.pins,
        });
    }

    /// The capture, in write order.
    pub fn trace(&self) -> &[GpioSample] {
        &self.trace
    }
}

impl Observer for GpioProbe {
    fn kinds(&self) -> Kinds {
        Kinds::of(&[Kind::IrqEnter, Kind::Switch, Kind::IrqExit])
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        match *r {
            Record::IrqEnter {
                irq_start_cycles,
                pass_start_cycles,
                pass_end_cycles,
                ..
            } => {
                self.write(irq_start_cycles, 0b100, 0b100);
                self.write(pass_start_cycles, 0b010, 0b010);
                self.write(pass_end_cycles, 0b010, 0);
            }
            // "The test thread is marked as active/inactive at the end of
            // the scheduler pass" (§5.2).
            Record::Switch {
                prev,
                next,
                at_cycles,
                ..
            } => {
                if prev == self.watch {
                    self.write(at_cycles, 0b001, 0);
                }
                if next == self.watch {
                    self.write(at_cycles, 0b001, 0b001);
                }
            }
            Record::IrqExit { irq_end_cycles, .. } => self.write(irq_end_cycles, 0b100, 0),
            _ => {}
        }
    }
}

/// Scope-style analysis of a captured GPIO trace.
pub mod scope {
    use super::*;

    /// One logic edge on a pin.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Edge {
        /// Time of the transition.
        pub time: Cycles,
        /// True for a rising edge.
        pub rising: bool,
    }

    /// Extract the edges of one pin from a trace.
    pub fn edges(trace: &[GpioSample], pin: u8) -> Vec<Edge> {
        assert!(pin < 8);
        let bit = 1u8 << pin;
        let mut out = Vec::new();
        let mut last = false;
        let mut first = true;
        for s in trace {
            let level = s.pins & bit != 0;
            if first {
                first = false;
                last = level;
                continue;
            }
            if level != last {
                out.push(Edge {
                    time: s.time,
                    rising: level,
                });
                last = level;
            }
        }
        out
    }

    /// What the scope shows for one trace: where Figure 4 shows a sharp
    /// line, the jitter summary is tight; where it shows fuzz, it is wide.
    #[derive(Debug, Clone)]
    pub struct PinAnalysis {
        /// Durations of high pulses, in cycles.
        pub high_widths: Summary,
        /// Rising-edge-to-rising-edge periods, in cycles.
        pub periods: Summary,
        /// Duty cycle over the analyzed window, in `[0, 1]`.
        pub duty_cycle: f64,
        /// Number of complete pulses observed.
        pub pulses: u64,
    }

    /// Analyze one pin of a capture.
    pub fn analyze(trace: &[GpioSample], pin: u8) -> PinAnalysis {
        let es = edges(trace, pin);
        let mut highs = Vec::new();
        let mut periods = Vec::new();
        let mut last_rise: Option<Cycles> = None;
        let mut high_total: u64 = 0;
        let mut span_start: Option<Cycles> = None;
        let mut span_end: Option<Cycles> = None;
        let mut i = 0;
        while i < es.len() {
            let e = es[i];
            span_start.get_or_insert(e.time);
            span_end = Some(e.time);
            if e.rising {
                if let Some(prev) = last_rise {
                    periods.push(e.time - prev);
                }
                last_rise = Some(e.time);
                // Find the matching falling edge.
                if let Some(fall) = es[i + 1..].iter().find(|x| !x.rising) {
                    let w = fall.time - e.time;
                    highs.push(w);
                    high_total += w;
                }
            }
            i += 1;
        }
        let window = match (span_start, span_end) {
            (Some(a), Some(b)) if b > a => (b - a) as f64,
            _ => 0.0,
        };
        PinAnalysis {
            high_widths: Summary::of(&highs),
            periods: Summary::of(&periods),
            duty_cycle: if window > 0.0 {
                high_total as f64 / window
            } else {
                0.0
            },
            pulses: highs.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scope::*;
    use super::*;

    fn set_pin(gpio: &mut GpioProbe, at: Cycles, pin: u8, high: bool) {
        gpio.write(at, 1 << pin, if high { 1 << pin } else { 0 });
    }

    fn square_wave(gpio: &mut GpioProbe, pin: u8, period: u64, high: u64, cycles: u64) {
        // Establish the initial low level so the first rise is a real edge.
        set_pin(gpio, 0, pin, false);
        let mut t = period;
        for _ in 0..cycles {
            set_pin(gpio, t, pin, true);
            set_pin(gpio, t + high, pin, false);
            t += period;
        }
    }

    #[test]
    fn writes_respect_mask() {
        let mut g = GpioProbe::new(0);
        g.write(0, 0b0000_1111, 0b1010_1010);
        assert_eq!(g.pins, 0b0000_1010);
        g.write(1, 0b1111_0000, 0b0101_0101);
        assert_eq!(g.pins, 0b0101_1010);
    }

    #[test]
    fn pin0_follows_only_the_watched_thread() {
        let mut g = GpioProbe::new(7);
        let ring = TraceRing::new(1);
        let switch = |prev, next, at_cycles| Record::Switch {
            cpu: 1,
            prev,
            next,
            at_cycles,
            wall_ns: 0,
        };
        g.on_record(&switch(3, 4, 10), &ring);
        assert!(g.trace().is_empty(), "no write for other threads");
        g.on_record(&switch(3, 7, 20), &ring);
        g.on_record(&switch(7, 3, 30), &ring);
        let t = g.trace();
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].time, t[0].pins), (20, 1));
        assert_eq!((t[1].time, t[1].pins), (30, 0));
    }

    #[test]
    fn edge_extraction_ignores_redundant_writes() {
        let mut g = GpioProbe::new(0);
        set_pin(&mut g, 0, 3, false); // establishes initial level
        set_pin(&mut g, 10, 3, true);
        set_pin(&mut g, 11, 3, true); // redundant, no edge
        set_pin(&mut g, 20, 3, false);
        let es = edges(g.trace(), 3);
        assert_eq!(es.len(), 2);
        assert!(es[0].rising && es[0].time == 10);
        assert!(!es[1].rising && es[1].time == 20);
    }

    #[test]
    fn perfect_square_wave_has_zero_jitter_and_right_duty() {
        let mut g = GpioProbe::new(0);
        // 100 µs period, 50 µs high at 1.3 GHz, like Figure 4's thread.
        square_wave(&mut g, 0, 130_000, 65_000, 50);
        let a = analyze(g.trace(), 0);
        assert_eq!(a.pulses, 50);
        assert_eq!(a.periods.std_dev, 0.0);
        assert_eq!(a.high_widths.mean, 65_000.0);
        assert!((a.duty_cycle - 0.5).abs() < 0.02);
    }

    #[test]
    fn jittery_wave_shows_fuzz() {
        let mut g = GpioProbe::new(0);
        let mut t = 0u64;
        for i in 0..50u64 {
            let j = (i * 37) % 1000; // deterministic pseudo-jitter
            set_pin(&mut g, t + j, 1, true);
            set_pin(&mut g, t + j + 65_000, 1, false);
            t += 130_000;
        }
        let a = analyze(g.trace(), 1);
        assert!(a.periods.std_dev > 0.0, "expected fuzz on the trace");
    }

    #[test]
    fn analysis_of_empty_trace_is_benign() {
        let a = analyze(&[], 0);
        assert_eq!(a.pulses, 0);
        assert_eq!(a.duty_cycle, 0.0);
    }
}

//! Execution timelines: record who ran where, render it as ASCII.
//!
//! The paper verifies its scheduler with an oscilloscope; the simulator
//! can do one better and draw the whole machine. A [`Timeline`] collects
//! context-switch events per CPU and renders a Gantt-style chart — handy
//! for eyeballing gang lock-step, slice boundaries, and interference:
//!
//! ```text
//! cpu 1 |AAAA....AAAA....AAAA....|
//! cpu 2 |BBBB....BBBB....BBBB....|
//! ```

use nautix_des::{Cycles, Freq, Nanos};
use nautix_hw::CpuId;
use nautix_kernel::ThreadId;
use nautix_trace::{Kind, Kinds, Observer, Record, TraceRing, TRACE_TID_IDLE};
use std::collections::BTreeMap;

/// One execution span of a thread on a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where it ran.
    pub cpu: CpuId,
    /// Which thread ran (`None` = the idle thread).
    pub tid: Option<ThreadId>,
    /// Start, wall-clock ns.
    pub start_ns: Nanos,
    /// End, wall-clock ns.
    pub end_ns: Nanos,
}

/// A bounded recorder of per-CPU execution spans; as an observer of a
/// node's trace stream it records every context switch, at the switch
/// point's true time converted at the node's core frequency.
#[derive(Debug)]
pub struct Timeline {
    spans: Vec<Span>,
    open: Vec<Option<(Option<ThreadId>, Nanos)>>,
    cap: usize,
    freq: Freq,
}

impl Timeline {
    /// A recorder for `n_cpus` CPUs at core frequency `freq`, holding at
    /// most `cap` spans.
    pub fn new(n_cpus: usize, cap: usize, freq: Freq) -> Self {
        Timeline {
            spans: Vec::new(),
            open: vec![None; n_cpus],
            cap,
            freq,
        }
    }

    /// Record that `cpu` switched to `to` (None = idle) at `at_ns`,
    /// closing whatever ran before.
    pub fn switch(&mut self, cpu: CpuId, to: Option<ThreadId>, at_ns: Nanos) {
        if let Some((tid, start)) = self.open[cpu].take() {
            if at_ns > start && self.spans.len() < self.cap {
                self.spans.push(Span {
                    cpu,
                    tid,
                    start_ns: start,
                    end_ns: at_ns,
                });
            }
        }
        self.open[cpu] = Some((to, at_ns));
    }

    /// Close all open spans at true machine time `now` (the end of the
    /// observation).
    pub fn finish(&mut self, now: Cycles) {
        let at_ns = self.freq.cycles_to_ns(now);
        for cpu in 0..self.open.len() {
            if let Some((tid, start)) = self.open[cpu].take() {
                if at_ns > start && self.spans.len() < self.cap {
                    self.spans.push(Span {
                        cpu,
                        tid,
                        start_ns: start,
                        end_ns: at_ns,
                    });
                }
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render the window `[from_ns, to_ns)` as `cols` columns of ASCII,
    /// one row per CPU that has any span in the window. Threads get stable
    /// symbols in first-seen order; idle is `.`, and a column where more
    /// than one thread ran is shown as the one occupying its start.
    pub fn render(&self, from_ns: Nanos, to_ns: Nanos, cols: usize) -> String {
        assert!(to_ns > from_ns && cols > 0);
        const SYMBOLS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let mut symbol_of: BTreeMap<ThreadId, char> = BTreeMap::new();
        let mut order: Vec<ThreadId> = Vec::new();
        for s in &self.spans {
            if let Some(t) = s.tid {
                symbol_of.entry(t).or_insert_with(|| {
                    let c = SYMBOLS[order.len() % SYMBOLS.len()] as char;
                    order.push(t);
                    c
                });
            }
        }
        let width = to_ns - from_ns;
        let mut rows: BTreeMap<CpuId, Vec<char>> = BTreeMap::new();
        for s in &self.spans {
            if s.end_ns <= from_ns || s.start_ns >= to_ns {
                continue;
            }
            let row = rows.entry(s.cpu).or_insert_with(|| vec!['.'; cols]);
            let a = s.start_ns.max(from_ns) - from_ns;
            let b = s.end_ns.min(to_ns) - from_ns;
            let c0 = (a as u128 * cols as u128 / width as u128) as usize;
            let c1 = ((b as u128 * cols as u128).div_ceil(width as u128) as usize).min(cols);
            let ch = s.tid.map(|t| symbol_of[&t]).unwrap_or('.');
            for cell in row.iter_mut().take(c1).skip(c0) {
                if *cell == '.' {
                    *cell = ch;
                }
            }
        }
        let mut out = String::new();
        for (cpu, row) in &rows {
            out.push_str(&format!("cpu {cpu:>3} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        if !order.is_empty() {
            out.push_str("legend:");
            for t in &order {
                out.push_str(&format!(" {}=tid{}", symbol_of[t], t));
            }
            out.push('\n');
        }
        out
    }
}

impl Observer for Timeline {
    fn kinds(&self) -> Kinds {
        Kinds::of(&[Kind::Switch])
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        if let Record::Switch {
            cpu,
            next,
            at_cycles,
            ..
        } = *r
        {
            let to = (next != TRACE_TID_IDLE).then_some(next as ThreadId);
            self.switch(cpu as CpuId, to, self.freq.cycles_to_ns(at_cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cycle per nanosecond.
    fn ghz() -> Freq {
        Freq::from_mhz(1000)
    }

    #[test]
    fn spans_close_on_switch_and_finish() {
        let mut t = Timeline::new(2, 100, ghz());
        t.switch(0, Some(5), 0);
        t.switch(0, None, 100);
        t.switch(0, Some(6), 150);
        t.switch(1, Some(7), 50);
        t.finish(200);
        assert_eq!(
            t.spans(),
            &[
                Span {
                    cpu: 0,
                    tid: Some(5),
                    start_ns: 0,
                    end_ns: 100
                },
                Span {
                    cpu: 0,
                    tid: None,
                    start_ns: 100,
                    end_ns: 150
                },
                Span {
                    cpu: 0,
                    tid: Some(6),
                    start_ns: 150,
                    end_ns: 200
                },
                Span {
                    cpu: 1,
                    tid: Some(7),
                    start_ns: 50,
                    end_ns: 200
                },
            ]
        );
    }

    #[test]
    fn render_shows_alternating_execution() {
        let mut t = Timeline::new(1, 100, ghz());
        // 50% duty cycle: thread 3 runs the first half of each period.
        for k in 0..4u64 {
            t.switch(0, Some(3), k * 100);
            t.switch(0, None, k * 100 + 50);
        }
        t.finish(400);
        let s = t.render(0, 400, 40);
        assert!(
            s.contains("cpu   0 |AAAAA.....AAAAA.....AAAAA.....AAAAA.....|"),
            "got:\n{s}"
        );
        assert!(s.contains("legend: A=tid3"));
    }

    #[test]
    fn render_gang_lock_step_rows_match() {
        let mut t = Timeline::new(3, 1000, ghz());
        for cpu in 0..3 {
            for k in 0..3u64 {
                t.switch(cpu, Some(10 + cpu), k * 100);
                t.switch(cpu, None, k * 100 + 30);
            }
        }
        t.finish(300);
        let s = t.render(0, 300, 30);
        let rows: Vec<&str> = s.lines().filter(|l| l.starts_with("cpu")).collect();
        assert_eq!(rows.len(), 3);
        // Same shape on each CPU, different symbols.
        let shape = |r: &str| {
            r.chars()
                .map(|c| if c == '.' { '.' } else { 'x' })
                .collect::<String>()
        };
        assert_eq!(shape(rows[0]), shape(rows[1]));
        assert_eq!(shape(rows[1]), shape(rows[2]));
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Timeline::new(1, 2, ghz());
        for k in 0..10u64 {
            t.switch(0, Some(1), k * 10);
        }
        t.finish(100);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let mut t = Timeline::new(1, 10, ghz());
        t.switch(0, Some(1), 50);
        t.switch(0, Some(2), 50); // immediately replaced
        t.finish(60);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].tid, Some(2));
    }
}

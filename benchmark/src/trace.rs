//! Spans recorded from outside the program, around the calls into each
//! layer. Kept in memory for the whole run and written to
//! `benchmark/out/trace.<workload>.json` when it ends; a layer's self time
//! is its spans' duration minus the part their children cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one trial (or one cluster run) share an identifier.
    pub trial: u32,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

/// Spans written to the trace file; the aggregates cover all of them.
const MAX_WRITTEN_SPANS: usize = 20_000;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, trial: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            trial,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Record a span whose bounds were taken by the caller (offsets from
    /// an instant of its own), e.g. stamps collected inside a callback.
    pub fn push_closed(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trial: u32,
        base: Instant,
        start_ns: u64,
        end_ns: u64,
    ) {
        let shift = base.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: shift + start_ns,
            end_ns: shift + end_ns,
            parent: parent.map(|p| p.0),
            trial,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total duration per span name, ns.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Self time per span name, ns: duration minus the children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// The trace document: the first spans verbatim, per-name totals and
    /// self times over all of them, and the per-layer metrics the run
    /// measured.
    pub fn to_json(&self, workload: &str, measured: &BTreeMap<&'static str, f64>) -> Value {
        let spans = self
            .spans
            .iter()
            .take(MAX_WRITTEN_SPANS)
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("trial", Value::Num(f64::from(s.trial))),
                ])
            })
            .collect();
        let table = |m: BTreeMap<&'static str, u64>| {
            Value::Obj(
                m.into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
                    .collect(),
            )
        };
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("spans_recorded", Value::Num(self.spans.len() as f64)),
            ("total_ns", table(self.total_ns())),
            ("self_ns", table(self.self_ns())),
            (
                "per_layer",
                Value::Obj(
                    measured
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", Value::Arr(spans)),
        ])
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let base = r.t0;
        r.push_closed("trial", None, 0, base, 0, 100);
        let parent = Some(SpanId(0));
        r.push_closed("boot", parent, 0, base, 10, 40);
        r.push_closed("run", parent, 0, base, 40, 95);
        let own = r.self_ns();
        assert_eq!(own["trial"], 15);
        assert_eq!(own["boot"], 30);
        assert_eq!(own["run"], 55);
        assert_eq!(r.total_ns()["trial"], 100);
    }
}

//! Parallel trial harness: fan independent simulation trials across OS
//! threads with deterministic results.
//!
//! Every experiment in this crate decomposes into *trials* — independent
//! simulations distinguished by their parameters (seed, utilization point,
//! CPU count, granularity). Each trial builds its own [`Machine`](nautix_hw::Machine)
//! (`nautix_hw`) from its own seed, so trials share no mutable state and
//! their results depend only on their parameters, never on which worker
//! thread ran them or in what order. [`run_trials`] exploits that: workers
//! pull trial indices from a shared atomic counter, results land in
//! index-addressed slots, and the returned vector is always in input order
//! — a parallel run is byte-identical to a serial one.
//!
//! Thread count comes from the [`HarnessConfig`] passed to the trial
//! runners. Binaries build one with [`HarnessConfig::from_env`] (where
//! `NAUTIX_THREADS` survives as the compat shim, defaulting to the host's
//! available parallelism); tests construct one explicitly. A config with
//! `threads: 1` gives a plain serial run.
//!
//! Every trial is instrumented: the harness records per-trial wall time and
//! simulated-event count (the DES hot-path metric) and aggregates them into
//! [`HarnessStats`]. `repro_all` collects one `HarnessStats` per experiment
//! section into a [`BenchReport`] and prints the totals.

use nautix_rt::HarnessConfig;
use nautix_stats::{StatsSnapshot, StatsTx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The process-wide stats stream, when one is installed.
///
/// `repro_all` (and tests) install a [`StatsTx`] here with
/// [`set_stats_stream`]; trial runners publish per-trial deltas through
/// [`stream_delta`], and [`run_trials_pooled`] publishes per-shard
/// heartbeats. With no stream installed every hook is a no-op, so sweeps
/// pay one relaxed `OnceLock` load + mutex probe per trial.
fn stats_stream() -> &'static Mutex<Option<StatsTx>> {
    static STREAM: OnceLock<Mutex<Option<StatsTx>>> = OnceLock::new();
    STREAM.get_or_init(|| Mutex::new(None))
}

/// Install (or with `None`, remove) the process-wide stats stream.
///
/// The returned previous value keeps its hub alive until dropped; callers
/// that temporarily swap a stream in (tests) should restore it.
pub fn set_stats_stream(tx: Option<StatsTx>) -> Option<StatsTx> {
    std::mem::replace(&mut *stats_stream().lock().unwrap(), tx)
}

/// Publish one trial's delta snapshot to the installed stream, if any.
/// The hub sums deltas into its running total, so callers must send each
/// trial exactly once.
pub fn stream_delta(snap: &StatsSnapshot) {
    if let Some(tx) = &*stats_stream().lock().unwrap() {
        tx.delta(*snap);
    }
}

/// Publish one worker heartbeat (shard throughput only; never totals).
fn stream_beat(shard: usize, trials: u64, events: u64, wall_nanos: u64) {
    if let Some(tx) = &*stats_stream().lock().unwrap() {
        tx.beat(shard, trials, events, wall_nanos);
    }
}

// The worker-owned node cache moved into `nautix_rt` (so the cluster
// layer's shard fleets can pool without depending on this crate); the
// re-export keeps every existing `harness::NodePool` path working.
pub use nautix_rt::NodePool;

/// Aggregate instrumentation for one batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessStats {
    /// Number of trials run.
    pub trials: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole batch, seconds.
    pub wall_secs: f64,
    /// Sum of per-trial wall times, seconds (the serial-equivalent time).
    pub cpu_secs: f64,
    /// Total simulated events across all trials.
    pub events: u64,
    /// Per-trial wall time, in input order, seconds.
    pub trial_wall_secs: Vec<f64>,
    /// Per-trial simulated-event count, in input order.
    pub trial_events: Vec<u64>,
}

impl HarnessStats {
    /// Simulated events per wall-clock second — the DES throughput metric.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// cpu_secs / wall_secs: effective parallel speedup of the batch.
    pub fn speedup(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cpu_secs / self.wall_secs
        } else {
            1.0
        }
    }

    /// Merge another batch into this one (sections built from several
    /// `run_trials` calls).
    pub fn merge(&mut self, other: &HarnessStats) {
        self.trials += other.trials;
        self.threads = self.threads.max(other.threads);
        self.wall_secs += other.wall_secs;
        self.cpu_secs += other.cpu_secs;
        self.events += other.events;
        self.trial_wall_secs
            .extend_from_slice(&other.trial_wall_secs);
        self.trial_events.extend_from_slice(&other.trial_events);
    }
}

/// `N trials on M threads, W s wall, E events (R events/s)`: the one line
/// every sweep binary prints per batch.
impl std::fmt::Display for HarnessStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials on {} threads, {:.2}s wall, {} events ({:.0} events/s)",
            self.trials,
            self.threads,
            self.wall_secs,
            self.events,
            self.events_per_sec()
        )
    }
}

/// Results plus instrumentation from [`run_trials`].
#[derive(Debug)]
pub struct TrialSet<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// Batch instrumentation.
    pub stats: HarnessStats,
}

/// Run `f` over every item, fanned across `hc.threads` worker threads.
///
/// `f` maps an item to `(result, simulated_events)`. It must be a pure
/// function of the item — build the simulation from parameters carried *in*
/// the item (including the RNG seed); never derive anything from thread
/// identity or execution order. Under that contract the output is
/// independent of the thread count: `results[i]` is `f(&items[i]).0`
/// exactly, whether the batch ran on one thread or sixteen.
pub fn run_trials<I, R, F>(hc: &HarnessConfig, items: Vec<I>, f: F) -> TrialSet<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> (R, u64) + Sync,
{
    run_trials_pooled(hc, items, |_pool, item| f(item))
}

/// [`run_trials`] with a per-worker [`NodePool`] threaded through `f`, so
/// trials that build a whole node can reuse the previous trial's arenas
/// instead of reconstructing from scratch.
///
/// The same purity contract applies: `f` must derive everything from the
/// item, and because `Node::reset` replays construction exactly, a pooled
/// node cannot leak state between trials — `results[i]` stays independent
/// of which worker ran trial `i` or what it ran before.
pub fn run_trials_pooled<I, R, F>(hc: &HarnessConfig, items: Vec<I>, f: F) -> TrialSet<R>
where
    I: Sync,
    R: Send,
    F: Fn(&mut NodePool, &I) -> (R, u64) + Sync,
{
    let n = items.len();
    let nthreads = hc.threads.max(1).min(n.max(1));
    let t0 = Instant::now();
    let slots: Vec<Mutex<Option<(R, u64, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let slots = &slots;
        let next = &next;
        let items = &items;
        let f = &f;
        for shard in 0..nthreads {
            s.spawn(move || {
                let mut pool = NodePool::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let start = Instant::now();
                    let (result, events) = f(&mut pool, &items[i]);
                    let elapsed = start.elapsed();
                    stream_beat(shard, 1, events, elapsed.as_nanos() as u64);
                    *slots[i].lock().unwrap() = Some((result, events, elapsed.as_secs_f64()));
                }
            });
        }
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(n);
    let mut trial_wall_secs = Vec::with_capacity(n);
    let mut trial_events = Vec::with_capacity(n);
    for slot in slots {
        let (r, events, wall) = slot
            .into_inner()
            .unwrap()
            .expect("trial slot unfilled: a worker must have panicked");
        results.push(r);
        trial_events.push(events);
        trial_wall_secs.push(wall);
    }
    let stats = HarnessStats {
        trials: n,
        threads: nthreads,
        wall_secs,
        cpu_secs: trial_wall_secs.iter().sum(),
        events: trial_events.iter().sum(),
        trial_wall_secs,
        trial_events,
    };
    TrialSet { results, stats }
}

/// The instrumented sections of one run, in the order they ran. Host
/// throughput is recorded by `benchmark/` and nowhere else; this list
/// exists for [`BenchReport::totals`], whose event count is the
/// reproduction's pin.
#[derive(Debug, Default)]
pub struct BenchReport {
    sections: Vec<(String, HarnessStats)>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one experiment section.
    pub fn add(&mut self, name: &str, stats: HarnessStats) {
        self.sections.push((name.to_string(), stats));
    }

    /// The recorded sections, in the order they were added.
    pub fn sections(&self) -> &[(String, HarnessStats)] {
        &self.sections
    }

    /// Totals over all sections: (trials, wall_secs, events).
    pub fn totals(&self) -> (usize, f64, u64) {
        self.sections.iter().fold((0, 0.0, 0), |(t, w, e), (_, s)| {
            (t + s.trials, w + s.wall_secs, e + s.events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let set = run_trials(&HarnessConfig::with_threads(4), items, |&i| (i * 2, i));
        assert_eq!(set.results, (0..100).map(|i| i * 2).collect::<Vec<u64>>());
        assert_eq!(set.stats.trials, 100);
        assert_eq!(set.stats.events, (0..100).sum::<u64>());
        assert_eq!(set.stats.trial_events, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        // The contract under test: thread count must not affect results.
        let run = |threads: usize| {
            run_trials(
                &HarnessConfig::with_threads(threads),
                (0..64u64).collect(),
                |&i| {
                    // A little work so threads genuinely interleave.
                    let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..1000 {
                        h ^= h >> 13;
                        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    }
                    (h, i + 1)
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.stats.trial_events, parallel.stats.trial_events);
        assert_eq!(parallel.stats.threads, 4);
    }

    #[test]
    fn empty_batch_is_fine() {
        let set = run_trials(&HarnessConfig::serial(), Vec::<u64>::new(), |&i| (i, 0));
        assert!(set.results.is_empty());
        assert_eq!(set.stats.trials, 0);
        assert_eq!(set.stats.events, 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let hc = HarnessConfig::serial();
        let a = run_trials(&hc, vec![1u64, 2], |&i| (i, 10));
        let b = run_trials(&hc, vec![3u64], |&i| (i, 5));
        let mut m = a.stats;
        m.merge(&b.stats);
        assert_eq!(m.trials, 3);
        assert_eq!(m.events, 25);
        assert_eq!(m.trial_events, vec![10, 10, 5]);
    }
}

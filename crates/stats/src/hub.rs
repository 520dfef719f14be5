//! Streaming snapshot hub: harness workers send deltas over a channel; a
//! collector thread merges them into a process-level series and
//! periodically publishes a frame for live viewers.
//!
//! Two message kinds flow through the channel:
//!
//! * **deltas** — full [`StatsSnapshot`]s covering exactly one trial,
//!   merged (component-wise sum) into the running process total. Sums are
//!   commutative, so the total is independent of worker scheduling — a
//!   4-thread run's final total is byte-identical to a serial run's, which
//!   the golden merge test pins.
//! * **beats** — tiny per-shard progress records `(trials, events,
//!   wall_nanos)` from each harness worker, kept per shard for the
//!   per-shard throughput column of `nautix-top`. Beats never enter the
//!   snapshot total, so richer deltas and coarse beats cannot double
//!   count.
//!
//! When a stream path is configured the collector writes a [`Frame`]
//! (elapsed time + latest cumulative snapshot + shard table) to
//! `path.tmp` and renames it over `path`, so a tailing viewer never reads
//! a torn frame. An optional *sampler* callback runs over each published
//! frame to overlay process-global counters (oracle tallies live in
//! process statics, not in any node) without touching the additive total.
//!
//! Observation only: nothing in this module feeds back into a simulation.
//! A run with streaming enabled is byte-identical to one without.

use crate::snapshot::{StatsSnapshot, SNAPSHOT_HEADER};
use crate::text::{parse_u64, Reader, Writer};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One per-shard progress row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Trials this shard has completed.
    pub trials: u64,
    /// Simulated events this shard has processed.
    pub events: u64,
    /// Summed per-trial wall time on this shard, nanoseconds.
    pub wall_nanos: u64,
}

impl ShardStat {
    /// Simulated events per wall-clock second on this shard.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

// Deltas are sent by value: one full snapshot per *trial*, not per
// event, so the size asymmetry vs `Beat` is cheaper than a per-trial
// heap allocation.
#[allow(clippy::large_enum_variant)]
enum Msg {
    Delta(StatsSnapshot),
    Beat {
        shard: usize,
        trials: u64,
        events: u64,
        wall_nanos: u64,
    },
}

/// Cloneable sending half handed to harness workers.
#[derive(Clone)]
pub struct StatsTx {
    tx: mpsc::Sender<Msg>,
}

impl StatsTx {
    /// Stream one trial's delta snapshot. Sends never block and a closed
    /// hub is ignored — workers must not care whether anyone is watching.
    pub fn delta(&self, snap: StatsSnapshot) {
        let _ = self.tx.send(Msg::Delta(snap));
    }

    /// Stream one worker progress beat.
    pub fn beat(&self, shard: usize, trials: u64, events: u64, wall_nanos: u64) {
        let _ = self.tx.send(Msg::Beat {
            shard,
            trials,
            events,
            wall_nanos,
        });
    }
}

/// Sampler callback: overlay process-global counters onto a frame
/// snapshot just before publication.
pub type Sampler = Box<dyn FnMut(&mut StatsSnapshot) + Send>;

/// Collector configuration.
#[derive(Default)]
pub struct HubOptions {
    /// Where to publish frames (atomically, via `path.tmp` + rename).
    /// `None` keeps the hub in-memory only.
    pub stream_path: Option<PathBuf>,
    /// Process-global overlay applied to published frames.
    pub sampler: Option<Sampler>,
    /// Minimum delay between published frames; `None` means the 200 ms
    /// default.
    pub flush_every: Option<Duration>,
}

/// Everything the collector accumulated, returned by [`StatsHub::finish`].
pub struct HubReport {
    /// Final cumulative snapshot (sum of every delta received).
    pub total: StatsSnapshot,
    /// Process-level series: the cumulative snapshot at each publication
    /// point, oldest first (bounded; old entries are dropped).
    pub series: Vec<StatsSnapshot>,
    /// Final per-shard progress table.
    pub shards: Vec<ShardStat>,
}

/// The receiving half: owns the collector thread.
pub struct StatsHub {
    tx: Option<StatsTx>,
    handle: std::thread::JoinHandle<HubReport>,
}

const SERIES_CAP: usize = 4096;

impl StatsHub {
    /// Start a collector.
    pub fn start(opts: HubOptions) -> StatsHub {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("nautix-stats-hub".into())
            .spawn(move || collect(rx, opts))
            .expect("spawn stats hub");
        StatsHub {
            tx: Some(StatsTx { tx }),
            handle,
        }
    }

    /// A sending handle for workers.
    pub fn tx(&self) -> StatsTx {
        self.tx.as_ref().expect("hub already finished").clone()
    }

    /// Drop the hub's own sender and wait for the collector to drain.
    /// Every [`StatsTx`] clone must be dropped by the caller first, or
    /// this blocks until they are.
    pub fn finish(mut self) -> HubReport {
        self.tx = None;
        self.handle.join().expect("stats hub panicked")
    }
}

fn collect(rx: mpsc::Receiver<Msg>, mut opts: HubOptions) -> HubReport {
    let started = Instant::now();
    let flush_every = opts.flush_every.unwrap_or(Duration::from_millis(200));
    let mut total = StatsSnapshot::default();
    let mut series: Vec<StatsSnapshot> = Vec::new();
    let mut shards: Vec<ShardStat> = Vec::new();
    let mut last_flush = Instant::now();
    let mut dirty = false;
    loop {
        match rx.recv_timeout(flush_every) {
            Ok(Msg::Delta(d)) => {
                total.merge(&d);
                dirty = true;
            }
            Ok(Msg::Beat {
                shard,
                trials,
                events,
                wall_nanos,
            }) => {
                if shards.len() <= shard {
                    shards.resize(shard + 1, ShardStat::default());
                }
                let s = &mut shards[shard];
                s.trials += trials;
                s.events += events;
                s.wall_nanos += wall_nanos;
                dirty = true;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if dirty && last_flush.elapsed() >= flush_every {
            publish(&total, &shards, started, &mut opts, &mut series);
            last_flush = Instant::now();
            dirty = false;
        }
    }
    // Final frame so viewers (and the report) see the complete totals.
    publish(&total, &shards, started, &mut opts, &mut series);
    HubReport {
        total,
        series,
        shards,
    }
}

fn publish(
    total: &StatsSnapshot,
    shards: &[ShardStat],
    started: Instant,
    opts: &mut HubOptions,
    series: &mut Vec<StatsSnapshot>,
) {
    let mut frame_snap = *total;
    if let Some(sampler) = opts.sampler.as_mut() {
        sampler(&mut frame_snap);
    }
    if series.len() == SERIES_CAP {
        series.remove(0);
    }
    series.push(frame_snap);
    if let Some(path) = opts.stream_path.as_ref() {
        let frame = Frame {
            elapsed_nanos: started.elapsed().as_nanos() as u64,
            snapshot: frame_snap,
            shards: shards.to_vec(),
        };
        // Best effort: a live view must never kill the run.
        let _ = frame.write_atomic(path);
    }
}

/// Header line of the stream-frame codec.
pub const FRAME_HEADER: &str = "nautix-stream v1";

/// One published stream frame: what `nautix-top` renders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Nanoseconds since the hub started.
    pub elapsed_nanos: u64,
    /// Cumulative process-level snapshot (sampler overlay applied).
    pub snapshot: StatsSnapshot,
    /// Per-shard progress table.
    pub shards: Vec<ShardStat>,
}

impl Frame {
    /// Overall simulated-event throughput, events per wall second.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.snapshot.events as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }

    /// Canonical text encoding, a [`crate::text`] document:
    /// [`FRAME_HEADER`], `elapsed_nanos`, the snapshot document nested
    /// whole, one `shard <index> <trials> <events> <wall_nanos>` line per
    /// shard in index order, `eof`.
    pub fn to_text(&self) -> String {
        let mut w = Writer::new(FRAME_HEADER);
        w.kv("elapsed_nanos", &self.elapsed_nanos.to_string());
        w.line(SNAPSHOT_HEADER);
        self.snapshot.write(&mut w);
        w.line("end");
        for (i, sh) in self.shards.iter().enumerate() {
            let row = format!("{i} {} {} {}", sh.trials, sh.events, sh.wall_nanos);
            w.kv("shard", &row);
        }
        w.finish("eof")
    }

    /// Strict parse of [`Frame::to_text`] output.
    pub fn from_text(text: &str) -> Result<Frame, String> {
        let mut r = Reader::new(text, "stream", FRAME_HEADER)?;
        let elapsed_nanos = r.u64("elapsed_nanos")?;
        r.literal(SNAPSHOT_HEADER)?;
        let snapshot = StatsSnapshot::read(&mut r)?;
        r.literal("end")?;
        let mut shards = Vec::new();
        while let Some(row) = r.take_if("shard") {
            let cells: Option<Vec<u64>> = row.split(' ').map(parse_u64).collect();
            let Some(&[index, trials, events, wall_nanos]) = cells.as_deref() else {
                return Err(format!("bad shard line: `shard {row}`"));
            };
            if index != shards.len() as u64 {
                return Err(format!("shard lines out of order at `shard {row}`"));
            }
            shards.push(ShardStat {
                trials,
                events,
                wall_nanos,
            });
        }
        r.finish("eof")?;
        Ok(Frame {
            elapsed_nanos,
            snapshot,
            shards,
        })
    }

    /// Write the frame to `path.tmp`, then rename over `path`, so readers
    /// never observe a torn frame.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and parse the latest published frame.
    pub fn read(path: &Path) -> Result<Frame, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Frame::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(events: u64, missed: u64) -> StatsSnapshot {
        StatsSnapshot {
            trials: 1,
            events,
            met: 10,
            missed,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn hub_total_is_order_independent_sum() {
        let serial = {
            let hub = StatsHub::start(HubOptions::default());
            let tx = hub.tx();
            for i in 0..100 {
                tx.delta(delta(i, i % 3));
            }
            drop(tx);
            hub.finish().total
        };
        let fanned = {
            let hub = StatsHub::start(HubOptions::default());
            std::thread::scope(|s| {
                for w in 0..4 {
                    let tx = hub.tx();
                    s.spawn(move || {
                        for i in (w..100).step_by(4) {
                            tx.delta(delta(i, i % 3));
                        }
                    });
                }
            });
            hub.finish().total
        };
        assert_eq!(serial, fanned);
        assert_eq!(serial.trials, 100);
        assert_eq!(serial.events, (0..100).sum::<u64>());
    }

    #[test]
    fn beats_accumulate_per_shard_without_touching_totals() {
        let hub = StatsHub::start(HubOptions::default());
        let tx = hub.tx();
        tx.beat(0, 1, 500, 1000);
        tx.beat(2, 1, 700, 2000);
        tx.beat(0, 1, 300, 1000);
        drop(tx);
        let rep = hub.finish();
        assert_eq!(rep.total, StatsSnapshot::default());
        assert_eq!(rep.shards.len(), 3);
        assert_eq!(rep.shards[0].trials, 2);
        assert_eq!(rep.shards[0].events, 800);
        assert_eq!(rep.shards[1], ShardStat::default());
        assert_eq!(rep.shards[2].events, 700);
    }

    #[test]
    fn sampler_overlays_frames_but_not_the_total() {
        let hub = StatsHub::start(HubOptions {
            sampler: Some(Box::new(|s| s.oracle_suites = 42)),
            ..HubOptions::default()
        });
        let tx = hub.tx();
        tx.delta(delta(5, 0));
        drop(tx);
        let rep = hub.finish();
        assert_eq!(rep.total.oracle_suites, 0, "total stays a pure sum");
        assert_eq!(rep.series.last().unwrap().oracle_suites, 42);
    }

    #[test]
    fn frame_round_trips_through_file() {
        let frame = Frame {
            elapsed_nanos: 123_456_789,
            snapshot: delta(99, 1),
            shards: vec![
                ShardStat {
                    trials: 3,
                    events: 50,
                    wall_nanos: 10,
                },
                ShardStat {
                    trials: 1,
                    events: 49,
                    wall_nanos: 20,
                },
            ],
        };
        let back = Frame::from_text(&frame.to_text()).unwrap();
        assert_eq!(frame, back);
        let dir = std::env::temp_dir().join("nautix_frame_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("stream.nautix");
        frame.write_atomic(&p).unwrap();
        assert_eq!(Frame::read(&p).unwrap(), frame);
    }

    #[test]
    fn frame_parse_is_strict() {
        let frame = Frame {
            elapsed_nanos: 1,
            snapshot: StatsSnapshot::default(),
            shards: vec![ShardStat::default()],
        };
        let t = frame.to_text();
        assert!(Frame::from_text(&t.replace("v1", "v7"))
            .unwrap_err()
            .contains("version"));
        assert!(Frame::from_text(t.strip_suffix("eof\n").unwrap()).is_err());
        assert!(Frame::from_text(&t.replace("shard 0", "shard 5")).is_err());
        assert!(Frame::from_text(&format!("{t}junk\n")).is_err());
    }

    #[test]
    fn stream_file_is_published_and_parseable() {
        let dir = std::env::temp_dir().join("nautix_hub_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("live.nautix");
        let hub = StatsHub::start(HubOptions {
            stream_path: Some(p.clone()),
            flush_every: Some(Duration::from_millis(1)),
            ..HubOptions::default()
        });
        let tx = hub.tx();
        tx.delta(delta(11, 2));
        tx.beat(0, 1, 11, 5_000);
        drop(tx);
        let rep = hub.finish();
        let frame = Frame::read(&p).unwrap();
        assert_eq!(frame.snapshot, rep.total);
        assert_eq!(frame.shards, rep.shards);
    }
}

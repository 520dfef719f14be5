//! Versioned statistics snapshots.
//!
//! A [`StatsSnapshot`] is one flat, additive bundle of every counter the
//! evaluation cares about: trial outcomes, scheduler activity, machine
//! traffic, fault-lane injections, degradation responses, admission-engine
//! activity, and oracle tallies. Snapshots compose by component-wise
//! summation ([`StatsSnapshot::merge`]) — a *delta* snapshot covering one
//! trial merged into a running total gives the same total regardless of
//! arrival order, which is what lets harness workers stream deltas over a
//! channel without perturbing determinism.
//!
//! Snapshots serialize as a [`crate::text`] document
//! ([`StatsSnapshot::to_text`] / [`StatsSnapshot::from_text`]):
//! [`SNAPSHOT_HEADER`], one `key value` line per counter in
//! [`StatsSnapshot::FIELDS`] order, `end`. Two snapshots are equal iff
//! their texts are byte-identical, which the replay regression corpus
//! relies on.

use crate::text::{Reader, Writer};

/// Header line of the snapshot codec; the string is the version. Bump it
/// when fields are added, removed, or reordered: a parser only ever
/// accepts its own.
pub const SNAPSHOT_HEADER: &str = "nautix-stats v3";

macro_rules! snapshot_fields {
    ($( $(#[$doc:meta])* $name:ident ),* $(,)?) => {
        /// One additive bundle of evaluation counters. See the module
        /// docs for the composition and codec contracts.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// Field names in canonical codec order.
            pub const FIELDS: &'static [&'static str] = &[ $( stringify!($name), )* ];

            /// Component-wise sum: fold `delta` into this snapshot.
            pub fn merge(&mut self, delta: &StatsSnapshot) {
                $( self.$name += delta.$name; )*
            }

            /// The counter lines of the text form, without header or
            /// terminator: [`crate::Frame`] nests them.
            pub(crate) fn write(&self, w: &mut Writer) {
                $( w.kv(stringify!($name), &self.$name.to_string()); )*
            }

            /// Strict inverse of `write`. A struct literal, so every field
            /// is read or this does not compile.
            pub(crate) fn read(r: &mut Reader) -> Result<StatsSnapshot, String> {
                Ok(StatsSnapshot { $( $name: r.u64(stringify!($name))?, )* })
            }

            #[cfg(test)]
            fn set(&mut self, name: &str, value: u64) {
                match name {
                    $( stringify!($name) => self.$name = value, )*
                    _ => unreachable!("set() is only called with FIELDS members"),
                }
            }
        }
    };
}

snapshot_fields! {
    /// Trials folded into this snapshot.
    trials,
    /// Simulated machine events processed.
    events,
    /// Real-time job arrivals across all threads.
    arrivals,
    /// Jobs whose slice completed by the deadline.
    met,
    /// Jobs that completed late.
    missed,
    /// Context switches *to* accounted threads.
    dispatches,
    /// Local-scheduler invocations.
    invocations,
    /// Timer-interrupt invocations specifically.
    timer_invocations,
    /// Kick-IPI invocations.
    kick_invocations,
    /// Context switches performed.
    switches,
    /// Threads stolen by idle work stealers.
    steals,
    /// Steals whose thief and victim share an LLC.
    steals_llc,
    /// Steals crossing LLCs inside one package.
    steals_pkg,
    /// Steals crossing packages.
    steals_xpkg,
    /// Size-tagged tasks executed inline by schedulers.
    inline_tasks,
    /// IPIs sent.
    ipis,
    /// IPIs whose sender and target share an LLC.
    ipis_llc,
    /// IPIs crossing LLCs inside one package.
    ipis_pkg,
    /// IPIs crossing packages.
    ipis_xpkg,
    /// Device interrupts delivered.
    device_irqs,
    /// One-shot timer programmings.
    timer_programmings,
    /// SMIs entered.
    smis,
    /// Kick IPIs silently dropped by the fault plan.
    kicks_dropped,
    /// Kick IPIs delivered late by the fault plan.
    kicks_delayed,
    /// One-shot programmings that overshot.
    timer_overshoots,
    /// Frequency dips entered.
    freq_dips,
    /// Spurious device interrupts injected.
    spurious_irqs,
    /// Single-CPU stalls injected.
    cpu_stalls,
    /// Sporadic jobs demoted to aperiodic after a deadline overrun.
    sporadic_demotions,
    /// Periodic reservations widened (revoked and resubmitted).
    periodic_widenings,
    /// Periodic threads demoted to aperiodic.
    periodic_demotions,
    /// Hyperperiod-simulation verdicts served from the memo cache.
    sim_hits,
    /// Hyperperiod-simulation verdicts computed fresh (memo misses).
    sim_misses,
    /// Admission-ledger rollbacks.
    rollbacks,
    /// Oracle suites that observed this span (0 when unarmed).
    oracle_suites,
    /// Trace records the oracles consumed.
    oracle_records,
    /// Invariant checks performed (all families summed).
    oracle_checks,
    /// Admitted misses attributed to modeled environmental interference.
    oracle_env_misses,
    /// Admitted misses where the closed-form test and the overhead-aware
    /// simulation disagree (policy divergences, not scheduler bugs).
    oracle_divergences,
    /// Cluster placement decisions taken (tenant arrivals processed).
    cluster_decisions,
    /// Tenants placed (whole gang admitted on some shard).
    cluster_placed,
    /// Tenants rejected by every candidate shard.
    cluster_rejected,
    /// Per-shard admission attempts made while placing (probes).
    cluster_probes,
    /// Tenants that departed (residency expired, reservation released).
    cluster_departures,
    /// Layer token buckets that went empty, throttling the layer until the
    /// next replenish (always zero on the default single-layer config).
    layer_throttles,
    /// Layer bucket refills at replenish-window boundaries.
    layer_replenishes,
}

impl StatsSnapshot {
    /// Deadline miss rate in [0, 1] over completed jobs.
    pub fn miss_rate(&self) -> f64 {
        let done = self.met + self.missed;
        if done == 0 {
            0.0
        } else {
            self.missed as f64 / done as f64
        }
    }

    /// Total fault-lane injections.
    pub fn faults_total(&self) -> u64 {
        self.kicks_dropped
            + self.kicks_delayed
            + self.timer_overshoots
            + self.freq_dips
            + self.spurious_irqs
            + self.cpu_stalls
    }

    /// Total degradation activations.
    pub fn degrade_total(&self) -> u64 {
        self.sporadic_demotions + self.periodic_widenings + self.periodic_demotions
    }

    /// Fraction of steals that stayed inside the thief's LLC (1.0 when no
    /// steal ever left it, 0.0 when none stayed or none happened).
    pub fn steal_locality(&self) -> f64 {
        if self.steals == 0 {
            0.0
        } else {
            self.steals_llc as f64 / self.steals as f64
        }
    }

    /// One-line deterministic summary: the headline stats the replay
    /// regression corpus pins per scenario. Deliberately excludes the
    /// oracle tallies so a pin holds whether or not a run arms them.
    pub fn headline(&self) -> String {
        format!(
            "events={} jobs={} met={} missed={} miss_rate={:.6} faults={} \
             degrade={} steals={} switches={} ipis={} cluster={}/{}/{}",
            self.events,
            self.met + self.missed,
            self.met,
            self.missed,
            self.miss_rate(),
            self.faults_total(),
            self.degrade_total(),
            self.steals,
            self.switches,
            self.ipis,
            self.cluster_decisions,
            self.cluster_placed,
            self.cluster_rejected,
        )
    }

    /// Canonical text encoding: version header, `key value` lines in
    /// [`StatsSnapshot::FIELDS`] order, `end`.
    pub fn to_text(&self) -> String {
        let mut w = Writer::new(SNAPSHOT_HEADER);
        self.write(&mut w);
        w.finish("end")
    }

    /// Strict parse of [`StatsSnapshot::to_text`] output. Errors on a
    /// wrong version, a missing / reordered / duplicated key, a malformed
    /// value, truncation before `end`, or trailing non-empty lines.
    pub fn from_text(text: &str) -> Result<StatsSnapshot, String> {
        let mut r = Reader::new(text, "snapshot", SNAPSHOT_HEADER)?;
        let snap = StatsSnapshot::read(&mut r)?;
        r.finish("end")?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (i, name) in StatsSnapshot::FIELDS.iter().enumerate() {
            s.set(name, k + i as u64);
        }
        s
    }

    #[test]
    fn text_round_trips_exactly() {
        let s = sample(7);
        let t = s.to_text();
        let back = StatsSnapshot::from_text(&t).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.to_text(), t, "encoding must be canonical");
    }

    #[test]
    fn merge_is_commutative_componentwise_sum() {
        let a = sample(1);
        let b = sample(100);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.trials, a.trials + b.trials);
        assert_eq!(
            ab.oracle_divergences,
            a.oracle_divergences + b.oracle_divergences
        );
    }

    #[test]
    fn rates_and_totals() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.steal_locality(), 0.0);
        s.met = 3;
        s.missed = 1;
        s.steals = 4;
        s.steals_llc = 3;
        s.kicks_dropped = 2;
        s.cpu_stalls = 1;
        s.periodic_widenings = 5;
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.steal_locality() - 0.75).abs() < 1e-12);
        assert_eq!(s.faults_total(), 3);
        assert_eq!(s.degrade_total(), 5);
        assert!(s.headline().contains("miss_rate=0.250000"));
    }

    #[test]
    fn parse_rejects_unknown_version() {
        let t = sample(0)
            .to_text()
            .replace(SNAPSHOT_HEADER, "nautix-stats v9");
        let e = StatsSnapshot::from_text(&t).unwrap_err();
        assert!(e.contains("unknown snapshot version"), "{e}");
    }

    #[test]
    fn parse_rejects_truncation() {
        let t = sample(0).to_text();
        let cut: String = t.lines().take(10).map(|l| format!("{l}\n")).collect();
        let e = StatsSnapshot::from_text(&cut).unwrap_err();
        assert!(e.contains("truncated") || e.contains("expected"), "{e}");
        // Cutting just the `end` line is also truncation.
        let no_end = t.strip_suffix("end\n").unwrap();
        let e = StatsSnapshot::from_text(no_end).unwrap_err();
        assert!(e.contains("missing `end`"), "{e}");
    }

    #[test]
    fn parse_rejects_reordered_and_junk_values() {
        let t = sample(0).to_text();
        let swapped = t.replacen("trials 0", "events 0", 1);
        assert!(StatsSnapshot::from_text(&swapped).is_err());
        let junk = t.replacen("trials 0", "trials many", 1);
        let e = StatsSnapshot::from_text(&junk).unwrap_err();
        assert!(e.contains("not a u64"), "{e}");
        let trailing = format!("{t}surprise\n");
        let e = StatsSnapshot::from_text(&trailing).unwrap_err();
        assert!(e.contains("trailing garbage"), "{e}");
    }
}

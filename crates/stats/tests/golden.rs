//! Golden texts of `nautix-stats v3` and `nautix-stream v1`, captured from
//! the hand-written codecs before they moved onto the shared line framing.
//! Round-trip tests pass a symmetric encode/decode slip; these do not: a
//! renamed, reordered or re-spelled line changes bytes pinned here.

use nautix_stats::{Frame, ShardStat, StatsSnapshot};

/// Field `i` (codec order) holds `7 + i`.
fn sample() -> StatsSnapshot {
    StatsSnapshot {
        trials: 7,
        events: 8,
        arrivals: 9,
        met: 10,
        missed: 11,
        dispatches: 12,
        invocations: 13,
        timer_invocations: 14,
        kick_invocations: 15,
        switches: 16,
        steals: 17,
        steals_llc: 18,
        steals_pkg: 19,
        steals_xpkg: 20,
        inline_tasks: 21,
        ipis: 22,
        ipis_llc: 23,
        ipis_pkg: 24,
        ipis_xpkg: 25,
        device_irqs: 26,
        timer_programmings: 27,
        smis: 28,
        kicks_dropped: 29,
        kicks_delayed: 30,
        timer_overshoots: 31,
        freq_dips: 32,
        spurious_irqs: 33,
        cpu_stalls: 34,
        sporadic_demotions: 35,
        periodic_widenings: 36,
        periodic_demotions: 37,
        sim_hits: 38,
        sim_misses: 39,
        rollbacks: 40,
        oracle_suites: 41,
        oracle_records: 42,
        oracle_checks: 43,
        oracle_env_misses: 44,
        oracle_divergences: 45,
        cluster_decisions: 46,
        cluster_placed: 47,
        cluster_rejected: 48,
        cluster_probes: 49,
        cluster_departures: 50,
        layer_throttles: 51,
        layer_replenishes: 52,
    }
}

const SNAPSHOT_GOLDEN: &str = "\
nautix-stats v3\n\
trials 7\n\
events 8\n\
arrivals 9\n\
met 10\n\
missed 11\n\
dispatches 12\n\
invocations 13\n\
timer_invocations 14\n\
kick_invocations 15\n\
switches 16\n\
steals 17\n\
steals_llc 18\n\
steals_pkg 19\n\
steals_xpkg 20\n\
inline_tasks 21\n\
ipis 22\n\
ipis_llc 23\n\
ipis_pkg 24\n\
ipis_xpkg 25\n\
device_irqs 26\n\
timer_programmings 27\n\
smis 28\n\
kicks_dropped 29\n\
kicks_delayed 30\n\
timer_overshoots 31\n\
freq_dips 32\n\
spurious_irqs 33\n\
cpu_stalls 34\n\
sporadic_demotions 35\n\
periodic_widenings 36\n\
periodic_demotions 37\n\
sim_hits 38\n\
sim_misses 39\n\
rollbacks 40\n\
oracle_suites 41\n\
oracle_records 42\n\
oracle_checks 43\n\
oracle_env_misses 44\n\
oracle_divergences 45\n\
cluster_decisions 46\n\
cluster_placed 47\n\
cluster_rejected 48\n\
cluster_probes 49\n\
cluster_departures 50\n\
layer_throttles 51\n\
layer_replenishes 52\n\
end\n\
";

fn frame() -> Frame {
    Frame {
        elapsed_nanos: 123_456_789,
        snapshot: sample(),
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
    }
}

fn frame_golden() -> String {
    format!(
        "nautix-stream v1\nelapsed_nanos 123456789\n{SNAPSHOT_GOLDEN}\
         shard 0 3 50 10\nshard 1 1 49 20\neof\n"
    )
}

#[test]
fn snapshot_text_is_pinned() {
    assert_eq!(StatsSnapshot::FIELDS.len(), 46);
    assert_eq!(sample().to_text(), SNAPSHOT_GOLDEN);
    assert_eq!(StatsSnapshot::from_text(SNAPSHOT_GOLDEN), Ok(sample()));
}

#[test]
fn frame_text_is_pinned() {
    assert_eq!(frame().to_text(), frame_golden());
    assert_eq!(Frame::from_text(&frame_golden()), Ok(frame()));
}

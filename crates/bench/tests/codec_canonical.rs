//! Accepted ⇒ canonical, and junk never panics (ROADMAP 5b).
//!
//! One property over the four text entry points —
//! `Scenario::from_replay_string`, `StatsSnapshot::from_text`,
//! `Frame::from_text`, `LayerTable::decode`: take a valid text, damage it one to
//! three times (delete, duplicate or swap a line; overwrite a value, or one
//! field of a `:;,`-separated fragment, with a near-miss from the
//! dictionary), and parse. The parser must not panic, and if it says `Ok`,
//! re-encoding what it returned must give back the input byte for byte
//! (up to blank lines after the terminator, the framing's one stated
//! tolerance): "two scenarios are equal iff their replay strings are
//! byte-identical" is only true if no second spelling of any value gets in.

use nautix_bench::Scenario;
use nautix_cluster::PlacementStrategy;
use nautix_des::text::Value;
use nautix_hw::{Platform, SmiConfig, Topology};
use nautix_rt::{AdmissionPolicy, LayerTable};
use nautix_stats::{Frame, ShardStat, StatsSnapshot};
use proptest::prelude::*;
use proptest::TestRng;

/// Spellings `str::parse`, a `trim()` or a case fold would let through,
/// words that are valid somewhere else in a file, and plain junk — plus a
/// few that are fine, so that accepted mutants occur and the property has
/// something to check.
const DICTIONARY: &[&str] = &[
    "+5",
    "007",
    "-0",
    "0x10",
    "1e3",
    " 5",
    "5 ",
    "18446744073709551616",
    "",
    "on",
    "none",
    "1X1",
    "FLAT",
    "٥",
    "\0",
    "5\r",
    "1x1",
    "0",
    "5",
    "off",
    "2x4",
];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// `value` with one of its separator-delimited fields overwritten.
fn damage_field(value: &str, word: &str, rng: &mut TestRng) -> String {
    let mut fields = vec![];
    let mut start = 0;
    for (i, c) in value.char_indices() {
        if ":;, ".contains(c) {
            fields.push(start..i);
            start = i + 1;
        }
    }
    fields.push(start..value.len());
    let f = fields.swap_remove(pick(rng, fields.len()));
    format!("{}{word}{}", &value[..f.start], &value[f.end..])
}

/// One to three mutations of `text`, a document of `\n`-terminated lines.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    for _ in 0..1 + rng.below(3) {
        if lines.is_empty() {
            break;
        }
        let i = pick(rng, lines.len());
        let word = DICTIONARY[pick(rng, DICTIONARY.len())];
        // A bare fragment (the layer table) is all value; a `key value`
        // line keeps its key.
        let (key, value) = match lines[i].split_once(' ') {
            Some((k, v)) => (format!("{k} "), v.to_string()),
            None => (String::new(), lines[i].clone()),
        };
        match rng.below(6) {
            0 => drop(lines.remove(i)),
            1 => lines.insert(i, lines[i].clone()),
            2 => {
                let j = pick(rng, lines.len());
                lines.swap(i, j)
            }
            3 => lines[i] = format!("{key}{word}"),
            _ => lines[i] = format!("{key}{}", damage_field(&value, word, rng)),
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Run the property over 40 mutants of each seed text. Returns how
/// many were accepted, so a caller can tell a held property from a vacuous
/// one.
fn accepted_mutants_are_canonical<T>(
    seeds: &[String],
    rng: &mut TestRng,
    parse: impl Fn(&str) -> Result<T, String>,
    encode: impl Fn(&T) -> String,
) -> usize {
    let mut accepted = 0;
    for seed in seeds {
        let v = parse(seed).unwrap_or_else(|e| panic!("seed text must parse: {e}\n{seed}"));
        assert_eq!(&encode(&v), seed, "seed text must be canonical");
        for _ in 0..40 {
            let mutant = mutate(seed, rng);
            if let Ok(v) = parse(&mutant) {
                let (again, given) = (encode(&v), mutant.trim_end());
                assert_eq!(again.trim_end(), given, "accepted, but not canonical");
                accepted += 1;
            }
        }
    }
    accepted
}

fn replay_seeds() -> Vec<String> {
    let mut tuned = Scenario::missrate(Platform::R415, 50_000, 10_000, 30, 9);
    tuned.machine.topology = Topology::tree(2, 4);
    tuned.machine.smi = SmiConfig::noisy(tuned.machine.platform.freq(), 33_000, 150);
    tuned.sched.policy = AdmissionPolicy::HyperperiodSim {
        overhead_ns: 1_500,
        window_cap_ns: 1 << 30,
    };
    tuned.laden = vec![0, 1];
    tuned.sabotage_fifo = Some(1);
    [
        Scenario::fault_mix(0.5, 100_000, 60, 50, 11),
        Scenario::layer_starve(1_000_000, 70, 30, 9),
        Scenario::cluster(3, 8, 150, PlacementStrategy::PowerOfTwo, 21),
        tuned,
    ]
    .iter()
    .map(Scenario::to_replay_string)
    .collect()
}

fn snapshot(k: u64) -> StatsSnapshot {
    let text: String = StatsSnapshot::FIELDS
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{name} {}\n", k + i as u64))
        .collect();
    StatsSnapshot::from_text(&format!("nautix-stats v3\n{text}end\n")).unwrap()
}

fn frame_seeds() -> Vec<String> {
    let shard = |n| ShardStat {
        trials: n,
        events: 50 * n,
        wall_nanos: 1_000 * n,
    };
    [vec![], vec![shard(3)], vec![shard(1), shard(2), shard(3)]]
        .into_iter()
        .map(|shards| Frame {
            elapsed_nanos: 123_456_789,
            snapshot: snapshot(shards.len() as u64),
            shards,
        })
        .map(|f| f.to_text())
        .collect()
}

proptest! {
    #[test]
    fn accepted_replay_text_is_canonical(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from(seed);
        accepted_mutants_are_canonical(
            &replay_seeds(),
            &mut rng,
            Scenario::from_replay_string,
            Scenario::to_replay_string,
        );
    }

    #[test]
    fn accepted_snapshot_text_is_canonical(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from(seed);
        accepted_mutants_are_canonical(
            &[snapshot(0).to_text(), snapshot(u64::MAX - 100).to_text()],
            &mut rng,
            StatsSnapshot::from_text,
            StatsSnapshot::to_text,
        );
    }

    #[test]
    fn accepted_frame_text_is_canonical(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from(seed);
        accepted_mutants_are_canonical(&frame_seeds(), &mut rng, Frame::from_text, Frame::to_text);
    }

    #[test]
    fn accepted_layer_table_is_canonical(seed in 0u64..u64::MAX) {
        // The table is a fragment, not a document: one line, whose ending
        // is the mutator's.
        let mut rng = TestRng::seed_from(seed);
        accepted_mutants_are_canonical(
            &[
                "1000000:0;10000000;0,0,0\n".to_string(),
                "600000:50000,250000:0,100000:0;10000000;0,1,2\n".to_string(),
            ],
            &mut rng,
            |s| LayerTable::decode(s.strip_suffix('\n').unwrap_or(s)),
            |t| format!("{}\n", t.encode()),
        );
    }
}

#[test]
fn the_property_is_not_vacuous() {
    // Some mutants must be accepted (a valid word landed on a field that
    // takes it) or the canonical half of the property checked nothing.
    let mut rng = TestRng::seed_from(7);
    let mut accepted = 0;
    for _ in 0..16 {
        accepted += accepted_mutants_are_canonical(
            &replay_seeds(),
            &mut rng,
            Scenario::from_replay_string,
            Scenario::to_replay_string,
        );
    }
    assert!(accepted >= 20, "only {accepted} of 2560 mutants accepted");
}

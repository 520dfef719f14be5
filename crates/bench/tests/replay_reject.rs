//! Satellite 4: malformed replay inputs are rejected loudly.
//!
//! A replay file that parses into a *different* trial than it recorded
//! is worse than no replay at all, so the codec never default-fills:
//! every structural or value defect below must produce a parse error.

use nautix_bench::{Scenario, Workload};
use nautix_des::text::Value;
use nautix_hw::Platform;

fn valid() -> String {
    Scenario::fault_mix(0.5, 100_000, 60, 50, 11).to_replay_string()
}

/// Swap one whole `key value` line for a replacement.
fn with_line(text: &str, key: &str, replacement: &str) -> String {
    let mut out = String::new();
    let mut hit = false;
    for line in text.lines() {
        if line.starts_with(&format!("{key} ")) {
            out.push_str(replacement);
            hit = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(hit, "fixture has no `{key}` line");
    out
}

#[test]
fn unknown_version_is_rejected() {
    let t = valid().replace(nautix_bench::REPLAY_HEADER, "nautix-replay v1");
    let e = Scenario::from_replay_string(&t).unwrap_err();
    assert!(e.contains("unknown replay version"), "{e}");
    // The previous codec: a v3 file is refused by its header, never
    // half-read with its two extra keys skipped.
    let t = valid().replace(nautix_bench::REPLAY_HEADER, "nautix-replay v3");
    let e = Scenario::from_replay_string(&t).unwrap_err();
    assert!(e.contains("unknown replay version"), "{e}");
    let e = Scenario::from_replay_string("garbage header\nname x\n").unwrap_err();
    assert!(e.contains("unknown replay version"), "{e}");
    assert!(Scenario::from_replay_string("").is_err());
}

#[test]
fn removed_v3_keys_are_rejected_as_unexpected() {
    // `machine.queue` and `sched.engine` left the codec with v4; a v4 file
    // that still carries one, where v3 had it, is not silently accepted.
    for (before, stale) in [
        ("machine.topology", "machine.queue wheel"),
        ("sched.layers", "sched.engine incremental"),
    ] {
        let t = valid().replacen(&format!("\n{before} "), &format!("\n{stale}\n{before} "), 1);
        assert!(t.contains(stale), "fixture has no `{before}` line");
        let e = Scenario::from_replay_string(&t).unwrap_err();
        let key = stale.split(' ').next().unwrap();
        assert!(
            e.contains(&format!("expected key `{before}`, got `{key}`")),
            "{e}"
        );
    }
}

#[test]
fn truncated_fault_plan_is_rejected() {
    let t = valid();
    let plan_line = t
        .lines()
        .find(|l| l.starts_with("machine.faults "))
        .unwrap()
        .to_string();
    assert!(plan_line.contains(';'), "fixture plan must be enabled");
    // Drop trailing fields one at a time: every truncation must error
    // mentioning the expected arity, never silently zero-fill.
    let mut line = plan_line.clone();
    while let Some((head, _)) = line.rsplit_once(';') {
        line = head.to_string();
        let e = Scenario::from_replay_string(&t.replace(&plan_line, &line)).unwrap_err();
        assert!(e.contains("fault plan") && e.contains("12"), "{e}");
    }
}

#[test]
fn bad_topology_is_rejected() {
    for bad in ["2×4", "0x4", "flat4", "", "axb"] {
        let t = with_line(
            &valid(),
            "machine.topology",
            &format!("machine.topology {bad}"),
        );
        let e = Scenario::from_replay_string(&t).unwrap_err();
        assert!(e.contains("machine.topology"), "`{bad}`: {e}");
    }
}

#[test]
fn bad_enums_and_numbers_are_rejected() {
    for (key, bad) in [
        ("machine.platform", "machine.platform knl"),
        ("machine.timer_mode", "machine.timer_mode periodic"),
        ("machine.cpus", "machine.cpus 0"),
        ("machine.cpus", "machine.cpus -3"),
        ("machine.seed", "machine.seed 0xAA"),
        ("sched.policy", "sched.policy cbs"),
        ("sched.mode", "sched.mode eager_ish"),
        ("sched.steal", "sched.steal random"),
        ("sched.degrade", "sched.degrade on:3:25"),
        ("sched.admission_enabled", "sched.admission_enabled yes"),
        ("node.laden", "node.laden 0,one"),
        ("node.sabotage_fifo", "node.sabotage_fifo maybe"),
        ("workload", "workload missrate:10:20"),
        ("workload", "workload bsp:1:2:3"),
        ("name", "name ../escape"),
        // Spellings `str::parse`, a case fold or the `1x1` alias used to
        // let through: each replayed fine and re-encoded to other bytes.
        ("machine.seed", "machine.seed +5"),
        ("machine.cpus", "machine.cpus 02"),
        ("node.calib_rounds", "node.calib_rounds 016"),
        ("machine.topology", "machine.topology 1X1"),
        ("machine.topology", "machine.topology 1x1"),
    ] {
        let t = with_line(&valid(), key, bad);
        assert!(
            Scenario::from_replay_string(&t).is_err(),
            "`{bad}` must not parse"
        );
    }
}

#[test]
fn malformed_layer_lines_are_rejected() {
    // Codec v3 surface: every structural or validation defect in the
    // `sched.layers` table, the `node.sabotage_layer` arming flag, and
    // the `layer_mix` workload must be a parse error, never a default.
    let fixtures = [
        valid(),
        Scenario::layer_starve(1_000_000, 70, 30, 9).to_replay_string(),
    ];
    let cases: &[(&str, &str)] = &[
        // Structure: wrong number of `;`-sections.
        ("sched.layers", "sched.layers "),
        ("sched.layers", "sched.layers 750000:0"),
        ("sched.layers", "sched.layers 750000:0;10000000"),
        ("sched.layers", "sched.layers 750000:0;10000000;0,0,0;extra"),
        // Specs: missing colon, junk numbers, stray separators.
        ("sched.layers", "sched.layers 750000;10000000;0,0,0"),
        ("sched.layers", "sched.layers a:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 750000:b;10000000;0,0,0"),
        ("sched.layers", "sched.layers -1:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 99999999999:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 0.75:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 0x100:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 750000: 0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 750000:0:0;10000000;0,0,0"),
        ("sched.layers", "sched.layers 750000:0,;10000000;0,0,0"),
        (
            "sched.layers",
            "sched.layers 750000:0,,100000:0;10000000;0,0,0",
        ),
        // Replenish window: junk, zero, negative.
        ("sched.layers", "sched.layers 750000:0;ten;0,0,0"),
        ("sched.layers", "sched.layers 750000:0;0;0,0,0"),
        ("sched.layers", "sched.layers 750000:0;-5;0,0,0"),
        // Class map: wrong arity, junk, out-of-range indices.
        ("sched.layers", "sched.layers 750000:0;10000000;0,0"),
        ("sched.layers", "sched.layers 750000:0;10000000;0,0,0,0"),
        ("sched.layers", "sched.layers 750000:0;10000000;0,0,x"),
        ("sched.layers", "sched.layers 1000000:0;10000000;0,0,1"),
        ("sched.layers", "sched.layers 750000:0;10000000;255,0,0"),
        ("sched.layers", "sched.layers 750000:0;10000000;256,0,0"),
        // Table validation: too many layers, overcommitted guarantees.
        (
            "sched.layers",
            "sched.layers 200000:0,200000:0,200000:0,200000:0,200000:0;10000000;0,0,0",
        ),
        (
            "sched.layers",
            "sched.layers 600000:0,600000:0;10000000;0,0,1",
        ),
        // Sabotage arming flag: anything but `none` or a CPU index.
        ("node.sabotage_layer", "node.sabotage_layer maybe"),
        ("node.sabotage_layer", "node.sabotage_layer -1"),
        ("node.sabotage_layer", "node.sabotage_layer 1.5"),
        ("node.sabotage_layer", "node.sabotage_layer "),
        ("node.sabotage_layer", "node.sabotage_layer on"),
        // The layer_mix workload tag: wrong arity, junk numbers.
        ("workload", "workload layer_mix:1:2"),
        ("workload", "workload layer_mix:1:2:3:4"),
        ("workload", "workload layer_mix:a:2:3"),
        ("workload", "workload layer_mix:1:b:3"),
        ("workload", "workload layer_mix:1:2:c"),
    ];
    for fixture in &fixtures {
        for (key, bad) in cases {
            let t = with_line(fixture, key, bad);
            assert!(
                Scenario::from_replay_string(&t).is_err(),
                "`{bad}` must not parse"
            );
        }
    }
    // And the well-formed three-layer fixture itself still parses.
    assert!(Scenario::from_replay_string(&fixtures[1]).is_ok());
}

#[test]
fn structural_defects_are_rejected() {
    let t = valid();
    // Missing `end`.
    assert!(Scenario::from_replay_string(t.strip_suffix("end\n").unwrap()).is_err());
    // Trailing garbage after `end`.
    assert!(Scenario::from_replay_string(&format!("{t}more\n")).is_err());
    // A duplicated line (the next ordered key is then wrong).
    let dup = t.replacen("machine.cpus 3\n", "machine.cpus 3\nmachine.cpus 3\n", 1);
    assert_ne!(dup, t, "fixture must contain the duplicated line");
    assert!(Scenario::from_replay_string(&dup).is_err());
    // Dropping any single line is caught (strict order + required keys).
    let lines: Vec<&str> = t.lines().collect();
    for skip in 0..lines.len() {
        let cut: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(
            Scenario::from_replay_string(&cut).is_err(),
            "deleting line {skip} (`{}`) went unnoticed",
            lines[skip]
        );
    }
}

#[test]
fn rejection_never_panics_on_arbitrary_junk() {
    for junk in [
        "nautix-replay v1",
        "nautix-replay v1\n",
        "nautix-replay v1\nname\n",
        "nautix-replay v1\nname \nend\n",
        "nautix-replay v1\nend\n",
        "\0\0\0",
        "nautix-stream v1\n",
    ] {
        assert!(Scenario::from_replay_string(junk).is_err(), "`{junk:?}`");
    }
    assert!(Workload::decode("").is_err());
    assert!(Workload::decode(":::").is_err());
}

#[test]
fn rejected_inputs_never_run() {
    // A file that fails to parse can't produce a scenario, so there is
    // nothing to run — guard the API shape that enforces it: parse
    // returns Result, and the only constructors are the presets.
    let before = Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 10, 5);
    let text = before.to_replay_string();
    let bad = text.replace("machine.seed 5", "machine.seed five");
    match Scenario::from_replay_string(&bad) {
        Err(e) => assert!(e.contains("machine.seed"), "{e}"),
        Ok(sc) => panic!("malformed seed parsed into {sc:?}"),
    }
}

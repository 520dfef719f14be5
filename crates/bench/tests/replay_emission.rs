//! Satellite 6 (smoke half): a trial flagged by an armed oracle emits a
//! replay file, and replaying that file reproduces the flagged state.
//!
//! The sabotage knob replaces CPU 1's eager-EDF pick with FIFO-by-tid;
//! on the competing-periodics workload the EDF oracle
//! panics at the first deadline-skipping dispatch. `run_recorded` must
//! catch that panic, write `<NAUTIX_REPLAY_DIR>/<name>.replay`, and
//! re-raise. This test mutates process environment, so the whole flow
//! lives in one `#[test]`.

use nautix_bench::harness::NodePool;
use nautix_bench::Scenario;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn sabotaged() -> Scenario {
    let mut sc = Scenario::competing(200_000, 20_000, 40, 77);
    sc.name = "sabotage_smoke".into();
    sc.oracles = true;
    sc.sabotage_fifo = Some(1);
    sc
}

#[test]
fn flagged_trial_emits_a_replay_that_reproduces_the_flag() {
    let dir = std::env::temp_dir().join(format!("nautix-replays-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Control: the same workload unsabotaged runs clean under armed
    // oracles — the flag below is detection, not noise.
    let mut clean = sabotaged();
    clean.sabotage_fifo = None;
    let out = clean.run_fresh();
    assert!(out.jobs > 0);

    // SAFETY-of-test: no other test in this binary touches the env.
    std::env::set_var("NAUTIX_REPLAY_DIR", &dir);
    let sc = sabotaged();
    let flagged = catch_unwind(AssertUnwindSafe(|| sc.run_recorded(&mut NodePool::new())));
    std::env::remove_var("NAUTIX_REPLAY_DIR");
    assert!(
        flagged.is_err(),
        "FIFO sabotage under an armed EDF oracle must panic"
    );

    // The emission: a parseable replay file equal to the flagged trial.
    let path = dir.join("sabotage_smoke.replay");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("flagged trial did not emit {path:?}: {e}"));
    let replayed = Scenario::from_replay_string(&text).expect("emitted replay parses");
    assert_eq!(replayed, sc, "emitted replay must capture the exact trial");

    // Re-running the replay reproduces the flagged state: the oracle
    // fires again, deterministically.
    let again = catch_unwind(AssertUnwindSafe(|| replayed.run_fresh()));
    assert!(
        again.is_err(),
        "replaying a flagged trial must reproduce the flag"
    );

    // Without the env var, the same panic propagates but emits nothing.
    let _ = std::fs::remove_dir_all(&dir);
    let silent = catch_unwind(AssertUnwindSafe(|| sc.run_recorded(&mut NodePool::new())));
    assert!(silent.is_err());
    assert!(!dir.exists(), "no NAUTIX_REPLAY_DIR, no emission");
}

//! The experiment table is the only writer of `results/`: every entry
//! writes exactly the files it declares, in the schema of the committed
//! file of the same name, and no committed file goes undeclared. A second
//! writer with a drifted schema (the removed `fig06_missrate_phi` binary
//! wrote four columns over the committed five) fails here.

use nautix_bench::experiments::{self, SUMMARY_FILE, TABLE};
use nautix_bench::Scale;
use nautix_rt::HarnessConfig;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn header(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    text.lines().next().unwrap_or_default().to_string()
}

fn dir_entries(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn entry_names_and_files_are_unique() {
    let names: BTreeSet<&str> = TABLE.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), TABLE.len(), "duplicate entry name");
    let files: Vec<&str> = TABLE.iter().flat_map(|e| e.csvs).copied().collect();
    let unique: BTreeSet<&str> = files.iter().copied().collect();
    assert_eq!(unique.len(), files.len(), "two entries declare one file");
    // Every committed file has its writer in the table, so CI's
    // `repro_all --paper && git diff --exit-code results/` gates all of them.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let declared: BTreeSet<String> = files
        .iter()
        .chain([&SUMMARY_FILE])
        .map(|f| f.to_string())
        .collect();
    assert_eq!(dir_entries(&committed), declared, "results/ vs TABLE");
}

#[test]
fn every_entry_writes_exactly_its_declared_files_in_the_committed_schema() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let scratch = std::env::temp_dir().join(format!("nautix_table_{}", std::process::id()));
    let hc = HarnessConfig::with_threads(2);
    for e in &TABLE {
        let dir = scratch.join(e.name);
        fs::create_dir_all(&dir).unwrap();
        let run = experiments::run(&hc, Scale::Quick, &dir, &[e]);
        assert!(!run.summary.is_empty(), "{}: no summary row", e.name);
        assert!(run.failed.is_empty(), "{}: failed {:?}", e.name, run.failed);

        let written = dir_entries(&dir);
        let declared: BTreeSet<String> = e
            .csvs
            .iter()
            .copied()
            .chain([SUMMARY_FILE])
            .map(String::from)
            .collect();
        assert_eq!(written, declared, "{}: files written", e.name);

        for csv in e.csvs {
            assert_eq!(
                header(&dir.join(csv)),
                header(&committed.join(csv)),
                "{csv}: header differs from the committed file"
            );
        }
        assert_eq!(
            fs::read_to_string(dir.join(SUMMARY_FILE)).unwrap(),
            run.summary_text()
        );
    }
    fs::remove_dir_all(&scratch).unwrap();
}

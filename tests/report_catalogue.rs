//! The report catalogue (`sos_bench::report::SECTIONS`) is the one list
//! of the report's files: its rows are unique, they are exactly the
//! committed `data/` files, and the analytic rows reproduce those files
//! byte for byte.

use sos_bench::report::{section, SECTIONS};
use sos_bench::AblationOptions;
use std::collections::BTreeSet;
use std::path::Path;

/// Written by `full_report` but git-ignored (0.9 MB of JSONL events).
const IGNORED: &str = "trace-paper-intelligent.jsonl";

fn data_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data"))
}

#[test]
fn names_and_files_are_unique() {
    let files: BTreeSet<_> = SECTIONS.iter().map(|s| s.file).collect();
    let names: BTreeSet<_> = SECTIONS.iter().map(|s| s.name()).collect();
    assert_eq!(files.len(), SECTIONS.len(), "a file is listed twice");
    assert_eq!(names.len(), SECTIONS.len(), "a name is listed twice");
    for s in SECTIONS {
        assert!(std::ptr::eq(section(s.name()).unwrap(), s), "{}", s.name());
    }
    assert!(section("all").is_none(), "`all` is `sos figure`'s, not a section");
}

#[test]
fn sections_are_exactly_the_committed_data_files() {
    let mut committed = BTreeSet::new();
    for entry in std::fs::read_dir(data_dir()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name != "manifest.json" {
            committed.insert(name);
        }
    }
    committed.insert(IGNORED.to_string());
    let listed: BTreeSet<String> = SECTIONS.iter().map(|s| s.file.to_string()).collect();
    assert_eq!(listed, committed);
}

#[test]
fn analytic_sections_reproduce_their_data_files() {
    let analytic = [
        "fig4a",
        "fig4b",
        "fig6a",
        "fig6b",
        "fig7",
        "fig8a",
        "fig8b",
        "fig4a-exact",
        "fig-nc",
        "figures",
        "sensitivity",
        "ext-latency",
        "ablation-multirole",
    ];
    // Analytic rows ignore the Monte Carlo sizing, so the cheapest one
    // reproduces the committed files.
    let opts = AblationOptions {
        trials: 1,
        routes_per_trial: 1,
        seed: 0,
    };
    for name in analytic {
        let s = section(name).unwrap_or_else(|| panic!("no section `{name}`"));
        let committed = std::fs::read_to_string(data_dir().join(s.file)).unwrap();
        assert!((s.render)(opts) == committed, "{} differs from data/{}", name, s.file);
    }
}

//! The paper's tables are a committed artifact: `PAPER_results.json` and
//! the marked tables of EXPERIMENTS.md must equal a fresh measurement.
//! A change that moves any cycle count fails here until the artifact is
//! regenerated, so the change shows up as a diff of the paper's numbers.
//! This test only reads the repository.

use matic_bench::paper::{self, Paper, REGENERATE};
use std::path::Path;
use std::sync::OnceLock;

fn fresh() -> &'static Paper {
    static PAPER: OnceLock<Paper> = OnceLock::new();
    PAPER.get_or_init(paper::generate)
}

fn committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The first line where `committed` and `fresh` differ, for the failure
/// message.
fn first_difference(committed: &str, fresh: &str) -> String {
    let mut fresh_lines = fresh.lines();
    for (i, old) in committed.lines().enumerate() {
        let new = fresh_lines.next().unwrap_or("<end of text>");
        if old != new {
            return format!("line {}: committed `{old}`, fresh `{new}`", i + 1);
        }
    }
    let extra = fresh_lines.next().unwrap_or("<trailing newline>");
    format!("the fresh text goes on with `{extra}`")
}

#[test]
fn committed_paper_results_json_matches_a_fresh_run() {
    let (old, new) = (committed("PAPER_results.json"), fresh().to_json());
    assert!(
        old == new,
        "PAPER_results.json is stale ({}); rerun `{REGENERATE}`",
        first_difference(&old, &new)
    );
}

#[test]
fn experiments_md_tables_match_a_fresh_run() {
    let doc = committed("EXPERIMENTS.md");
    for (name, block) in fresh().blocks() {
        let range = paper::marked_block(&doc, name)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md lost its `repro_paper:{name}` markers"));
        let old = &doc[range];
        assert!(
            old == block,
            "EXPERIMENTS.md table `{name}` is stale ({}); rerun `{REGENERATE}`",
            first_difference(old, &block)
        );
    }
}

#[test]
fn headline_speedup_range_is_pinned() {
    let (lo, hi) = fresh().headline_range();
    assert_eq!(format!("{lo:.2}×–{hi:.2}×"), "2.20×–15.93×");
}

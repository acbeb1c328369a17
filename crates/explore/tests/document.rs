//! The `matic-explore-v1` document: the committed `EXPLORE_frontier.json`
//! regenerates byte for byte from the default configuration, and
//! [`Exploration::from_json`] — the one reader of the format — reads it
//! back losslessly, resolves its names, and rejects malformed documents.

use matic_explore::grid::enumerate;
use matic_explore::{explore, Exploration, ExploreConfig};

fn committed_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPLORE_frontier.json");
    std::fs::read_to_string(path).expect("committed frontier file")
}

#[test]
fn committed_frontier_regenerates_and_round_trips() {
    let committed = committed_text();
    let regenerated = explore(&ExploreConfig::default()).expect("default sweep runs");
    assert!(
        format!("{}\n", regenerated.to_json().pretty()) == committed,
        "the default exploration no longer reproduces EXPLORE_frontier.json"
    );
    let read = Exploration::from_json(&committed).expect("committed document reads");
    assert!(
        format!("{}\n", read.to_json().pretty()) == committed,
        "EXPLORE_frontier.json does not survive a read/write round trip"
    );
}

#[test]
fn parses_the_committed_frontier() {
    let doc = Exploration::from_json(&committed_text()).expect("parses");
    assert!(!doc.benches.is_empty());
    for b in &doc.benches {
        assert!(!b.frontier.is_empty(), "{}", b.bench);
        // The best point is the cycle minimum, so it is on the frontier.
        assert!(
            b.frontier.contains(&b.best),
            "{}: best `{}` missing from its own frontier",
            b.bench,
            b.best
        );
        let best = b.point(&b.best).expect("best names a point");
        for name in &b.frontier {
            let p = b.point(name).expect("frontier names a point");
            assert!(p.cycles >= best.cycles, "{}/{name}", b.bench);
        }
    }
}

#[test]
fn committed_names_resolve_to_grid_candidates() {
    let doc = Exploration::from_json(&committed_text()).unwrap();
    let candidates = enumerate(&doc.grid).expect("the document's grid enumerates");
    let names: Vec<&str> = candidates.iter().map(|c| c.name()).collect();
    assert_eq!(
        names, doc.candidates,
        "grid re-enumerates in document order"
    );
    for b in &doc.benches {
        for name in &b.frontier {
            let cand = candidates
                .iter()
                .find(|c| c.name() == name)
                .unwrap_or_else(|| panic!("{}: `{name}` not in the document's grid", b.bench));
            assert!(cand.spec.validate().is_ok());
        }
    }
}

#[test]
fn malformed_documents_are_rejected() {
    let text = committed_text();
    assert!(Exploration::from_json("{").is_err());
    assert!(Exploration::from_json("{\"schema\": \"matic-explore-v9\"}").is_err());
    let truncated = text.replace("\"benchmarks\"", "\"benchmarx\"");
    assert!(Exploration::from_json(&truncated).is_err());
    let bad_best = text.replacen(
        "\"best\": {\n        \"name\": \"",
        "\"best\": {\n        \"name\": \"nope_",
        1,
    );
    assert_ne!(bad_best, text, "document has a best point");
    let err = Exploration::from_json(&bad_best).unwrap_err();
    assert!(err.contains("best"), "{err}");
    let bad_fuel = text.replace("\"fuel\": 100000000", "\"fuel\": 0");
    assert!(Exploration::from_json(&bad_fuel)
        .unwrap_err()
        .contains("fuel"));
}

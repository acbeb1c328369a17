//! Discovery takes its machine model from the exploration document it is
//! seeded from: the document's grid resolves the seed candidates, and
//! the document's area model prices every point the search reports.

use matic_discover::{discover, DiscoverConfig, Discovery};
use matic_explore::grid::enumerate;
use matic_explore::{explore, AreaModel, ExploreConfig, GridConfig};

fn seed_and_discover(cfg: &ExploreConfig) -> Discovery {
    let doc = explore(cfg)
        .expect("seed exploration runs")
        .to_json()
        .pretty();
    let mut dcfg = DiscoverConfig::new(&doc);
    dcfg.budget = 8;
    discover(&dcfg).expect("discovery runs on the seed document")
}

/// Every area discovery reports — the committed points it was seeded
/// with and the winner it found — is the seed document's area model's
/// price for that point, not the default model's.
#[test]
fn areas_come_from_the_seed_documents_area_model() {
    let model = AreaModel {
        per_lane: 0.15,
        simd_block: 0.5,
        mac_block: 0.1,
        slow_discount: 0.25,
        ..AreaModel::default()
    };
    assert_ne!(model, AreaModel::default());
    let cfg = ExploreConfig {
        bench_ids: vec!["fir".to_string()],
        grid: GridConfig::quick(),
        n: Some(32),
        area: model.clone(),
        ..ExploreConfig::default()
    };
    let candidates = enumerate(&cfg.grid).unwrap();
    let result = seed_and_discover(&cfg);
    let b = &result.benches[0];
    for p in std::iter::once(&b.committed_best).chain(&b.frontier) {
        let cand = candidates.iter().find(|c| c.name() == p.name).unwrap();
        assert_eq!(
            p.area.to_bits(),
            model.price(&cand.spec, None).to_bits(),
            "{}",
            p.name
        );
    }
    let w = &b.winner;
    let fused = w.fused.as_ref().map(|f| (f.fop, f.cost));
    assert_eq!(
        w.area.to_bits(),
        model.price(&w.spec, fused).to_bits(),
        "winner {} priced with another model",
        w.name
    );
}

/// A document swept over a non-default grid seeds discovery: its best
/// point resolves through the document's own grid.
#[test]
fn seeds_from_a_document_with_a_custom_grid() {
    let cfg = ExploreConfig {
        bench_ids: vec!["fir".to_string()],
        grid: GridConfig {
            widths: vec![1, 64],
            ..GridConfig::quick()
        },
        n: Some(64),
        ..ExploreConfig::default()
    };
    let result = seed_and_discover(&cfg);
    let b = &result.benches[0];
    assert!(
        b.committed_best.name.starts_with("w64_"),
        "the best point should be outside the default grid: {}",
        b.committed_best.name
    );
    assert!(b.winner.cycles <= b.committed_best.cycles);
}

//! Acceptance tests for the design-space explorer.
//!
//! The central one pins the compile-once/simulate-many architecture:
//! every Pareto-frontier point's cycle count must bit-match a
//! from-scratch compilation + [`matic::Compiled::simulator`] run
//! targeting that same spec. If MIR (or the decoded instruction stream)
//! ever grows a target dependence, this is the test that fails.

use matic::{Compiler, Features};
use matic_benchkit::{benchmark, to_sim, SUITE};
use matic_explore::{explore, AreaModel, CandidatePoint, ExploreConfig, GridConfig};
use std::sync::Arc;

/// The default grid must stay a real design space: the ISSUE floor is 48
/// candidates, and ours is 70.
#[test]
fn default_grid_is_at_least_48_candidates() {
    let cfg = ExploreConfig::default();
    let candidates = matic_explore::grid::enumerate(&cfg.grid).unwrap();
    assert!(
        candidates.len() >= 48,
        "default grid shrank to {} candidates",
        candidates.len()
    );
}

/// Every frontier point bit-matches a standalone compilation for its spec.
#[test]
fn frontier_points_bit_match_standalone_runs() {
    let cfg = ExploreConfig {
        bench_ids: vec!["fir".to_string(), "cmult".to_string()],
        n: Some(64),
        ..ExploreConfig::default()
    };
    let candidates = matic_explore::grid::enumerate(&cfg.grid).unwrap();
    let result = explore(&cfg).expect("exploration runs");
    for bench_result in &result.benches {
        let bench = benchmark(&bench_result.bench).unwrap();
        assert!(!bench_result.frontier.is_empty());
        for name in &bench_result.frontier {
            let point = bench_result
                .points
                .iter()
                .find(|p| &p.name == name)
                .expect("frontier names a candidate point");
            let cand = candidates
                .iter()
                .find(|c| c.name() == name)
                .expect("frontier names a grid candidate");
            let standalone = Compiler::new()
                .target(cand.spec.clone())
                .compile(bench.source, bench.entry, &bench.arg_types(bench_result.n))
                .expect("standalone compile ok")
                .simulator()
                .run(
                    bench
                        .inputs(bench_result.n, cfg.seed)
                        .iter()
                        .map(to_sim)
                        .collect(),
                )
                .expect("standalone sim ok");
            assert_eq!(
                point.cycles, standalone.cycles.total,
                "{}/{name}: explored cycles must bit-match a fresh compilation",
                bench_result.bench
            );
        }
    }
}

/// Every explored point, on every cost scale, equals a run of that
/// candidate's own spec: fft exercises the complex classes, fir the MAC
/// classes, and scales 1.5 and 2 put every custom class at a new price.
#[test]
fn every_point_equals_a_run_of_its_own_spec() {
    let cfg = ExploreConfig {
        bench_ids: vec!["fft".to_string(), "fir".to_string()],
        grid: GridConfig {
            widths: vec![1, 8],
            feature_sets: Features::subsets().to_vec(),
            cost_scales: vec![1.0, 1.5, 2.0],
        },
        ..ExploreConfig::default()
    };
    let candidates = matic_explore::grid::enumerate(&cfg.grid).unwrap();
    let result = explore(&cfg).expect("exploration runs");
    for b in &result.benches {
        let bench = benchmark(&b.bench).unwrap();
        let compiled = Compiler::new()
            .compile(bench.source, bench.entry, &bench.arg_types(b.n))
            .expect("compiles");
        let reference = bench
            .reference_outputs(&bench.inputs(b.n, cfg.seed))
            .unwrap();
        assert_eq!(b.points.len(), candidates.len(), "{}", b.bench);
        for (point, cand) in b.points.iter().zip(&candidates) {
            let tag = format!("{}/{}", b.bench, cand.name());
            let inputs = bench.inputs(b.n, cfg.seed).iter().map(to_sim).collect();
            let run = compiled
                .simulator_for(Arc::new(cand.spec.clone()))
                .run(inputs)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            matic_explore::check_outputs(&run.outputs, &reference)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let direct = CandidatePoint {
                name: cand.name().to_string(),
                width: cand.width,
                features: cand.features,
                cost_scale: cand.cost_scale,
                area: cfg.area.area(cand),
                cycles: run.cycles.total,
                instructions: run.cycles.instructions,
                vector_cycles: run.cycles.vector_cycles(),
                complex_cycles: run.cycles.complex_cycles(),
                on_frontier: point.on_frontier,
            };
            assert_eq!(point, &direct, "{tag}");
        }
    }
}

/// The full six-benchmark suite completes over the whole default grid
/// within the fuel budget, and on every kernel with parallelism to
/// exploit the accelerated candidates beat the scalar baseline.
#[test]
fn full_suite_completes_on_the_default_grid() {
    // Exploration-sized problems; the grid stays the full 70 candidates.
    let cfg = ExploreConfig {
        n: None,
        ..ExploreConfig::default()
    };
    let result = explore(&cfg).expect("six-benchmark default-grid sweep runs");
    assert_eq!(result.benches.len(), SUITE.len());
    assert!(result.candidates.len() >= 48);
    // 70 candidates share 24 machines: 420 cells from 144 simulations.
    let cells = result.benches.len() * result.candidates.len();
    assert_eq!((cells, result.simulations()), (420, 144));
    for b in &result.benches {
        assert_eq!(b.points.len(), result.candidates.len(), "{}", b.bench);
        assert!(!b.frontier.is_empty(), "{}", b.bench);
        let scalar = b.scalar_cycles.expect("default grid includes scalar");
        let best = b.points.iter().find(|p| p.name == b.best).unwrap();
        assert!(
            best.cycles <= scalar,
            "{}: best candidate must never lose to scalar",
            b.bench
        );
        // IIR is the serial low-speedup anchor; every other kernel must
        // show real acceleration.
        if b.bench != "iir" {
            assert!(
                best.cycles < scalar,
                "{}: an accelerated point must beat scalar ({} !< {scalar})",
                b.bench,
                best.cycles
            );
        }
    }
    // The suite frontier exists and the emitted document validates.
    assert!(!result.suite_frontier().is_empty());
    let summary =
        matic_explore::validate_explore_json(&result.to_json().pretty()).expect("valid document");
    assert_eq!(summary.benchmarks, SUITE.len());
    assert!(summary.scalar_outperformed);
}

/// The committed `targets/` files must stay in sync with the in-code
/// defaults — they are the documented way to feed `matic explore
/// --area-model` and `matic compile --target`.
#[test]
fn committed_target_files_match_in_code_defaults() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let area_text = std::fs::read_to_string(format!("{root}/targets/area_model_default.json"))
        .expect("targets/area_model_default.json is committed");
    let area = AreaModel::from_json(&area_text).expect("committed area model loads");
    assert_eq!(area, AreaModel::default());

    let spec_text = std::fs::read_to_string(format!("{root}/targets/dsp16.json"))
        .expect("targets/dsp16.json is committed");
    let spec = matic::IsaSpec::from_json(&spec_text).expect("committed dsp16 loads");
    assert_eq!(spec, matic::IsaSpec::dsp16());
}

/// Custom area models change pricing (and can reshape the frontier), and
/// broken ones are rejected before any simulation runs.
#[test]
fn area_model_is_pluggable() {
    // Free hardware: every candidate costs `base`, so the frontier
    // collapses to the fastest point(s).
    let cfg = ExploreConfig {
        bench_ids: vec!["fir".to_string()],
        grid: GridConfig::quick(),
        n: Some(64),
        area: AreaModel {
            per_lane: 0.0,
            simd_block: 0.0,
            complex_block: 0.0,
            mac_block: 0.0,
            ..AreaModel::default()
        },
        ..ExploreConfig::default()
    };
    let result = explore(&cfg).unwrap();
    let b = &result.benches[0];
    let best_cycles = b.points.iter().map(|p| p.cycles).min().unwrap();
    for p in b.points.iter().filter(|p| p.on_frontier) {
        assert_eq!(p.cycles, best_cycles, "{}", p.name);
    }
    assert!(b.frontier.contains(&b.best));
}

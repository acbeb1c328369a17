//! Regression checks for the committed `DISCOVER_report.json`.
//!
//! The committed report is a *claim*: that the recorded winners were
//! really simulated, really produce the recorded cycle counts, and
//! really dominate the committed exploration frontier. These tests
//! re-establish the claim from scratch — fresh compiles, specs rebuilt
//! from the report's own serialized copies, dominance recomputed against
//! `EXPLORE_frontier.json` rather than trusted from the report's flags —
//! so a stale artifact (or a simulator change that shifts cycle
//! accounting) fails CI instead of silently invalidating the headline.

use matic::Compiler;
use matic_asip::AsipMachine;
use matic_benchkit::{benchmark, to_sim};
use matic_discover::{rewrite_with, validate_discover_json};
use matic_explore::{check_outputs, Exploration};
use matic_isa::json::{parse, Json};
use matic_isa::{FusedOp, IsaSpec};
use std::sync::Arc;

fn committed(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn the_committed_report_passes_validation() {
    validate_discover_json(&committed("DISCOVER_report.json")).expect("committed report");
}

#[test]
fn committed_winners_resimulate_and_dominate_the_committed_frontier() {
    let report = parse(&committed("DISCOVER_report.json")).expect("report parses");
    let frontier =
        Exploration::from_json(&committed("EXPLORE_frontier.json")).expect("frontier parses");
    let stimulus_seed = report
        .get("stimulus_seed")
        .and_then(Json::as_u64)
        .expect("stimulus_seed");
    assert_eq!(stimulus_seed, frontier.seed, "report/frontier seed drift");

    let Some(Json::Arr(benches)) = report.get("benchmarks") else {
        panic!("missing benchmarks");
    };
    let mut dominating = 0;
    for b in benches {
        let id = b.get("bench").and_then(Json::as_str).expect("bench id");
        let winner = b.get("winner").expect("winner");
        if !(winner
            .get("dominates_committed_best")
            .and_then(Json::as_bool)
            .unwrap_or(false)
            && winner
                .get("beats_every_frontier_point_on_cycles")
                .and_then(Json::as_bool)
                .unwrap_or(false))
        {
            continue;
        }
        dominating += 1;

        let n = b.get("n").and_then(Json::as_u64).expect("n") as usize;
        let recorded_cycles = winner.get("cycles").and_then(Json::as_u64).expect("cycles");
        let recorded_area = winner.get("area").and_then(Json::as_f64).expect("area");
        let spec = IsaSpec::from_json(&winner.get("spec").expect("spec").pretty())
            .unwrap_or_else(|e| panic!("{id}: embedded spec: {e}"));

        // Fresh, uncached compile and re-simulation of the winner.
        let bench = benchmark(id).unwrap_or_else(|| panic!("unknown bench `{id}`"));
        let compiled = Compiler::new()
            .compile(bench.source, bench.entry, &bench.arg_types(n))
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let inputs: Vec<_> = bench.inputs(n, stimulus_seed).iter().map(to_sim).collect();
        let outcome = match winner.get("fused") {
            Some(f) => {
                let builtin = f.get("builtin").and_then(Json::as_str).expect("builtin");
                let fop = FusedOp::from_builtin_name(builtin)
                    .unwrap_or_else(|| panic!("{id}: unknown fused builtin `{builtin}`"));
                let (mir, sites) = rewrite_with(&compiled.mir, fop);
                assert_eq!(
                    sites as u64,
                    f.get("sites").and_then(Json::as_u64).expect("sites"),
                    "{id}: rewrite site count drifted"
                );
                AsipMachine::from_shared(Arc::new(spec))
                    .load(&mir, bench.entry)
                    .run(inputs)
            }
            None => compiled.simulator_for(Arc::new(spec)).run(inputs),
        }
        .unwrap_or_else(|e| panic!("{id}: winner re-simulation failed: {e}"));

        let reference = bench
            .reference_outputs(&bench.inputs(n, stimulus_seed))
            .unwrap();
        check_outputs(&outcome.outputs, &reference)
            .unwrap_or_else(|e| panic!("{id}: outputs drifted: {e}"));
        assert_eq!(
            outcome.cycles.total, recorded_cycles,
            "{id}: cycle accounting drifted from the committed report"
        );

        // Dominance recomputed against the *frontier* document.
        let bf = frontier
            .benches
            .iter()
            .find(|x| x.bench == id)
            .unwrap_or_else(|| panic!("{id}: not in committed frontier"));
        let best = bf.point(&bf.best).expect("best names a candidate");
        assert!(
            (recorded_cycles < best.cycles && recorded_area <= best.area + 1e-9)
                || (recorded_cycles <= best.cycles && recorded_area < best.area - 1e-9),
            "{id}: winner ({recorded_cycles} cy @ {recorded_area}) does not dominate the \
             committed best ({} cy @ {})",
            best.cycles,
            best.area
        );
        for p in bf.points.iter().filter(|p| p.on_frontier) {
            assert!(
                recorded_cycles < p.cycles,
                "{id}: winner does not beat frontier point `{}` on cycles",
                p.name
            );
        }
    }
    assert!(
        dominating >= 1,
        "committed report has no dominating winner to verify"
    );
}

/// The fused rewrite is a pure scheduling transform: on a target
/// *without* the fused unit, the rewritten program must produce
/// bit-identical outputs at an identical cycle count (the components are
/// charged exactly as the unfused pair would be).
#[test]
fn fused_rewrite_is_cycle_neutral_without_the_fused_unit() {
    let report = parse(&committed("DISCOVER_report.json")).unwrap();
    let stimulus_seed = report.get("stimulus_seed").and_then(Json::as_u64).unwrap();
    let Some(Json::Arr(benches)) = report.get("benchmarks") else {
        panic!("missing benchmarks");
    };
    let mut checked = 0;
    for b in benches {
        let Some(f) = b.get("winner").and_then(|w| w.get("fused")) else {
            continue;
        };
        let id = b.get("bench").and_then(Json::as_str).unwrap();
        let n = b.get("n").and_then(Json::as_u64).unwrap() as usize;
        let fop =
            FusedOp::from_builtin_name(f.get("builtin").and_then(Json::as_str).unwrap()).unwrap();
        let bench = benchmark(id).unwrap();
        let compiled = Compiler::new()
            .compile(bench.source, bench.entry, &bench.arg_types(n))
            .unwrap();
        let (mir, sites) = rewrite_with(&compiled.mir, fop);
        assert!(sites > 0, "{id}: nothing rewritten");
        let spec = Arc::new(IsaSpec::dsp16());
        assert!(!spec.supports(matic_isa::OpClass::Fused));
        let inputs: Vec<_> = bench.inputs(n, stimulus_seed).iter().map(to_sim).collect();
        let plain = compiled
            .simulator_for(spec.clone())
            .run(inputs.clone())
            .unwrap();
        let rewritten = AsipMachine::from_shared(spec)
            .load(&mir, bench.entry)
            .run(inputs)
            .unwrap();
        assert_eq!(plain.outputs, rewritten.outputs, "{id}: outputs drifted");
        assert_eq!(
            plain.cycles.total, rewritten.cycles.total,
            "{id}: fused rewrite changed the cycle count on an unfused target"
        );
        checked += 1;
    }
    assert!(checked >= 1, "no fused winner in the committed report");
}

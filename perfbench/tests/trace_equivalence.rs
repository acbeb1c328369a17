//! The traced replay must measure the same program the untraced run
//! measures: for all six kernels it yields byte-identical C, identical
//! simulated cycles and reports, an identical frontier and an identical
//! served response — on the default seed and on a second one.

use matic::{Compiler, IsaSpec};
use matic_benchkit::SUITE;
use perfbench::measure::{END_TO_END, PER_LAYER};
use perfbench::stages;
use perfbench::trace::{Trace, OP_SPAN};
use perfbench::workloads::compile_cold::levels;
use perfbench::workloads::{self, CompileCold, CyclesReport, DseSweep, ServeWarm, Workload};

/// Seeds every check must pass on: explore's default seed (where the
/// committed frontier applies) and one other.
const SEEDS: [u64; 2] = [3, 11];

/// Set-up, then one untraced and one traced op, both checked against the
/// set-up's expected outputs. Returns the trace.
fn replay_matches<W: Workload>(seed: u64) -> Trace {
    let w = W::setup(seed).unwrap_or_else(|e| panic!("set-up, seed {seed}: {e}"));
    let mut conn = w.connect().expect("connect");
    let out = w.op(&mut conn).expect("untraced op");
    w.check(&out).expect("untraced op matches set-up");
    let trace = Trace::new();
    let out = trace
        .op(|ctx| w.traced_op(&mut conn, ctx))
        .expect("traced op");
    w.check(&out)
        .unwrap_or_else(|e| panic!("traced replay differs, seed {seed}: {e}"));
    trace
}

#[test]
fn replayed_compilations_emit_identical_c() {
    let trace = Trace::new();
    for b in SUITE {
        let sig = b.arg_types(b.default_n);
        for opt in levels() {
            let want = Compiler::new()
                .opt_level(opt)
                .compile(b.source, b.entry, &sig)
                .expect("compile");
            let got = trace
                .op(|ctx| stages::compile(ctx, b.source, b.entry, &sig, opt, &IsaSpec::dsp16()))
                .expect("replayed compile");
            assert_eq!(got.c.source, want.c.source, "{} at {opt:?}", b.id);
            let got_mir = matic_mir::print_program(&got.mir);
            assert_eq!(got_mir, want.mir_dump(), "{} at {opt:?}", b.id);
        }
    }
}

#[test]
fn compile_cold_replay_matches() {
    for seed in SEEDS {
        replay_matches::<CompileCold>(seed);
    }
}

#[test]
fn cycles_report_replay_matches_and_follows_the_pipeline_order() {
    for seed in SEEDS {
        let trace = replay_matches::<CyclesReport>(seed);
        let mut spans = trace.spans();
        spans.sort_by_key(|s| s.start_ns);
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.name)
            .filter(|&n| n != OP_SPAN)
            .take_while(|&n| n != "core.drop")
            .collect();
        let compile = [
            "frontend.parse",
            "sema.analyze",
            "mir.lower",
            "mir.optimize",
            "mir.inline",
            "vectorize.vectorize",
            "codegen.emit",
        ];
        let mut want: Vec<&str> = compile.to_vec();
        want.extend([
            "frontend.parse",
            "sema.analyze",
            "mir.lower",
            "mir.optimize",
            "codegen.emit",
        ]);
        want.extend([
            "benchkit.inputs",
            "asip.decode",
            "asip.fuse",
            "asip.run_base",
        ]);
        want.extend(["asip.decode", "asip.fuse", "asip.run_opt", "core.render"]);
        assert_eq!(names, want, "first kernel's spans, seed {seed}");
    }
}

#[test]
fn dse_sweep_replay_matches() {
    for seed in SEEDS {
        replay_matches::<DseSweep>(seed);
    }
}

#[test]
fn serve_warm_replay_matches() {
    for seed in SEEDS {
        replay_matches::<ServeWarm>(seed);
    }
}

/// The metric and workload names the binary prints are the ones
/// `BENCHMARK.json` declares.
#[test]
fn benchmark_json_names_match() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = matic_isa::json::parse(&text).expect("valid JSON");
    let field = |key: &str, field: &str| -> Vec<String> {
        match doc.get(key) {
            Some(matic_isa::json::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|n| n.as_str())
                        .expect(field)
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    };
    assert_eq!(field("workloads", "name"), workloads::NAMES.to_vec());
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = table.iter().map(|m| m.0).collect();
        let units: Vec<&str> = table.iter().map(|m| m.1).collect();
        assert_eq!(field(key, "name"), names, "{key} names");
        assert_eq!(field(key, "unit"), units, "{key} units");
    }
}

//! **Simulator throughput** — wall-clock performance of the virtual ASIP
//! itself, not of the code it models.
//!
//! Times repeated [`matic::Compiled::simulator`] runs over the whole
//! benchmark suite at both opt levels, writing the results to
//! `BENCH_simulator.json` (median ns per run, plus simulated-cycles per
//! host-second as the throughput figure). Simulated cycle counts are
//! deterministic; only the host timings vary run to run. Regenerate with:
//! `cargo run --release -p matic-bench --bin repro_perf`
//!
//! **Regression gate**: when a committed `BENCH_simulator.json` already
//! exists, the run compares per-cell throughput against it and prints a
//! delta table. Every cell in the committed baseline must be present in
//! the fresh run — a missing cell fails the gate loudly instead of
//! silently shrinking the comparison. A geomean throughput drop beyond
//! 15% exits non-zero — wide enough to absorb host noise on the small
//! cells, tight enough to catch a real simulator slowdown. The new
//! numbers are written out regardless, so `git diff` shows exactly what
//! changed.

use matic::{Compiler, OptLevel};
use matic_benchkit::{to_sim, SUITE};
use matic_explore::render_table;
use matic_explore::runner::default_n;
use matic_isa::json::{parse, Json};
use std::process::ExitCode;
use std::time::Instant;

/// The simulator engine every cell runs on, recorded in each row and cell
/// key (`bench_opt_engine`) so earlier baselines stay comparable.
const ENGINE: &str = "native";

/// Allowed geomean throughput regression vs. the committed baseline.
const MAX_GEOMEAN_REGRESSION: f64 = 0.15;

struct Timing {
    bench: &'static str,
    opt: &'static str,
    n: usize,
    cycles: u64,
    median_ns: u64,
    cycles_per_sec: f64,
}

impl Timing {
    fn cell(&self) -> String {
        format!("{}_{}_{ENGINE}", self.bench, self.opt)
    }
}

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times one (bench, opt) cell.
fn time_cell(bench: &matic_benchkit::Benchmark, opt: OptLevel, label: &'static str) -> Timing {
    let n = default_n(bench.id);
    let compiled = Compiler::new()
        .opt_level(opt)
        .compile(bench.source, bench.entry, &bench.arg_types(n))
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.id));
    let inputs: Vec<_> = bench.inputs(n, 3).iter().map(to_sim).collect();
    let sim = compiled.simulator();
    // Warm up (also forces the one-time decode/fuse) and pin cycles.
    let cycles = sim.run(inputs.clone()).expect("sim ok").cycles.total;
    let mut samples = Vec::with_capacity(40);
    let budget = Instant::now();
    while samples.len() < 40 && (samples.len() < 10 || budget.elapsed().as_millis() < 300) {
        let t = Instant::now();
        let out = sim.run(inputs.clone()).expect("sim ok");
        samples.push(t.elapsed().as_nanos() as u64);
        assert_eq!(out.cycles.total, cycles, "simulation must be deterministic");
    }
    let med = median_ns(&mut samples);
    Timing {
        bench: bench.id,
        opt: label,
        n,
        cycles,
        median_ns: med,
        cycles_per_sec: cycles as f64 / (med.max(1) as f64 / 1e9),
    }
}

/// Reads the committed baseline's per-cell throughput, keyed by
/// `bench_opt_engine`. `None` when no baseline exists (first run on a
/// machine).
fn read_baseline(path: &str) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse(&text).ok()?;
    let Some(Json::Arr(results)) = doc.get("results") else {
        return None;
    };
    let cells: Vec<(String, f64)> = results
        .iter()
        .filter_map(|r| {
            let bench = r.get("bench")?.as_str()?;
            let opt = r.get("opt")?.as_str()?;
            let engine = r.get("engine")?.as_str()?;
            let tput = r.get("sim_cycles_per_sec")?.as_f64()?;
            (tput > 0.0).then(|| (format!("{bench}_{opt}_{engine}"), tput))
        })
        .collect();
    (!cells.is_empty()).then_some(cells)
}

/// Compares new throughput against the committed baseline; prints the
/// delta table and returns `Err` on a geomean regression beyond the gate
/// or when a baseline cell is missing from the fresh run.
fn gate_against_baseline(timings: &[Timing], baseline: &[(String, f64)]) -> Result<(), String> {
    // Every committed cell must have a fresh counterpart: a silently
    // dropped cell would shrink the comparison and could hide a
    // regression (or a broken benchmark).
    let missing: Vec<&str> = baseline
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !timings.iter().any(|t| t.cell() == *k))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "baseline cells missing from this run: {}",
            missing.join(", ")
        ));
    }
    let mut rows = Vec::new();
    let mut log_ratio_sum = 0.0f64;
    let mut compared = 0usize;
    for t in timings {
        let cell = t.cell();
        let Some((_, old)) = baseline.iter().find(|(k, _)| *k == cell) else {
            rows.push(vec![
                cell,
                "-".into(),
                format!("{:.1}", t.cycles_per_sec / 1e6),
                "new".into(),
            ]);
            continue;
        };
        let ratio = t.cycles_per_sec / old;
        log_ratio_sum += ratio.ln();
        compared += 1;
        rows.push(vec![
            cell,
            format!("{:.1}", old / 1e6),
            format!("{:.1}", t.cycles_per_sec / 1e6),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
        ]);
    }
    println!("throughput vs committed baseline (Mcyc/s):");
    println!();
    println!(
        "{}",
        render_table(&["cell", "baseline", "now", "delta"], &rows)
    );
    if compared == 0 {
        println!("no comparable cells in baseline; gate skipped");
        return Ok(());
    }
    let geomean = (log_ratio_sum / compared as f64).exp();
    println!(
        "geomean throughput ratio: {:.3}x over {compared} cells (gate: >= {:.2}x)",
        geomean,
        1.0 - MAX_GEOMEAN_REGRESSION
    );
    if geomean < 1.0 - MAX_GEOMEAN_REGRESSION {
        return Err(format!(
            "geomean throughput regressed {:.1}% vs baseline (allowed {:.0}%)",
            (1.0 - geomean) * 100.0,
            MAX_GEOMEAN_REGRESSION * 100.0
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut timings = Vec::new();
    for b in SUITE {
        timings.push(time_cell(b, OptLevel::baseline(), "base"));
        timings.push(time_cell(b, OptLevel::full(), "opt"));
    }
    let rows: Vec<Vec<String>> = timings
        .iter()
        .map(|t| {
            vec![
                t.cell(),
                t.n.to_string(),
                t.cycles.to_string(),
                t.median_ns.to_string(),
                format!("{:.1}", t.cycles_per_sec / 1e6),
            ]
        })
        .collect();
    println!("Simulator throughput (reusable-machine API)");
    println!();
    println!(
        "{}",
        render_table(
            &["cell", "N", "sim-cycles", "median-ns/run", "Mcyc/s"],
            &rows
        )
    );
    let results: Vec<Json> = timings
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("bench".into(), Json::Str(t.bench.into())),
                ("opt".into(), Json::Str(t.opt.into())),
                ("engine".into(), Json::Str(ENGINE.into())),
                ("n".into(), Json::Num(t.n as f64)),
                ("cycles".into(), Json::Num(t.cycles as f64)),
                ("median_ns".into(), Json::Num(t.median_ns as f64)),
                (
                    "sim_cycles_per_sec".into(),
                    Json::Num(t.cycles_per_sec.round()),
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("generated_by".into(), Json::Str("repro_perf".into())),
        ("group".into(), Json::Str("asip_simulation".into())),
        ("results".into(), Json::Arr(results)),
    ]);
    let path = "BENCH_simulator.json";
    let baseline = read_baseline(path);
    std::fs::write(path, doc.pretty() + "\n").expect("write BENCH_simulator.json");
    println!("wrote {path}");
    if let Some(baseline) = baseline {
        println!();
        if let Err(e) = gate_against_baseline(&timings, &baseline) {
            eprintln!("repro_perf: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        println!("no committed baseline found; regression gate skipped");
    }
    ExitCode::SUCCESS
}

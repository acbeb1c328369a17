//! **Simulator throughput** — wall-clock performance of the virtual ASIP
//! itself, not of the code it models.
//!
//! Times repeated [`matic::Compiled::simulator`] runs over the whole
//! benchmark suite at both opt levels, writing the results to
//! `BENCH_simulator.json` (the fastest run's ns, plus simulated cycles
//! per host-second as the throughput figure). Simulated cycle counts are
//! deterministic; only the host timings vary run to run. Regenerate with:
//! `cargo run --release -p matic-bench --bin repro_perf`
//!
//! Cells are timed in interleaved rounds, every cell once per round, and
//! each cell keeps its minimum: a burst of load on the host slows a few
//! rounds of every cell instead of all the runs of one cell, and the
//! minimum discards those rounds. It reads the cost of the code rather
//! than the state of the host.
//!
//! **Regression gate**: when a committed `BENCH_simulator.json` already
//! exists, the run compares per-cell throughput against it and prints a
//! delta table. Every cell in the committed baseline must be present in
//! the fresh run — a missing cell fails the gate loudly instead of
//! silently shrinking the comparison — and must simulate exactly the
//! committed number of cycles, so a change that moves a cycle count
//! fails until the file it regenerates is committed with it. A geomean
//! throughput drop beyond 15% exits non-zero — wide enough to absorb
//! host noise on the small cells, tight enough to catch a real simulator
//! slowdown. The new numbers are written out regardless, so `git diff`
//! shows exactly what changed.

use matic::{Compiled, Compiler, OptLevel, SimVal};
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

/// Timing rounds: at least `MIN_ROUNDS`, then more until `BUDGET_MS` of
/// wall time has passed or `MAX_ROUNDS` have run.
const MIN_ROUNDS: usize = 50;
const MAX_ROUNDS: usize = 1000;
const BUDGET_MS: u128 = 2000;

struct Timing {
    bench: &'static str,
    opt: &'static str,
    n: usize,
    cycles: u64,
    min_ns: u64,
    cycles_per_sec: f64,
}

impl Timing {
    fn cell(&self) -> String {
        format!("{}_{}_{ENGINE}", self.bench, self.opt)
    }
}

/// Compiles one (bench, opt) cell and draws its inputs.
fn compile_cell(
    bench: &'static matic_benchkit::Benchmark,
    opt: OptLevel,
) -> (Compiled, Vec<SimVal>) {
    let n = default_n(bench.id);
    let compiled = Compiler::new()
        .opt_level(opt)
        .compile(bench.source, bench.entry, &bench.arg_types(n))
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.id));
    let inputs = bench.inputs(n, 3).iter().map(to_sim).collect();
    (compiled, inputs)
}

/// Times every cell in interleaved rounds and keeps each cell's fastest
/// run. A warm-up run per cell forces the one-time decode and fusion and
/// pins the cycle count, which every timed run must reproduce.
fn time_cells(cells: &[(&'static str, &'static str, Compiled, Vec<SimVal>)]) -> Vec<Timing> {
    let sims: Vec<_> = cells.iter().map(|(.., c, _)| c.simulator()).collect();
    let cycles: Vec<u64> = sims
        .iter()
        .zip(cells)
        .map(|(sim, (.., inputs))| sim.run(inputs.clone()).expect("sim ok").cycles.total)
        .collect();
    let mut best = vec![u64::MAX; cells.len()];
    let budget = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && budget.elapsed().as_millis() < BUDGET_MS) {
        for (i, (sim, (.., inputs))) in sims.iter().zip(cells).enumerate() {
            let inputs = inputs.clone();
            let t = Instant::now();
            let out = sim.run(inputs).expect("sim ok");
            best[i] = best[i].min(t.elapsed().as_nanos() as u64);
            assert_eq!(
                out.cycles.total, cycles[i],
                "simulation must be deterministic"
            );
        }
        rounds += 1;
    }
    cells
        .iter()
        .zip(cycles.iter().zip(best))
        .map(|((bench, opt, ..), (&cycles, min_ns))| Timing {
            bench,
            opt,
            n: default_n(bench),
            cycles,
            min_ns,
            cycles_per_sec: cycles as f64 / (min_ns.max(1) as f64 / 1e9),
        })
        .collect()
}

/// One committed cell: its `bench_opt_engine` key, throughput and cycle
/// count.
struct BaselineCell {
    key: String,
    cycles_per_sec: f64,
    cycles: u64,
}

/// Reads the committed baseline's cells. `None` when no baseline exists
/// (first run on a machine).
fn read_baseline(path: &str) -> Option<Vec<BaselineCell>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse(&text).ok()?;
    let Some(Json::Arr(results)) = doc.get("results") else {
        return None;
    };
    let cells: Vec<BaselineCell> = results
        .iter()
        .filter_map(|r| {
            let bench = r.get("bench")?.as_str()?;
            let opt = r.get("opt")?.as_str()?;
            let engine = r.get("engine")?.as_str()?;
            let tput = r.get("sim_cycles_per_sec")?.as_f64()?;
            let cycles = r.get("cycles")?.as_f64()?;
            (tput > 0.0).then(|| BaselineCell {
                key: format!("{bench}_{opt}_{engine}"),
                cycles_per_sec: tput,
                cycles: cycles as u64,
            })
        })
        .collect();
    (!cells.is_empty()).then_some(cells)
}

/// Compares new throughput against the committed baseline; prints the
/// delta table and returns `Err` on a geomean regression beyond the gate,
/// when a baseline cell is missing from the fresh run, or when a cell's
/// cycle count differs from the committed one.
fn gate_against_baseline(timings: &[Timing], baseline: &[BaselineCell]) -> Result<(), String> {
    // Every committed cell must have a fresh counterpart: a silently
    // dropped cell would shrink the comparison and could hide a
    // regression (or a broken benchmark).
    let missing: Vec<&str> = baseline
        .iter()
        .map(|b| b.key.as_str())
        .filter(|k| !timings.iter().any(|t| t.cell() == *k))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "baseline cells missing from this run: {}",
            missing.join(", ")
        ));
    }
    let moved = cycle_changes(timings, baseline);
    if !moved.is_empty() {
        return Err(format!(
            "cycle counts differ from the committed baseline: {}",
            moved.join(", ")
        ));
    }
    let mut rows = Vec::new();
    let mut log_ratio_sum = 0.0f64;
    let mut compared = 0usize;
    for t in timings {
        let cell = t.cell();
        let Some(old) = baseline
            .iter()
            .find(|b| b.key == cell)
            .map(|b| b.cycles_per_sec)
        else {
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

/// `cell committed -> now` for every cell whose cycle count differs from
/// its committed one.
fn cycle_changes(timings: &[Timing], baseline: &[BaselineCell]) -> Vec<String> {
    timings
        .iter()
        .filter_map(|t| {
            let old = baseline.iter().find(|b| b.key == t.cell())?;
            (old.cycles != t.cycles).then(|| format!("{} {} -> {}", old.key, old.cycles, t.cycles))
        })
        .collect()
}

fn main() -> ExitCode {
    let mut cells = Vec::new();
    for b in SUITE {
        for (label, opt) in [("base", OptLevel::baseline()), ("opt", OptLevel::full())] {
            let (compiled, inputs) = compile_cell(b, opt);
            cells.push((b.id, label, compiled, inputs));
        }
    }
    let timings = time_cells(&cells);
    let rows: Vec<Vec<String>> = timings
        .iter()
        .map(|t| {
            vec![
                t.cell(),
                t.n.to_string(),
                t.cycles.to_string(),
                t.min_ns.to_string(),
                format!("{:.1}", t.cycles_per_sec / 1e6),
            ]
        })
        .collect();
    println!("Simulator throughput (reusable-machine API)");
    println!();
    println!(
        "{}",
        render_table(&["cell", "N", "sim-cycles", "min-ns/run", "Mcyc/s"], &rows)
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
                ("min_ns".into(), Json::Num(t.min_ns as f64)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(cycles: u64) -> Timing {
        Timing {
            bench: "fir",
            opt: "base",
            n: 128,
            cycles,
            min_ns: 1000,
            cycles_per_sec: cycles as f64 * 1e6,
        }
    }

    #[test]
    fn a_moved_cycle_count_fails_the_gate() {
        let baseline = [BaselineCell {
            key: "fir_base_native".into(),
            cycles_per_sec: 69094e6,
            cycles: 69094,
        }];
        assert!(gate_against_baseline(&[timing(69094)], &baseline).is_ok());
        let err = gate_against_baseline(&[timing(69095)], &baseline).unwrap_err();
        assert!(err.contains("fir_base_native 69094 -> 69095"), "{err}");
    }
}

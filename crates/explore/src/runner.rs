//! The exploration driver: compile once, simulate against every candidate.
//!
//! Each benchmark is compiled a single time at full optimization and its
//! reference outputs come from the reference interpreter; the shared
//! pre-decoded program then runs against every distinct machine of the
//! grid. A machine is a width and a feature set: candidates that share
//! one differ only in their cost table, and a cost table changes only
//! prices, never outputs or which classes are charged how often. So
//! each (benchmark, machine) pair is one fuel-limited simulation whose
//! outputs are checked against the reference, and each (benchmark,
//! candidate) cell is its machine's cycle report repriced to the
//! candidate's costs ([`matic::CycleReport::repriced`]). A cell's cycle
//! count is bit-identical to what a from-scratch compilation for that
//! candidate would report (see [`matic::Compiled::simulator_for`]).
//! The best candidate is re-run on its own spec with profiling enabled
//! to answer *why* it wins — which source line its cycles concentrate on.
//!
//! The work runs as three fan-outs on [`crate::par_map`]:
//!
//! 1. compile, one task per benchmark;
//! 2. one pool of every benchmark's reference run, in requested order,
//!    followed by every (benchmark, machine) simulation, so that no
//!    simulation waits for a reference run;
//! 3. frontier and profiled re-run, one task per benchmark.
//!
//! A simulation returns its cycle report and its outputs. After the
//! pool, the main thread walks the benchmarks in requested order and
//! checks each machine's outputs against the reference at `1e-9`, then
//! prices the benchmark's cells, serially. The error reported is the one
//! a kernel-by-kernel run would meet first: benchmarks in requested
//! order, and within one benchmark its compile, its reference run, its
//! first failing machine in grid order (a simulation error or outputs
//! off the reference), its pricing, its profile. A simulation fails for
//! all of its machine's cells at once, and a machine is its first cell
//! in grid order, so that cell is the one named.

use crate::area::AreaModel;
use crate::grid::{enumerate, machine_of, Candidate, GridConfig};
use crate::pareto::pareto_frontier;
use crate::util::par_map;
use matic::{CValue, Compiled, Compiler, CycleReport, Engine, Features, SimVal, SourceMap};
use matic_benchkit::{benchmark, outputs_close, sim_to_cvalue, to_sim, Benchmark, SUITE};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything one exploration run needs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Benchmarks to explore (ids from [`matic_benchkit::SUITE`]).
    pub bench_ids: Vec<String>,
    /// Problem size override; `None` picks per-benchmark defaults sized
    /// for sub-second exploration (matmul 8, fft 64, otherwise 128).
    pub n: Option<usize>,
    /// Stimulus seed.
    pub seed: u64,
    /// Statement budget per simulation (guards against a pathological
    /// candidate hanging the whole sweep).
    pub fuel: u64,
    /// The candidate grid.
    pub grid: GridConfig,
    /// The area model pricing each candidate.
    pub area: AreaModel,
    /// Always [`Engine::Native`], the only engine; kept only because
    /// `perfbench/` still reads it, and can go together with that use.
    pub engine: Engine,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            bench_ids: SUITE.iter().map(|b| b.id.to_string()).collect(),
            n: None,
            seed: 3,
            fuel: 100_000_000,
            grid: GridConfig::default(),
            area: AreaModel::default(),
            engine: Engine::Native,
        }
    }
}

/// Small problem sizes: exploration, `repro_perf` and the differential
/// tests all run the suite at these.
pub fn default_n(id: &str) -> usize {
    match id {
        "matmul" => 8,
        "fft" => 64,
        _ => 128,
    }
}

/// One (benchmark, candidate) cell, reduced to plain data so it can cross
/// the worker-thread boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePoint {
    /// Candidate name (grid coordinates, e.g. `w8_simd_cplx_mac`).
    pub name: String,
    /// SIMD lane count.
    pub width: usize,
    /// Enabled custom-instruction families.
    pub features: Features,
    /// Cost-table multiplier on the custom classes.
    pub cost_scale: f64,
    /// Normalized area from the run's [`AreaModel`].
    pub area: f64,
    /// Simulated cycles for the benchmark kernel.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles spent in SIMD instruction classes.
    pub vector_cycles: u64,
    /// Cycles spent in complex-arithmetic instruction classes.
    pub complex_cycles: u64,
    /// Whether the point is on this benchmark's Pareto frontier.
    pub on_frontier: bool,
}

/// Where the winning candidate spends its cycles: the hottest source line
/// of the profiled re-run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLine {
    /// 1-based source line.
    pub line: u32,
    /// The source text of that line, trimmed.
    pub source: String,
    /// Fraction of total cycles attributed to the line.
    pub fraction: f64,
    /// The dominant op class on the line (display name).
    pub top_class: String,
    /// SIMD lane utilization on the line, when vector ops ran there.
    pub lane_utilization: Option<f64>,
}

/// Exploration result for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchExploration {
    /// Benchmark id.
    pub bench: String,
    /// Entry function.
    pub entry: String,
    /// Problem size explored.
    pub n: usize,
    /// Every candidate's cell, in grid order.
    pub points: Vec<CandidatePoint>,
    /// Names of the Pareto-optimal candidates, cheapest first.
    pub frontier: Vec<String>,
    /// Name of the fastest candidate (ties broken toward smaller area).
    pub best: String,
    /// Cycles of the pure `scalar` candidate, when the grid includes it.
    pub scalar_cycles: Option<u64>,
    /// `scalar_cycles / best cycles`, when the grid includes `scalar`.
    pub best_speedup: Option<f64>,
    /// Hottest source line of the best candidate's profiled re-run.
    pub why: Option<HotLine>,
}

impl BenchExploration {
    /// The candidate point named `name`.
    pub fn point(&self, name: &str) -> Option<&CandidatePoint> {
        self.points.iter().find(|p| p.name == name)
    }
}

/// One candidate's suite-wide aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SuitePoint {
    /// Candidate name.
    pub name: String,
    /// Normalized area.
    pub area: f64,
    /// Geometric-mean cycles across all explored benchmarks.
    pub geomean_cycles: f64,
    /// Whether the point is on the suite-wide Pareto frontier.
    pub on_frontier: bool,
}

/// A full exploration: per-benchmark results plus the suite aggregate.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Stimulus seed used.
    pub seed: u64,
    /// Fuel budget per simulation.
    pub fuel: u64,
    /// The grid that was swept.
    pub grid: GridConfig,
    /// The area model used for pricing.
    pub area: AreaModel,
    /// Candidate names, in grid order (shared by every benchmark).
    pub candidates: Vec<String>,
    /// Per-benchmark explorations, in requested order.
    pub benches: Vec<BenchExploration>,
    /// Suite-wide aggregate per candidate, in grid order.
    pub suite: Vec<SuitePoint>,
}

impl Exploration {
    /// Names of the suite-wide Pareto-optimal candidates, cheapest first.
    pub fn suite_frontier(&self) -> Vec<String> {
        let mut names: Vec<&SuitePoint> = self.suite.iter().filter(|p| p.on_frontier).collect();
        names.sort_by(|a, b| a.area.total_cmp(&b.area));
        names.iter().map(|p| p.name.clone()).collect()
    }

    /// Simulations the sweep ran: one per benchmark and distinct machine
    /// of the grid ([`crate::grid::machine_of`]), not counting the
    /// profiled re-runs of the winners.
    pub fn simulations(&self) -> usize {
        let candidates = enumerate(&self.grid).expect("the swept grid is valid");
        let machines: BTreeSet<usize> = machine_of(&candidates).into_iter().collect();
        machines.len() * self.benches.len()
    }
}

/// Runs the design-space exploration described by `cfg`.
///
/// # Errors
///
/// Fails on unknown benchmark ids, invalid grid/area configuration,
/// compile errors, simulation faults (including fuel exhaustion), and any
/// candidate whose outputs diverge from the reference interpreter.
pub fn explore(cfg: &ExploreConfig) -> Result<Exploration, String> {
    if cfg.bench_ids.is_empty() {
        return Err("no benchmarks selected".to_string());
    }
    if cfg.fuel == 0 {
        return Err("fuel budget must be positive".to_string());
    }
    cfg.area.validate()?;
    let candidates = enumerate(&cfg.grid)?;
    let benches: Vec<&'static Benchmark> = cfg
        .bench_ids
        .iter()
        .map(|id| {
            benchmark(id).ok_or_else(|| {
                let known: Vec<&str> = SUITE.iter().map(|b| b.id).collect();
                format!("unknown benchmark `{id}` (known: {})", known.join(", "))
            })
        })
        .collect::<Result<_, _>>()?;

    // Fan-out 1: compile per benchmark. A later stage runs only the
    // benchmarks before the first failure, since an error of a later
    // benchmark could never be the one reported.
    let (prepared, compile_err) = ok_prefix(par_map(&benches, |&bench| prepare(bench, cfg)));

    // Fan-out 2: every reference run, then every (benchmark, machine)
    // simulation, in one pool. Nothing waits for a reference run but its
    // own check, which the walk below makes after the pool.
    let machine_of = machine_of(&candidates);
    let machines: Vec<usize> = (0..candidates.len())
        .filter(|&i| machine_of[i] == i)
        .collect();
    let jobs: Vec<(&Prepared, Option<usize>)> = prepared
        .iter()
        .map(|p| (p, None))
        .chain(
            prepared
                .iter()
                .flat_map(|p| machines.iter().map(move |&m| (p, Some(m)))),
        )
        .collect();
    let mut done = par_map(&jobs, |&(p, m)| match m {
        None => reference(p, cfg).map(|outputs| (None, outputs)),
        Some(m) => run_machine(p, &candidates[m], cfg).map(|(r, outputs)| (Some(r), outputs)),
    })
    .into_iter();
    let references: Vec<_> = done.by_ref().take(prepared.len()).collect();
    let pooled = prepared.iter().zip(references).map(|(p, reference)| {
        let runs = done.by_ref().take(machines.len()).map(|run| {
            run.map(|(report, outputs)| (report.expect("a simulation reports cycles"), outputs))
        });
        let share = Pooled {
            reference: reference.map(|(_, outputs)| outputs),
            runs: runs.collect(),
        };
        Ok((p.bench.id, share))
    });
    let names: Vec<&str> = machines.iter().map(|&m| candidates[m].name()).collect();
    let (checked, check_err) = checked_in_order(pooled.chain(compile_err.map(Err)), &names);

    // Pricing, serial: each candidate's cell is its machine's report at
    // its own prices.
    let (swept, price_err) = ok_prefix(prepared.iter().zip(checked).map(
        |(p, (reference, reports))| {
            let points = candidates
                .iter()
                .zip(&machine_of)
                .map(|(cand, &m)| {
                    let k = machines.binary_search(&m).expect("every machine ran");
                    price(p, &candidates[m], &reports[k], cand, cfg)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((p, reference, points))
        },
    ));

    // Fan-out 3: frontier and profiled re-run per benchmark. Each stage
    // ran only the benchmarks before the previous stages' error, so its
    // own error comes first.
    let (out, err) = ok_prefix(par_map(&swept, |(p, reference, points)| {
        summarize(p, reference, points, &candidates, cfg)
    }));
    if let Some(e) = err.or(price_err).or(check_err) {
        return Err(e);
    }
    let suite = aggregate_suite(&candidates, &out, &cfg.area);
    Ok(Exploration {
        seed: cfg.seed,
        fuel: cfg.fuel,
        grid: cfg.grid.clone(),
        area: cfg.area.clone(),
        candidates: candidates.iter().map(|c| c.name().to_string()).collect(),
        benches: out,
        suite,
    })
}

/// The results before the first error, and that error. Stops reading
/// `results` at the error.
fn ok_prefix<T>(results: impl IntoIterator<Item = Result<T, String>>) -> (Vec<T>, Option<String>) {
    let mut ok = Vec::new();
    for r in results {
        match r {
            Ok(v) => ok.push(v),
            Err(e) => return (ok, Some(e)),
        }
    }
    (ok, None)
}

/// One benchmark's share of fan-out 2: its reference run, then one
/// simulation per machine in grid order, each with its outputs.
struct Pooled<R> {
    reference: Result<Vec<CValue>, String>,
    runs: Vec<Result<(R, Vec<CValue>), String>>,
}

/// One benchmark's reference outputs and machine reports, checked
/// against each other.
type Checked<R> = (Vec<CValue>, Vec<R>);

/// Walks the benchmarks in requested order, each given by its id and
/// pooled results or by its compile error, and returns each one's
/// reference outputs and machine reports up to the first error, with
/// that error. Within one benchmark the reference run comes first, then
/// its machines in grid order: a simulation error, or outputs that
/// [`check_values`] rejects. `machines` names the machines of `runs`.
fn checked_in_order<'a, R>(
    benches: impl IntoIterator<Item = Result<(&'a str, Pooled<R>), String>>,
    machines: &[&str],
) -> (Vec<Checked<R>>, Option<String>) {
    ok_prefix(benches.into_iter().map(|bench| {
        let (id, pooled) = bench?;
        let reference = pooled.reference?;
        let reports = pooled
            .runs
            .into_iter()
            .zip(machines)
            .map(|(run, machine)| {
                let (report, outputs) = run?;
                check_values(&outputs, &reference).map_err(|e| format!("{id}/{machine}: {e}"))?;
                Ok(report)
            })
            .collect::<Result<_, String>>()?;
        Ok((reference, reports))
    }))
}

/// One benchmark compiled once. The decoded program is
/// target-independent and shared by every candidate's simulator.
struct Prepared {
    bench: &'static Benchmark,
    n: usize,
    compiled: Compiled,
}

fn prepare(bench: &'static Benchmark, cfg: &ExploreConfig) -> Result<Prepared, String> {
    let n = cfg.n.unwrap_or_else(|| default_n(bench.id));
    let compiled = Compiler::new()
        .compile(bench.source, bench.entry, &bench.arg_types(n))
        .map_err(|e| format!("{}: compile failed: {e}", bench.id))?;
    Ok(Prepared { bench, n, compiled })
}

/// The reference interpreter's outputs for one benchmark.
fn reference(p: &Prepared, cfg: &ExploreConfig) -> Result<Vec<CValue>, String> {
    p.bench
        .reference_outputs(&p.bench.inputs(p.n, cfg.seed))
        .map_err(|e| format!("{}: reference run failed: {e}", p.bench.id))
}

/// One fuel-limited simulation of a machine: its cycle report and its
/// outputs, which hold for every candidate of the machine. Inputs are
/// built and outputs converted inside the worker: simulation values are
/// `Rc`-backed and must not cross threads.
fn run_machine(
    p: &Prepared,
    machine: &Candidate,
    cfg: &ExploreConfig,
) -> Result<(CycleReport, Vec<CValue>), String> {
    let inputs: Vec<_> = p.bench.inputs(p.n, cfg.seed).iter().map(to_sim).collect();
    let outcome = p
        .compiled
        .simulator_for(Arc::new(machine.spec.clone()))
        .with_fuel(cfg.fuel)
        .run(inputs)
        .map_err(|e| format!("{}/{}: {e}", p.bench.id, machine.name()))?;
    Ok((
        outcome.cycles,
        outcome.outputs.iter().map(sim_to_cvalue).collect(),
    ))
}

/// One candidate's cell: its machine's `report` at the candidate's costs.
/// A repricing error is an internal error (grid candidates of one machine
/// always agree on which classes exist), never a reason to simulate.
fn price(
    p: &Prepared,
    machine: &Candidate,
    report: &CycleReport,
    cand: &Candidate,
    cfg: &ExploreConfig,
) -> Result<CandidatePoint, String> {
    let cycles = report
        .repriced(&machine.spec, &cand.spec)
        .map_err(|e| format!("{}/{}: internal error: {e}", p.bench.id, cand.name()))?;
    Ok(CandidatePoint {
        name: cand.name().to_string(),
        width: cand.width,
        features: cand.features,
        cost_scale: cand.cost_scale,
        area: cfg.area.area(cand),
        cycles: cycles.total,
        instructions: cycles.instructions,
        vector_cycles: cycles.vector_cycles(),
        complex_cycles: cycles.complex_cycles(),
        on_frontier: false,
    })
}

/// Marks one benchmark's frontier, picks its best candidate and profiles it.
fn summarize(
    p: &Prepared,
    reference: &[CValue],
    points: &[CandidatePoint],
    candidates: &[Candidate],
    cfg: &ExploreConfig,
) -> Result<BenchExploration, String> {
    let mut points = points.to_vec();
    let coords: Vec<(f64, f64)> = points.iter().map(|p| (p.area, p.cycles as f64)).collect();
    for i in pareto_frontier(&coords) {
        points[i].on_frontier = true;
    }
    let mut frontier: Vec<&CandidatePoint> = points.iter().filter(|p| p.on_frontier).collect();
    frontier.sort_by(|a, b| a.area.total_cmp(&b.area));
    let frontier: Vec<String> = frontier.iter().map(|p| p.name.clone()).collect();

    let best = points
        .iter()
        .min_by(|a, b| a.cycles.cmp(&b.cycles).then(a.area.total_cmp(&b.area)))
        .expect("grid is non-empty")
        .clone();
    let scalar_cycles = points.iter().find(|p| !p.features.any()).map(|p| p.cycles);
    let best_speedup = scalar_cycles.map(|s| s as f64 / best.cycles.max(1) as f64);
    let best_cand = candidates.iter().find(|c| c.name() == best.name);
    let best_cand = best_cand.expect("points are built from the candidates");
    let why = profile_best(p.bench, p.n, &p.compiled, reference, best_cand, cfg)?;

    Ok(BenchExploration {
        bench: p.bench.id.to_string(),
        entry: p.bench.entry.to_string(),
        n: p.n,
        points,
        frontier,
        best: best.name,
        scalar_cycles,
        best_speedup,
        why,
    })
}

/// Re-runs the winning candidate with profiling on and reports its
/// hottest source line — the *why* behind the recommendation.
fn profile_best(
    bench: &Benchmark,
    n: usize,
    compiled: &Compiled,
    reference: &[CValue],
    cand: &Candidate,
    cfg: &ExploreConfig,
) -> Result<Option<HotLine>, String> {
    let inputs: Vec<_> = bench.inputs(n, cfg.seed).iter().map(to_sim).collect();
    let context = |e: String| format!("{}/{} (profiled): {e}", bench.id, cand.name());
    let outcome = compiled
        .simulator_for(Arc::new(cand.spec.clone()))
        .with_fuel(cfg.fuel)
        .with_profiling(true)
        .run(inputs)
        .map_err(|e| context(e.to_string()))?;
    check_outputs(&outcome.outputs, reference).map_err(context)?;
    let Some(profile) = outcome.profile else {
        return Ok(None);
    };
    let total = profile.total_cycles().max(1);
    let map = SourceMap::new(bench.source);
    let hottest = profile
        .lines(&map)
        .into_iter()
        .filter(|(line, _)| *line > 0)
        .max_by_key(|(_, c)| c.cycles);
    let Some((line, counters)) = hottest else {
        return Ok(None);
    };
    let source = map
        .source()
        .lines()
        .nth(line as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string();
    let top_class = counters
        .top_classes()
        .first()
        .map(|(op, _)| op.to_string())
        .unwrap_or_default();
    Ok(Some(HotLine {
        line,
        source,
        fraction: counters.cycles as f64 / total as f64,
        top_class,
        lane_utilization: counters.lane_utilization(),
    }))
}

/// Checks a simulation's outputs against the reference interpreter's:
/// the same number of outputs, each within `1e-9` ([`outputs_close`]).
///
/// # Errors
///
/// Describes the arity mismatch or the first diverging output.
pub fn check_outputs(outputs: &[SimVal], reference: &[CValue]) -> Result<(), String> {
    let outputs: Vec<CValue> = outputs.iter().map(sim_to_cvalue).collect();
    check_values(&outputs, reference)
}

/// [`check_outputs`] on outputs already converted to [`CValue`]s.
fn check_values(outputs: &[CValue], reference: &[CValue]) -> Result<(), String> {
    if outputs.len() != reference.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            outputs.len(),
            reference.len()
        ));
    }
    for (actual, expected) in outputs.iter().zip(reference) {
        outputs_close(actual, expected, 1e-9).map_err(|e| format!("wrong result: {e}"))?;
    }
    Ok(())
}

/// Geometric-mean cycles per candidate across all benchmarks, plus the
/// suite-wide frontier.
fn aggregate_suite(
    candidates: &[Candidate],
    benches: &[BenchExploration],
    area: &AreaModel,
) -> Vec<SuitePoint> {
    let mut suite: Vec<SuitePoint> = candidates
        .iter()
        .enumerate()
        .map(|(i, cand)| {
            let log_sum: f64 = benches
                .iter()
                .map(|b| (b.points[i].cycles.max(1) as f64).ln())
                .sum();
            let geomean = (log_sum / benches.len().max(1) as f64).exp();
            SuitePoint {
                name: cand.name().to_string(),
                area: area.area(cand),
                geomean_cycles: geomean,
                on_frontier: false,
            }
        })
        .collect();
    let coords: Vec<(f64, f64)> = suite.iter().map(|p| (p.area, p.geomean_cycles)).collect();
    for i in pareto_frontier(&coords) {
        suite[i].on_frontier = true;
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExploreConfig {
        ExploreConfig {
            bench_ids: vec!["fir".to_string()],
            grid: GridConfig::quick(),
            n: Some(64),
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn explores_one_benchmark_end_to_end() {
        let result = explore(&tiny_config()).expect("exploration runs");
        assert_eq!(result.benches.len(), 1);
        let b = &result.benches[0];
        assert_eq!(b.points.len(), result.candidates.len());
        assert!(!b.frontier.is_empty());
        // FIR is MAC-dominated: full acceleration must beat pure scalar.
        let scalar = b.scalar_cycles.expect("quick grid includes scalar");
        let best = b.points.iter().find(|p| p.name == b.best).unwrap();
        assert!(best.cycles < scalar, "{} !< {scalar}", best.cycles);
        assert!(b.best_speedup.unwrap() > 1.0);
        // The why-report points at a real source line.
        let why = b.why.as_ref().expect("profiled re-run yields a hot line");
        assert!(why.line > 0 && !why.source.is_empty());
        assert!(why.fraction > 0.0 && why.fraction <= 1.0);
        // Suite aggregate over one benchmark mirrors the benchmark.
        assert_eq!(result.suite.len(), b.points.len());
        assert!(!result.suite_frontier().is_empty());
    }

    #[test]
    fn frontier_points_are_mutually_nondominated() {
        let result = explore(&tiny_config()).unwrap();
        let pts: Vec<&CandidatePoint> = result.benches[0]
            .points
            .iter()
            .filter(|p| p.on_frontier)
            .collect();
        for a in &pts {
            for b in &pts {
                if a.name == b.name {
                    continue;
                }
                let dominates = b.area <= a.area
                    && b.cycles <= a.cycles
                    && (b.area < a.area || b.cycles < a.cycles);
                assert!(!dominates, "{} dominates {}", b.name, a.name);
            }
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = tiny_config();
        cfg.bench_ids = vec!["nope".to_string()];
        assert!(explore(&cfg).unwrap_err().contains("unknown benchmark"));
        let mut cfg = tiny_config();
        cfg.bench_ids.clear();
        assert!(explore(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.fuel = 0;
        assert!(explore(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.area.base = -1.0;
        assert!(explore(&cfg).is_err());
    }

    #[test]
    fn fuel_exhaustion_names_the_candidate() {
        let mut cfg = tiny_config();
        cfg.fuel = 10;
        let err = explore(&cfg).unwrap_err();
        assert!(err.contains("fuel"), "{err}");
        assert!(err.contains("fir/"), "{err}");
    }

    /// Synthetic pooled results: every run's output is `1.0` except where
    /// `runs` gives another value or an error.
    fn pooled(reference: Result<f64, &str>, runs: &[Result<f64, &str>]) -> Pooled<u64> {
        let outputs = |v: f64| vec![CValue::scalar(v)];
        Pooled {
            reference: reference.map(outputs).map_err(str::to_string),
            runs: runs
                .iter()
                .enumerate()
                .map(|(k, r)| r.map(|v| (k as u64, outputs(v))).map_err(str::to_string))
                .collect(),
        }
    }

    const MACHINES: [&str; 3] = ["scalar", "w4_simd", "w8_simd"];

    #[test]
    fn the_walk_keeps_every_benchmark_that_checks_out() {
        let (checked, err) = checked_in_order(
            [
                Ok(("fir", pooled(Ok(1.0), &[Ok(1.0), Ok(1.0), Ok(1.0)]))),
                Ok(("iir", pooled(Ok(1.0), &[Ok(1.0), Ok(1.0), Ok(1.0)]))),
            ],
            &MACHINES,
        );
        assert_eq!(err, None);
        assert_eq!(checked.len(), 2);
        assert_eq!(checked[1], (vec![CValue::scalar(1.0)], vec![0, 1, 2]));
    }

    #[test]
    fn a_failing_reference_wins_over_its_own_failing_cells() {
        let (checked, err) = checked_in_order(
            [
                Ok(("fir", pooled(Ok(1.0), &[Ok(1.0), Ok(1.0), Ok(1.0)]))),
                Ok((
                    "iir",
                    pooled(
                        Err("iir: reference run failed"),
                        &[Err("iir/scalar: trap"), Ok(2.0), Ok(1.0)],
                    ),
                )),
            ],
            &MACHINES,
        );
        assert_eq!(err.as_deref(), Some("iir: reference run failed"));
        assert_eq!(checked.len(), 1);
    }

    #[test]
    fn an_earlier_failing_cell_wins_over_a_later_failing_reference() {
        let (checked, err) = checked_in_order(
            [
                Ok((
                    "fir",
                    pooled(Ok(1.0), &[Ok(1.0), Ok(1.5), Err("fir/w8_simd: trap")]),
                )),
                Ok((
                    "iir",
                    pooled(
                        Err("iir: reference run failed"),
                        &[Ok(1.0), Ok(1.0), Ok(1.0)],
                    ),
                )),
            ],
            &MACHINES,
        );
        let err = err.expect("fir's second machine is off the reference");
        assert!(err.starts_with("fir/w4_simd: wrong result: "), "{err}");
        assert!(checked.is_empty());
    }

    #[test]
    fn a_compile_failure_stops_everything_after_it() {
        let (checked, err) = checked_in_order(
            [
                Ok(("fir", pooled(Ok(1.0), &[Ok(1.0), Ok(1.0), Ok(1.0)]))),
                Err("iir: compile failed".to_string()),
                Ok((
                    "fft",
                    pooled(
                        Err("fft: reference run failed"),
                        &[Ok(1.0), Ok(1.0), Ok(1.0)],
                    ),
                )),
            ],
            &MACHINES,
        );
        assert_eq!(err.as_deref(), Some("iir: compile failed"));
        assert_eq!(checked.len(), 1);
    }

    #[test]
    fn the_first_failing_cell_in_kernel_and_grid_order_wins() {
        // Every cell of every kernel runs out of fuel; the error reported
        // is the first kernel's first grid candidate, however the cells
        // are scheduled. It names the statement that was running: fir's
        // `acc = acc + h(t) * x(k - t + 1)`.
        let cfg = ExploreConfig {
            fuel: 10,
            ..ExploreConfig::default()
        };
        assert_eq!(
            explore(&cfg).unwrap_err(),
            "fir/scalar: asip sim: simulation fuel exhausted at 187..218"
        );
    }
}

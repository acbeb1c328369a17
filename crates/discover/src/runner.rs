//! The discovery driver: seed from the committed frontier, mine, anneal.
//!
//! Per benchmark the runner: (1) compiles the source once; (2)
//! re-simulates the committed best candidate with profiling on, so mined
//! subgraphs are weighted by real cycle attribution; (3) rewrites the
//! MIR once per mined fused kind and pre-decodes each variant; (4) runs
//! a budgeted simulated-annealing search over [`SearchState`]s, where
//! every evaluation is a *real fuel-bounded simulation* checked against
//! the reference interpreter's outputs ([`check_outputs`]), priced by
//! the seed document's area model, memoized by the priced spec itself, and
//! deterministic in the run seed. The winner's cycles-vs-area point is
//! then compared against the committed best and frontier, and the
//! verdict recorded.

use crate::mine::{mine_function, rewrite_with, MinedOp};
use crate::search::{propose, SearchState};
use matic::{Compiled, Compiler, IsaSpec};
use matic_asip::{decode_program, AsipMachine, DecodedProgram, NativeProgram};
use matic_benchkit::{benchmark, to_sim, Benchmark};
use matic_explore::grid::{enumerate, Candidate};
use matic_explore::{check_outputs, BenchExploration, CandidatePoint, Exploration};
use matic_fuzz::case_rng;
use matic_isa::{FusedOp, OpClass};
use matic_mir::MirProgram;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// Everything one discovery run needs.
#[derive(Debug, Clone)]
pub struct DiscoverConfig {
    /// The committed `matic-explore-v1` document the search is seeded
    /// from: its per-bench best points and problem sizes, and the
    /// stimulus seed, fuel budget, grid and area model of the sweep.
    pub frontier_text: String,
    /// Benchmarks to search (`None` = every bench in the frontier).
    pub bench_ids: Option<Vec<String>>,
    /// Search seed; the whole run is bit-reproducible from it.
    pub seed: u64,
    /// Simulation budget per benchmark (memoized re-visits are free).
    pub budget: usize,
}

impl DiscoverConfig {
    /// A default configuration over `frontier_text`.
    pub fn new(frontier_text: &str) -> DiscoverConfig {
        DiscoverConfig {
            frontier_text: frontier_text.to_string(),
            bench_ids: None,
            seed: 7,
            budget: 120,
        }
    }

    /// A small-budget configuration for CI smoke runs.
    pub fn quick(frontier_text: &str) -> DiscoverConfig {
        DiscoverConfig {
            budget: 24,
            ..DiscoverConfig::new(frontier_text)
        }
    }
}

/// The synthetic instruction attached to a winning design point.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChoice {
    /// The fused op kind.
    pub fop: FusedOp,
    /// Its cycle cost on the winning target.
    pub cost: u32,
    /// MIR sites the rewrite collapsed.
    pub sites: usize,
}

/// The best design point one benchmark's search found.
#[derive(Debug, Clone)]
pub struct Winner {
    /// Stable display name (grid-style coordinates plus fused suffix).
    pub name: String,
    /// The full spec, priced fused instruction included.
    pub spec: IsaSpec,
    /// The attached fused instruction, when the winner carries one.
    pub fused: Option<FusedChoice>,
    /// Re-simulated cycles at the committed problem size and stimulus.
    pub cycles: u64,
    /// Area under the seed document's area model.
    pub area: f64,
    /// Strict Pareto domination of the committed best point: fewer
    /// cycles at no more area, or no more cycles at less area.
    pub dominates_committed_best: bool,
    /// Fewer cycles than *every* committed frontier point. (Literal
    /// all-point domination is unsatisfiable: the scalar point has
    /// minimal area by construction, so nothing can dominate it on the
    /// area axis.)
    pub beats_every_frontier_point_on_cycles: bool,
    /// Committed best cycles divided by winner cycles.
    pub speedup_vs_committed_best: f64,
}

/// Discovery result for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchDiscovery {
    /// Benchmark id.
    pub bench: String,
    /// Entry function.
    pub entry: String,
    /// Problem size (the committed frontier's).
    pub n: usize,
    /// The committed point to beat.
    pub committed_best: CandidatePoint,
    /// The committed frontier, cheapest first.
    pub frontier: Vec<CandidatePoint>,
    /// Mined fused-op kinds, heaviest first.
    pub mined: Vec<MinedOp>,
    /// The best point found.
    pub winner: Winner,
    /// Simulations actually run (memoized re-visits excluded).
    pub evals: usize,
}

/// A full discovery run.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Search seed.
    pub seed: u64,
    /// Per-bench simulation budget.
    pub budget: usize,
    /// Stimulus seed inherited from the committed frontier.
    pub stimulus_seed: u64,
    /// Per-benchmark results, in frontier-document order.
    pub benches: Vec<BenchDiscovery>,
}

/// Memoization key: the priced spec plus the fused choice (the spec
/// alone cannot tell two fused kinds at equal cost apart — it carries the
/// price, not the kind).
type EvalKey = (IsaSpec, Option<(FusedOp, u32)>);

/// One MIR variant with a fused kind rewritten in, pre-decoded and with
/// a shared native-fusion cell so repeated evaluations decode and fuse
/// at most once.
struct FusedProgram {
    sites: usize,
    mir: MirProgram,
    decoded: Arc<DecodedProgram>,
    native: OnceLock<Arc<NativeProgram>>,
}

/// Runs the guided search described by `cfg`.
///
/// # Errors
///
/// Fails on a malformed frontier document, unknown benchmark ids, seed
/// points outside the document's grid, compile errors, and any simulation
/// whose outputs diverge from the reference interpreter.
pub fn discover(cfg: &DiscoverConfig) -> Result<Discovery, String> {
    if cfg.budget < 4 {
        return Err("budget must be at least 4 evaluations".to_string());
    }
    let doc = Exploration::from_json(&cfg.frontier_text)?;
    let candidates = enumerate(&doc.grid)?;
    let selected: Vec<&BenchExploration> = match &cfg.bench_ids {
        None => doc.benches.iter().collect(),
        Some(ids) => ids
            .iter()
            .map(|id| {
                doc.benches
                    .iter()
                    .find(|b| &b.bench == id)
                    .ok_or_else(|| format!("benchmark `{id}` not in the frontier document"))
            })
            .collect::<Result<_, _>>()?,
    };
    if selected.is_empty() {
        return Err("no benchmarks selected".to_string());
    }
    let mut benches = Vec::with_capacity(selected.len());
    for (index, bf) in selected.iter().enumerate() {
        benches.push(discover_bench(&doc, bf, &candidates, index as u64, cfg)?);
    }
    Ok(Discovery {
        seed: cfg.seed,
        budget: cfg.budget,
        stimulus_seed: doc.seed,
        benches,
    })
}

fn discover_bench(
    doc: &Exploration,
    bf: &BenchExploration,
    candidates: &[Candidate],
    bench_index: u64,
    cfg: &DiscoverConfig,
) -> Result<BenchDiscovery, String> {
    let bench: &Benchmark = benchmark(&bf.bench)
        .ok_or_else(|| format!("frontier names unknown benchmark `{}`", bf.bench))?;
    let (n, stimulus_seed) = (bf.n, doc.seed);
    // `from_json` checked that `best` and every frontier name are points.
    let point = |name: &str| bf.point(name).expect("checked by from_json").clone();
    let committed_best = point(&bf.best);
    let compiled: Compiled = Compiler::new()
        .compile(bench.source, bench.entry, &bench.arg_types(n))
        .map_err(|e| format!("{}: compile failed: {e}", bf.bench))?;
    let reference = bench
        .reference_outputs(&bench.inputs(n, stimulus_seed))
        .map_err(|e| format!("{}: reference run failed: {e}", bf.bench))?;

    let seed_cand = candidates.iter().find(|c| c.name() == bf.best);
    let seed_cand =
        seed_cand.ok_or_else(|| format!("{}: best `{}` is not in the grid", bf.bench, bf.best))?;

    // Profile the committed best so mined subgraphs carry real weights.
    let inputs =
        || -> Vec<matic::SimVal> { bench.inputs(n, stimulus_seed).iter().map(to_sim).collect() };
    let profile = compiled
        .simulator_for(Arc::new(seed_cand.spec.clone()))
        .with_fuel(doc.fuel)
        .with_profiling(true)
        .run(inputs())
        .map_err(|e| format!("{}/{}: {e}", bf.bench, bf.best))?
        .profile;
    let mined = mine_function(compiled.entry_mir(), profile.as_ref());

    // Rewrite + decode once per mined kind; evaluations share these.
    let mut programs: BTreeMap<FusedOp, FusedProgram> = BTreeMap::new();
    for m in &mined {
        let (mir, sites) = rewrite_with(&compiled.mir, m.fop);
        debug_assert_eq!(sites, m.sites);
        let decoded = Arc::new(decode_program(&mir));
        let native = OnceLock::new();
        let program = FusedProgram {
            sites,
            mir,
            decoded,
            native,
        };
        programs.insert(m.fop, program);
    }
    let mined_kinds: Vec<FusedOp> = mined.iter().map(|m| m.fop).collect();

    // --- The evaluator -------------------------------------------------
    // One evaluation = one fuel-bounded simulation checked against the
    // reference outputs. `u64::MAX` cycles marks an early-abandoned
    // point (fuel exhausted under the tightened per-eval budget).
    let mut memo: HashMap<EvalKey, (u64, f64)> = HashMap::new();
    let mut sims = 0usize;
    let mut eval_fuel = doc.fuel;
    let mut eval =
        |state: &SearchState, sims: &mut usize, eval_fuel: u64| -> Result<(u64, f64), String> {
            let mut spec = state.spec.clone();
            if let Some((_, cost)) = state.fused {
                spec.costs.set_cost(OpClass::Fused, cost);
            }
            let area = doc.area.price(&state.spec, state.fused);
            let key = (spec.clone(), state.fused);
            if let Some(&hit) = memo.get(&key) {
                return Ok(hit);
            }
            *sims += 1;
            let shared = Arc::new(spec);
            let run = match state.fused {
                Some((fop, _)) => {
                    let fp = programs.get(&fop).expect("mined kinds only");
                    AsipMachine::from_shared(shared)
                        .with_fuel(eval_fuel)
                        .load_decoded(&fp.mir, fp.decoded.clone(), bench.entry)
                        .with_native_cell(&fp.native)
                        .run(inputs())
                }
                None => compiled
                    .simulator_for(shared)
                    .with_fuel(eval_fuel)
                    .run(inputs()),
            };
            let result = match run {
                Err(e) if e.is_fuel_exhausted() => (u64::MAX, area),
                Err(e) => return Err(format!("{}: {e}", bf.bench)),
                Ok(outcome) => {
                    check_outputs(&outcome.outputs, &reference)
                        .map_err(|e| format!("{}: {e}", bf.bench))?;
                    (outcome.cycles.total, area)
                }
            };
            memo.insert(key, result);
            Ok(result)
        };

    // --- Scoring: minimize cycles subject to area ≤ committed best ----
    let cap = committed_best.area;
    let score = |cycles: u64, area: f64| -> f64 {
        if cycles == u64::MAX {
            return f64::INFINITY;
        }
        let mut s = cycles as f64;
        if area > cap + 1e-12 {
            s += 1e6 * (area - cap) + 1e4;
        }
        s
    };

    // --- Seed point (full fuel; calibrates the per-eval budget) -------
    let mut seed_spec = seed_cand.spec.clone();
    seed_spec.name = "dse".to_string();
    let seed_state = SearchState {
        spec: seed_spec,
        fused: None,
    };
    let (seed_cycles, seed_area) = eval(&seed_state, &mut sims, eval_fuel)?;
    if seed_cycles == u64::MAX {
        return Err(format!(
            "{}: committed best exhausts the configured fuel",
            bf.bench
        ));
    }
    // The committed best re-simulates to its committed cycle count —
    // anything else means the frontier document is stale.
    if seed_cycles != committed_best.cycles {
        return Err(format!(
            "{}: committed best `{}` re-simulates to {} cycles, document says {}",
            bf.bench, bf.best, seed_cycles, committed_best.cycles
        ));
    }
    eval_fuel = doc.fuel.min(seed_cycles.saturating_mul(16).max(65_536));

    let mut best_state = seed_state.clone();
    let mut best = (seed_cycles, seed_area);
    let consider = |state: &SearchState,
                    point: (u64, f64),
                    best_state: &mut SearchState,
                    best: &mut (u64, f64)| {
        if score(point.0, point.1) < score(best.0, best.1) {
            *best_state = state.clone();
            *best = point;
        }
    };

    // --- Greedy seeding: fused variants of the committed best, and one
    // octave down in width (the frontier's cycle knee often leaves lane
    // area on the table that a fused unit can buy back).
    // Cost 1 first: a fused op whose cycle cost equals the sum of its
    // components' costs saves nothing, so the aggressive clocking is the
    // interesting end of the axis.
    let mut seeded: Vec<SearchState> = Vec::new();
    for m in mined.iter().take(2) {
        for cost in [1u32, 2] {
            seeded.push(SearchState {
                spec: seed_state.spec.clone(),
                fused: Some((m.fop, cost)),
            });
        }
    }
    if seed_state.spec.vector_width > 1 {
        let mut narrow = seed_state.spec.clone();
        let w = narrow.vector_width / 2;
        if matic_fuzz::IsaMutation::Width(w).apply(&mut narrow).is_ok() {
            seeded.push(SearchState {
                spec: narrow.clone(),
                fused: None,
            });
            if let Some(m) = mined.first() {
                seeded.push(SearchState {
                    spec: narrow,
                    fused: Some((m.fop, 1)),
                });
            }
        }
    }
    for state in &seeded {
        if sims >= cfg.budget {
            break;
        }
        let point = eval(state, &mut sims, eval_fuel)?;
        consider(state, point, &mut best_state, &mut best);
    }

    // --- Simulated annealing over the remaining budget ----------------
    let mut rng = case_rng(cfg.seed, bench_index);
    let mut cur_state = best_state.clone();
    let mut cur = best;
    let t0 = (0.02 * seed_cycles as f64).max(1.0);
    let t_end = t0 / 50.0;
    let anneal_budget = cfg.budget.saturating_sub(sims).max(1);
    let lambda = (t_end / t0).powf(1.0 / anneal_budget as f64);
    let mut temperature = t0;
    let mut proposals = 0usize;
    while sims < cfg.budget && proposals < cfg.budget * 10 {
        proposals += 1;
        let cand = propose(&mut rng, &cur_state, &mined_kinds);
        let point = eval(&cand, &mut sims, eval_fuel)?;
        let delta = score(point.0, point.1) - score(cur.0, cur.1);
        if delta <= 0.0 || rng.f64() < (-delta / temperature).exp() {
            cur_state = cand;
            cur = point;
            consider(&cur_state.clone(), cur, &mut best_state, &mut best);
        }
        temperature = (temperature * lambda).max(t_end);
    }

    // --- Verdict -------------------------------------------------------
    let (cycles, area) = best;
    let dominates = (cycles < committed_best.cycles && area <= committed_best.area + 1e-12)
        || (cycles <= committed_best.cycles && area < committed_best.area - 1e-12);
    let frontier: Vec<CandidatePoint> = bf.frontier.iter().map(|name| point(name)).collect();
    let beats = frontier.iter().all(|p| cycles < p.cycles);
    let mut spec = best_state.spec.clone();
    let fused = best_state.fused.map(|(fop, cost)| FusedChoice {
        fop,
        cost,
        sites: programs[&fop].sites,
    });
    if let Some(f) = &fused {
        spec.costs.set_cost(OpClass::Fused, f.cost);
    }
    let grid_spec = matic_explore::grid::build_spec(spec.vector_width, spec.features, 1.0);
    let tuned = OpClass::ALL
        .iter()
        .any(|&op| op != OpClass::Fused && spec.costs.entry(op) != grid_spec.costs.entry(op));
    let mut name = grid_spec.name;
    if tuned {
        name.push_str("_tuned");
    }
    if let Some(f) = &fused {
        name.push_str(&format!("+{}@{}", f.fop.mnemonic(), f.cost));
    }
    spec.name = name.clone();
    spec.description = format!(
        "discovered design point for `{}` (seed {}, budget {})",
        bf.bench, cfg.seed, cfg.budget
    );

    let speedup = committed_best.cycles as f64 / cycles.max(1) as f64;
    Ok(BenchDiscovery {
        bench: bf.bench.clone(),
        entry: bf.entry.clone(),
        n,
        committed_best,
        frontier,
        mined,
        winner: Winner {
            name,
            spec,
            fused,
            cycles,
            area,
            dominates_committed_best: dominates,
            beats_every_frontier_point_on_cycles: beats,
            speedup_vs_committed_best: speedup,
        },
        evals: sims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_frontier() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../EXPLORE_frontier.json"
        ))
        .expect("committed frontier")
    }

    #[test]
    fn quick_search_on_iir_dominates_the_committed_best() {
        let mut cfg = DiscoverConfig::quick(&committed_frontier());
        cfg.bench_ids = Some(vec!["iir".to_string()]);
        let result = discover(&cfg).expect("search runs");
        assert_eq!(result.benches.len(), 1);
        let b = &result.benches[0];
        // The MAC itself vectorizes, so iir's remaining scalar hot spot
        // is the window index arithmetic `k - t + 1` — mined as SubAdd
        // (an address-generation fusion, in classic DSP AGU style).
        assert!(
            b.mined.iter().any(|m| m.fop == FusedOp::SubAdd),
            "iir's index arithmetic should mine as SubAdd: {:?}",
            b.mined
        );
        let w = &b.winner;
        assert!(
            w.dominates_committed_best,
            "winner {} ({} cy @ {:.3}) does not dominate {} ({} cy @ {:.3})",
            w.name,
            w.cycles,
            w.area,
            b.committed_best.name,
            b.committed_best.cycles,
            b.committed_best.area
        );
        assert!(w.beats_every_frontier_point_on_cycles);
        assert!(
            w.fused.is_some(),
            "iir's win should come from the fused MAC"
        );
    }

    #[test]
    fn discovery_is_bit_reproducible_from_its_seed() {
        let mut cfg = DiscoverConfig::quick(&committed_frontier());
        cfg.bench_ids = Some(vec!["iir".to_string()]);
        let a = discover(&cfg).expect("first run");
        let b = discover(&cfg).expect("second run");
        assert_eq!(a.benches[0].winner.name, b.benches[0].winner.name);
        assert_eq!(a.benches[0].winner.cycles, b.benches[0].winner.cycles);
        assert_eq!(a.benches[0].winner.area, b.benches[0].winner.area);
        assert_eq!(a.benches[0].evals, b.benches[0].evals);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let cfg = DiscoverConfig::new("{}");
        assert!(discover(&cfg).is_err());
        let mut cfg = DiscoverConfig::new(&committed_frontier());
        cfg.bench_ids = Some(vec!["nope".to_string()]);
        assert!(discover(&cfg).unwrap_err().contains("nope"));
        let mut cfg = DiscoverConfig::new(&committed_frontier());
        cfg.budget = 1;
        assert!(discover(&cfg).is_err());
    }
}

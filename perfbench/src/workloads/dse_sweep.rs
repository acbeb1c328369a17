//! `dse_sweep`: one op is `matic_explore::explore` with the default
//! configuration: 70 candidate ISAs × 6 kernels = 420 short simulations
//! at exploration sizes, spread over the explorer's own worker threads,
//! plus one profiled re-run per kernel. Per-run set-up (stimulus,
//! machine construction) weighs far more here than in `cycles_report`.

use super::{geomean, Workload};
use crate::stages;
use crate::trace::Ctx;
use matic::{IsaSpec, OptLevel, SourceMap};
use matic_benchkit::{benchmark, outputs_close, sim_to_cvalue, to_sim, Benchmark};
use matic_explore::grid::{enumerate, Candidate};
use matic_explore::runner::default_n;
use matic_explore::{
    explore, par_map, pareto_frontier, AreaModel, BenchExploration, CandidatePoint, Exploration,
    ExploreConfig, HotLine, SuitePoint,
};
use std::sync::Arc;

/// The committed frontier, which the default-seed exploration must
/// reproduce byte for byte.
const COMMITTED: &str = include_str!("../../../EXPLORE_frontier.json");

/// Set-up state: the configuration and the expected document.
#[derive(Debug)]
pub struct DseSweep {
    cfg: ExploreConfig,
    expected: String,
    geomean: f64,
}

impl Workload for DseSweep {
    const CONNS: usize = 1;
    type Conn = ();
    type Out = Exploration;

    /// Explores once for the expected document. At the default seed the
    /// document must equal the committed `EXPLORE_frontier.json`.
    fn setup(seed: u64) -> Result<DseSweep, String> {
        let cfg = ExploreConfig {
            seed,
            ..ExploreConfig::default()
        };
        let result = explore(&cfg)?;
        let expected = result.to_json().pretty();
        if seed == ExploreConfig::default().seed && format!("{expected}\n") != COMMITTED {
            return Err("default-seed frontier differs from EXPLORE_frontier.json".to_string());
        }
        let best: Vec<u64> = result
            .benches
            .iter()
            .map(|b| b.points.iter().map(|p| p.cycles).min().unwrap_or(0))
            .collect();
        Ok(DseSweep {
            cfg,
            expected,
            geomean: geomean(&best),
        })
    }

    fn connect(&self) -> Result<(), String> {
        Ok(())
    }

    fn op(&self, _: &mut ()) -> Result<Exploration, String> {
        explore(&self.cfg)
    }

    /// Replays `explore` call by call (see `matic_explore::runner`).
    fn traced_op(&self, _: &mut (), ctx: Ctx<'_>) -> Result<Exploration, String> {
        let cfg = &self.cfg;
        cfg.area.validate()?;
        let candidates = ctx.span("explore.grid", |_| enumerate(&cfg.grid))?;
        let benches = cfg
            .bench_ids
            .iter()
            .map(|id| {
                let bench = benchmark(id).ok_or_else(|| format!("unknown benchmark `{id}`"))?;
                self.replay_bench(ctx, bench, &candidates)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let suite = ctx.span("explore.pareto", |_| {
            aggregate_suite(&candidates, &benches, &cfg.area)
        });
        Ok(Exploration {
            seed: cfg.seed,
            fuel: cfg.fuel,
            grid: cfg.grid.clone(),
            area: cfg.area.clone(),
            candidates: candidates.iter().map(|c| c.name().to_string()).collect(),
            benches,
            suite,
        })
    }

    fn check(&self, out: &Exploration) -> Result<(), String> {
        if out.to_json().pretty() != self.expected {
            return Err("exploration document differs from set-up's".to_string());
        }
        Ok(())
    }

    fn sim_cycles_geomean(&self) -> f64 {
        self.geomean
    }
}

impl DseSweep {
    fn replay_bench(
        &self,
        ctx: Ctx<'_>,
        bench: &'static Benchmark,
        candidates: &[Candidate],
    ) -> Result<BenchExploration, String> {
        let cfg = &self.cfg;
        let n = cfg.n.unwrap_or_else(|| default_n(bench.id));
        let full = OptLevel::full();
        let compiled = stages::compile(
            ctx,
            bench.source,
            bench.entry,
            &bench.arg_types(n),
            full,
            &IsaSpec::dsp16(),
        )
        .map_err(|e| format!("{}: compile failed: {e}", bench.id))?;
        let reference = ctx
            .span("benchkit.reference", |_| {
                bench.reference_outputs(&bench.inputs(n, cfg.seed))
            })
            .map_err(|e| format!("{}: reference run failed: {e}", bench.id))?;
        let decoded = stages::decode(ctx, &compiled.mir);
        let native = stages::fuse(ctx, &compiled.mir, &decoded);
        let simulate = |ctx: Ctx<'_>, cand: &Candidate, profiling: bool| {
            let inputs: Vec<_> = ctx.span("benchkit.inputs", |_| {
                bench.inputs(n, cfg.seed).iter().map(to_sim).collect()
            });
            let outcome = ctx.span("asip.run", |_| {
                let spec = Arc::new(cand.spec.clone());
                stages::load(&compiled.mir, &decoded, &native, bench.entry, spec, full)
                    .with_engine(cfg.engine)
                    .with_fuel(cfg.fuel)
                    .with_profiling(profiling)
                    .run(inputs)
            });
            if let Ok(o) = &outcome {
                ctx.count("asip.sim_cycles", o.cycles.total as f64);
            }
            outcome
        };

        // The fan-out span's self time is `par_map`'s own cost: spawning,
        // joining and the idle tail while the last worker finishes.
        let cells: Vec<Result<CandidatePoint, String>> = ctx.span("explore.fanout", |ctx| {
            par_map(candidates, |cand| {
                let outcome = simulate(ctx, cand, false)
                    .map_err(|e| format!("{}/{}: {e}", bench.id, cand.name()))?;
                ctx.span("benchkit.check", |_| {
                    if outcome.outputs.len() != reference.len() {
                        return Err(format!(
                            "{}/{}: {} outputs, reference has {}",
                            bench.id,
                            cand.name(),
                            outcome.outputs.len(),
                            reference.len()
                        ));
                    }
                    for (actual, expected) in outcome.outputs.iter().zip(&reference) {
                        outputs_close(&sim_to_cvalue(actual), expected, 1e-9).map_err(|e| {
                            format!("{}/{}: wrong result: {e}", bench.id, cand.name())
                        })?;
                    }
                    Ok(())
                })?;
                Ok(CandidatePoint {
                    name: cand.name().to_string(),
                    width: cand.width,
                    features: cand.features,
                    cost_scale: cand.cost_scale,
                    area: cfg.area.area(cand),
                    cycles: outcome.cycles.total,
                    instructions: outcome.cycles.instructions,
                    vector_cycles: outcome.cycles.vector_cycles(),
                    complex_cycles: outcome.cycles.complex_cycles(),
                    on_frontier: false,
                })
            })
        });
        let mut points: Vec<CandidatePoint> = cells.into_iter().collect::<Result<_, _>>()?;

        let (frontier, best) = ctx.span("explore.pareto", |_| {
            let coords: Vec<(f64, f64)> =
                points.iter().map(|p| (p.area, p.cycles as f64)).collect();
            for i in pareto_frontier(&coords) {
                points[i].on_frontier = true;
            }
            let mut frontier: Vec<&CandidatePoint> =
                points.iter().filter(|p| p.on_frontier).collect();
            frontier.sort_by(|a, b| a.area.total_cmp(&b.area));
            let frontier: Vec<String> = frontier.iter().map(|p| p.name.clone()).collect();
            let best = points
                .iter()
                .min_by(|a, b| a.cycles.cmp(&b.cycles).then(a.area.total_cmp(&b.area)))
                .expect("grid is non-empty")
                .clone();
            (frontier, best)
        });
        let scalar_cycles = points.iter().find(|p| !p.features.any()).map(|p| p.cycles);
        let best_speedup = scalar_cycles.map(|s| s as f64 / best.cycles.max(1) as f64);

        // The explorer's `profile_best`: re-run the winner with profiling
        // on and report its hottest source line.
        let why = ctx.span("explore.profile", |ctx| {
            let cand = candidates.iter().find(|c| c.name() == best.name)?;
            let profile = simulate(ctx, cand, true).ok()?.profile?;
            let total = profile.total_cycles().max(1);
            let map = SourceMap::new(bench.source);
            let (line, counters) = profile
                .lines(&map)
                .into_iter()
                .filter(|(line, _)| *line > 0)
                .max_by_key(|(_, c)| c.cycles)?;
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
            Some(HotLine {
                line,
                source,
                fraction: counters.cycles as f64 / total as f64,
                top_class,
                lane_utilization: counters.lane_utilization(),
            })
        });

        compiled.release(ctx);
        Ok(BenchExploration {
            bench: bench.id.to_string(),
            entry: bench.entry.to_string(),
            n,
            points,
            frontier,
            best: best.name,
            scalar_cycles,
            best_speedup,
            why,
        })
    }
}

/// The explorer's suite aggregate: geometric-mean cycles per candidate
/// and the suite-wide frontier.
fn aggregate_suite(
    candidates: &[Candidate],
    benches: &[BenchExploration],
    area: &AreaModel,
) -> Vec<SuitePoint> {
    let mut suite: Vec<SuitePoint> = candidates
        .iter()
        .enumerate()
        .map(|(i, cand)| {
            let cycles: Vec<u64> = benches.iter().map(|b| b.points[i].cycles).collect();
            SuitePoint {
                name: cand.name().to_string(),
                area: area.area(cand),
                geomean_cycles: geomean(&cycles),
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

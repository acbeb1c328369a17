//! `compile_cold`: one op compiles all six benchmarks at their paper
//! signatures, at full and at baseline optimization, with no stage
//! cache: twelve `matic compile` runs. The frontend, sema, MIR,
//! vectorizer and C backend do all the work; the simulator does none.

use super::{check_output, geomean, simulate, Workload};
use crate::stages;
use crate::trace::Ctx;
use matic::{CModule, Compiler, IsaSpec, OptLevel, Ty};
use matic_benchkit::{reference, Benchmark, SUITE};
use std::sync::Arc;

/// The two optimization levels every kernel is compiled at.
pub fn levels() -> [OptLevel; 2] {
    [OptLevel::full(), OptLevel::baseline()]
}

/// Set-up state: the paper signatures and the expected C of every
/// (kernel, level) compilation, in op order.
#[derive(Debug)]
pub struct CompileCold {
    jobs: Vec<(&'static Benchmark, Vec<Ty>, OptLevel)>,
    expected: Vec<String>,
    geomean: f64,
}

impl Workload for CompileCold {
    const CONNS: usize = 1;
    type Conn = ();
    type Out = Vec<Arc<CModule>>;

    /// Compiles every job once for the expected C text, and checks that
    /// both compilations of each kernel simulate to the independent
    /// reference's output on the seed's stimulus.
    fn setup(seed: u64) -> Result<CompileCold, String> {
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        let mut cycles = Vec::new();
        for b in SUITE {
            let sig = b.arg_types(b.default_n);
            let inputs = b.inputs(b.default_n, seed);
            let want = reference::run(b.id, &inputs);
            for opt in levels() {
                let compiled = Compiler::new()
                    .opt_level(opt)
                    .compile(b.source, b.entry, &sig)
                    .map_err(|e| format!("{}: {e}", b.id))?;
                let outcome = simulate(&compiled, &inputs).map_err(|e| format!("{}: {e}", b.id))?;
                check_output(b.id, &outcome, &want)?;
                if opt == OptLevel::full() {
                    cycles.push(outcome.cycles.total);
                }
                expected.push(compiled.c.source.clone());
                jobs.push((b, sig.clone(), opt));
            }
        }
        Ok(CompileCold {
            jobs,
            expected,
            geomean: geomean(&cycles),
        })
    }

    fn connect(&self) -> Result<(), String> {
        Ok(())
    }

    fn op(&self, _: &mut ()) -> Result<Vec<Arc<CModule>>, String> {
        self.jobs
            .iter()
            .map(|(b, sig, opt)| {
                Compiler::new()
                    .opt_level(*opt)
                    .compile(b.source, b.entry, sig)
                    .map(|c| Arc::clone(&c.c))
                    .map_err(|e| format!("{}: {e}", b.id))
            })
            .collect()
    }

    fn traced_op(&self, _: &mut (), ctx: Ctx<'_>) -> Result<Vec<Arc<CModule>>, String> {
        self.jobs
            .iter()
            .map(|(b, sig, opt)| {
                stages::compile(ctx, b.source, b.entry, sig, *opt, &IsaSpec::dsp16())
                    .map(|r| Arc::new(r.release(ctx)))
                    .map_err(|e| format!("{}: {e}", b.id))
            })
            .collect()
    }

    fn check(&self, out: &Vec<Arc<CModule>>) -> Result<(), String> {
        if out.len() != self.expected.len() {
            return Err(format!(
                "{} modules, expected {}",
                out.len(),
                self.expected.len()
            ));
        }
        for ((c, want), (b, _, opt)) in out.iter().zip(&self.expected).zip(&self.jobs) {
            if &c.source != want {
                return Err(format!(
                    "{} (vectorize: {}): C text differs",
                    b.id, opt.vectorize
                ));
            }
        }
        Ok(())
    }

    fn sim_cycles_geomean(&self) -> f64 {
        self.geomean
    }
}

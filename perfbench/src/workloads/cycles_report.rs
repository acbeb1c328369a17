//! `cycles_report`: one op is the `matic cycles` path for all six
//! kernels at paper sizes. Each kernel is compiled cold at both levels,
//! both compilations run on the default (native) engine with the
//! default fuel, and `render_cycles` formats the report. Simulation is
//! most of the op.
//!
//! `reportfmt::run_cycles` draws its stimulus with `synth_inputs`, which
//! gives xcorr a random, fractional lag window (1 to 9) and iir random
//! filter coefficients, so the work of an op would change with the seed.
//! The op instead feeds benchkit's paper stimulus (±64 lags, a stable
//! biquad, seeded data) through the same two simulator runs `run_cycles`
//! makes and hands them to `render_cycles` as a `CyclesRun`.

use super::{check_output, geomean, Workload};
use crate::stages;
use crate::trace::Ctx;
use matic::reportfmt::{render_cycles, CyclesOptions, CyclesRun};
use matic::{CValue, Compiled, Compiler, IsaSpec, OptLevel, SimVal, Ty};
use matic_benchkit::{reference, to_sim, Benchmark, SUITE};
use std::sync::Arc;

#[derive(Debug)]
struct Kernel {
    bench: &'static Benchmark,
    sig: Vec<Ty>,
    reference: CValue,
    text: String,
    cycles: (u64, u64),
}

/// One kernel's report and the two simulations behind it.
#[derive(Debug)]
pub struct KernelRun {
    /// The rendered report.
    pub text: String,
    /// Baseline and optimized outcomes.
    pub run: CyclesRun,
}

/// Set-up state: per-kernel signature, reference output, report text
/// and cycle counts.
#[derive(Debug)]
pub struct CyclesReport {
    seed: u64,
    kernels: Vec<Kernel>,
    /// `render_cycles` reads only the target from the compilation it is
    /// given; the replay, which never builds a `Compiled`, passes this
    /// full-optimization `dsp16` compilation.
    render_target: Compiled,
}

impl CyclesReport {
    fn inputs(&self, bench: &Benchmark) -> Vec<SimVal> {
        bench
            .inputs(bench.default_n, self.seed)
            .iter()
            .map(to_sim)
            .collect()
    }

    fn report(&self, k: &Kernel) -> Result<KernelRun, String> {
        let b = k.bench;
        let opts = CyclesOptions::default();
        let optimized = Compiler::new()
            .compile(b.source, b.entry, &k.sig)
            .map_err(|e| e.to_string())?;
        let baseline = Compiler::new()
            .opt_level(OptLevel::baseline())
            .compile(b.source, b.entry, &k.sig)
            .map_err(|e| e.to_string())?;
        let inputs = self.inputs(b);
        let run = |c: &Compiled, inputs| {
            c.simulator()
                .with_engine(opts.engine)
                .with_fuel(opts.max_cycles)
                .run(inputs)
                .map_err(|e| e.to_string())
        };
        let run = CyclesRun {
            baseline: run(&baseline, inputs.clone())?,
            optimized: run(&optimized, inputs)?,
        };
        let text = render_cycles(&run, &optimized, b.source, b.entry, false);
        Ok(KernelRun { text, run })
    }

    fn replay(&self, ctx: Ctx<'_>, k: &Kernel) -> Result<KernelRun, String> {
        let b = k.bench;
        let opts = CyclesOptions::default();
        let spec = IsaSpec::dsp16();
        let optimized = stages::compile(ctx, b.source, b.entry, &k.sig, OptLevel::full(), &spec)?;
        let baseline =
            stages::compile(ctx, b.source, b.entry, &k.sig, OptLevel::baseline(), &spec)?;
        let inputs = ctx.span("benchkit.inputs", |_| self.inputs(b));
        let spec = Arc::new(spec);
        let run = |r: &stages::Replayed, opt: OptLevel, span, counter, inputs| {
            let decoded = stages::decode(ctx, &r.mir);
            let native = stages::fuse(ctx, &r.mir, &decoded);
            let outcome = ctx
                .span(span, |_| {
                    stages::load(&r.mir, &decoded, &native, b.entry, Arc::clone(&spec), opt)
                        .with_engine(opts.engine)
                        .with_fuel(opts.max_cycles)
                        .run(inputs)
                })
                .map_err(|e| e.to_string())?;
            ctx.count(counter, outcome.cycles.total as f64);
            ctx.count("asip.sim_cycles", outcome.cycles.total as f64);
            Ok::<_, String>(outcome)
        };
        let run = CyclesRun {
            baseline: run(
                &baseline,
                OptLevel::baseline(),
                "asip.run_base",
                "asip.sim_cycles_base",
                inputs.clone(),
            )?,
            optimized: run(
                &optimized,
                OptLevel::full(),
                "asip.run_opt",
                "asip.sim_cycles_opt",
                inputs,
            )?,
        };
        let text = ctx.span("core.render", |_| {
            render_cycles(&run, &self.render_target, b.source, b.entry, false)
        });
        baseline.release(ctx);
        optimized.release(ctx);
        Ok(KernelRun { text, run })
    }
}

impl Workload for CyclesReport {
    const CONNS: usize = 1;
    type Conn = ();
    type Out = Vec<KernelRun>;

    /// Runs every kernel's report once for the expected text and cycle
    /// counts, and checks both simulations against the independent
    /// reference.
    fn setup(seed: u64) -> Result<CyclesReport, String> {
        let first = &SUITE[0];
        let render_target = Compiler::new()
            .compile(first.source, first.entry, &first.arg_types(first.default_n))
            .map_err(|e| e.to_string())?;
        let mut state = CyclesReport {
            seed,
            kernels: Vec::new(),
            render_target,
        };
        for bench in SUITE {
            let mut k = Kernel {
                bench,
                sig: bench.arg_types(bench.default_n),
                reference: reference::run(bench.id, &bench.inputs(bench.default_n, seed)),
                text: String::new(),
                cycles: (0, 0),
            };
            let kr = state.report(&k).map_err(|e| format!("{}: {e}", bench.id))?;
            check_output(bench.id, &kr.run.baseline, &k.reference)?;
            check_output(bench.id, &kr.run.optimized, &k.reference)?;
            k.cycles = (kr.run.baseline.cycles.total, kr.run.optimized.cycles.total);
            k.text = kr.text;
            state.kernels.push(k);
        }
        Ok(state)
    }

    fn connect(&self) -> Result<(), String> {
        Ok(())
    }

    fn op(&self, _: &mut ()) -> Result<Vec<KernelRun>, String> {
        self.kernels
            .iter()
            .map(|k| self.report(k).map_err(|e| format!("{}: {e}", k.bench.id)))
            .collect()
    }

    fn traced_op(&self, _: &mut (), ctx: Ctx<'_>) -> Result<Vec<KernelRun>, String> {
        self.kernels
            .iter()
            .map(|k| {
                self.replay(ctx, k)
                    .map_err(|e| format!("{}: {e}", k.bench.id))
            })
            .collect()
    }

    fn check(&self, out: &Vec<KernelRun>) -> Result<(), String> {
        if out.len() != self.kernels.len() {
            return Err(format!(
                "{} reports, expected {}",
                out.len(),
                self.kernels.len()
            ));
        }
        for (kr, k) in out.iter().zip(&self.kernels) {
            let id = k.bench.id;
            let got = (kr.run.baseline.cycles.total, kr.run.optimized.cycles.total);
            if got != k.cycles {
                return Err(format!("{id}: cycles {got:?}, expected {:?}", k.cycles));
            }
            if kr.text != k.text {
                return Err(format!("{id}: report text differs"));
            }
            check_output(id, &kr.run.baseline, &k.reference)?;
            check_output(id, &kr.run.optimized, &k.reference)?;
        }
        Ok(())
    }

    fn sim_cycles_geomean(&self) -> f64 {
        let cycles: Vec<u64> = self.kernels.iter().map(|k| k.cycles.1).collect();
        geomean(&cycles)
    }
}

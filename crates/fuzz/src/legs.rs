//! The five execution legs and their agreement oracle.
//!
//! Every case runs on:
//!
//! 1. the reference interpreter (the oracle every other leg is compared
//!    against),
//! 2. the ASIP simulator at full optimization,
//! 3. the simulator's tree-walking reference semantics on the same
//!    optimized MIR,
//! 4. the generated C compiled by the host compiler with
//!    `-DMATIC_BOUNDS_CHECK`,
//! 5. the simulator at the scalar baseline level.
//!
//! The C leg can be *skipped* — no host compiler, or a non-terminating
//! program (the C runtime has no fuel meter) — and every skip is counted
//! and reported instead of silently narrowing coverage: a run whose C
//! leg never executed is a run that proved nothing about codegen.
//!
//! [`Inject`] deliberately corrupts one leg's outputs before the verdict
//! — the harness's own smoke test. A NaN injection is exactly the
//! disagreement the pre-fix `outputs_close` oracle could not see.

use crate::gen::{Fault, SourceCase, ENTRY};
use crate::rng::Rng;
use matic::{arg, CValue, Compiler, Harness, Interpreter, IsaSpec, OptLevel, SimVal};
use matic_benchkit::{from_interp, outputs_close, sim_to_cvalue, to_interp, to_sim};
use matic_codegen::{build_and_run, host_cc};
use matic_interp::{classify_message, ErrorKind};
use std::sync::Arc;

/// Statement budget for every simulator leg. Generated terminating
/// programs stay far below it; the injected `while 1` spin always
/// exhausts it.
pub const DEFAULT_FUEL: u64 = 300_000;

/// Relative output tolerance for cross-leg agreement.
pub const TOL: f64 = 1e-9;

/// What running a program produced: outputs, or a classified error.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Normal termination.
    Values(Vec<CValue>),
    /// A structured error.
    Fail(ErrorKind),
}

/// One leg's labelled result.
#[derive(Debug, Clone)]
pub struct LegRun {
    /// Leg label (`interp`, `opt/native`, `opt/C`, …).
    pub label: String,
    /// What the leg produced.
    pub outcome: Outcome,
}

/// Why (or whether) the C leg ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CStatus {
    /// Compiled and executed.
    Ran,
    /// No host C compiler on this machine.
    SkippedNoCompiler,
    /// Non-terminating program — the C runtime has no fuel meter.
    SkippedNonTerminating,
    /// Disabled by [`RunOptions::with_c`].
    SkippedByConfig,
}

/// Deliberate corruption of one leg's result, for oracle smoke tests and
/// shrinker exercises.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Inject {
    /// No corruption.
    #[default]
    None,
    /// Overwrite the first output element of every leg whose label
    /// contains the pattern with NaN.
    NanOnLeg(&'static str),
}

/// Knobs for one case run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Statement budget per simulator leg.
    pub fuel: u64,
    /// Whether to attempt the C leg at all.
    pub with_c: bool,
    /// Fault injection (tests only).
    pub inject: Inject,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            fuel: DEFAULT_FUEL,
            with_c: true,
            inject: Inject::None,
        }
    }
}

/// Everything one case produced across the legs.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Per-leg outcomes; `legs[0]` is the reference interpreter.
    pub legs: Vec<LegRun>,
    /// Whether the C leg executed.
    pub c_status: CStatus,
}

/// The oracle's judgement of one case.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every leg agreed with the reference.
    Agree,
    /// A leg diverged.
    Disagree {
        /// The diverging leg's label.
        leg: String,
        /// Human-readable description of the divergence.
        detail: String,
    },
}

impl CaseReport {
    /// Compares every leg against the reference interpreter: values must
    /// be [`outputs_close`] (NaN-aware), error kinds must match exactly,
    /// and a value-vs-error split is always a disagreement.
    pub fn verdict(&self) -> Verdict {
        let reference = &self.legs[0];
        for leg in &self.legs[1..] {
            let detail = match (&reference.outcome, &leg.outcome) {
                (Outcome::Values(want), Outcome::Values(have)) => {
                    if want.len() != have.len() {
                        Some(format!(
                            "output count mismatch: {} vs {}",
                            want.len(),
                            have.len()
                        ))
                    } else {
                        want.iter()
                            .zip(have)
                            .find_map(|(w, h)| outputs_close(h, w, TOL).err())
                    }
                }
                (Outcome::Fail(want), Outcome::Fail(have)) => {
                    (want != have).then(|| format!("error kind mismatch: {want:?} vs {have:?}"))
                }
                (want, have) => Some(format!("outcome mismatch: {want:?} vs {have:?}")),
            };
            if let Some(detail) = detail {
                return Verdict::Disagree {
                    leg: leg.label.clone(),
                    detail,
                };
            }
        }
        Verdict::Agree
    }
}

/// Builds the deterministic stimulus for a case: `a`, `b` from the stim
/// seed, `k` verbatim.
pub fn stimulus(case: &SourceCase) -> Vec<CValue> {
    let mut stim = Rng::new(case.stim_seed);
    let mut row = |n: usize| CValue::row(&(0..n).map(|_| stim.f64()).collect::<Vec<_>>());
    vec![row(case.n), row(case.n), CValue::scalar(case.k)]
}

/// Runs every leg of `case` against `spec`, returning the labelled
/// outcomes. Compilation of a generated case must succeed — the
/// generator's validity invariant guarantees it — so a compile failure
/// is an `Err`, not a verdict.
///
/// # Errors
///
/// Returns a description when the pipeline rejects the program (an
/// infrastructure failure, distinct from an engine disagreement).
pub fn run_case(
    case: &SourceCase,
    spec: &IsaSpec,
    opts: &RunOptions,
) -> Result<CaseReport, String> {
    let inputs = stimulus(case);
    let mut legs = Vec::with_capacity(5);

    // Leg 1: the reference interpreter.
    let mut interp =
        Interpreter::from_source(&case.src).map_err(|e| format!("interp parse: {e}"))?;
    interp.set_fuel(opts.fuel);
    let reference = match interp.call(ENTRY, inputs.iter().map(to_interp).collect(), 1) {
        Ok(outs) => {
            let vals: Result<Vec<CValue>, String> = outs.iter().map(from_interp).collect();
            Outcome::Values(vals.map_err(|e| format!("interp output: {e}"))?)
        }
        Err(e) => Outcome::Fail(e.kind),
    };
    legs.push(LegRun {
        label: "interp".into(),
        outcome: reference,
    });

    let arg_tys = [arg::vector(case.n), arg::vector(case.n), arg::scalar()];
    let sim_inputs: Vec<SimVal> = inputs.iter().map(to_sim).collect();
    let mut c_status = if opts.with_c {
        if case.fault == Fault::Spin {
            CStatus::SkippedNonTerminating
        } else if host_cc().is_none() {
            CStatus::SkippedNoCompiler
        } else {
            CStatus::Ran
        }
    } else {
        CStatus::SkippedByConfig
    };

    for (label, opt) in [("opt", OptLevel::full()), ("base", OptLevel::baseline())] {
        let compiled = Compiler::new()
            .target(spec.clone())
            .opt_level(opt)
            .compile(&case.src, ENTRY, &arg_tys)
            .map_err(|e| format!("{label} compile on `{}`: {e}", spec.name))?;

        let run = compiled
            .simulator()
            .with_fuel(opts.fuel)
            .run(sim_inputs.clone());
        legs.push(LegRun {
            label: format!("{label}/native"),
            outcome: sim_outcome(run),
        });

        if label == "opt" {
            let machine =
                matic::AsipMachine::from_shared(Arc::clone(&compiled.spec)).with_fuel(opts.fuel);
            let walked = machine.run_interpreted(&compiled.mir, ENTRY, sim_inputs.clone());
            legs.push(LegRun {
                label: "opt/tree-walk".into(),
                outcome: sim_outcome(walked),
            });

            if c_status == CStatus::Ran {
                match c_leg(case, &compiled, &inputs) {
                    Ok(outcome) => legs.push(LegRun {
                        label: "opt/C".into(),
                        outcome,
                    }),
                    Err(e) => {
                        // Toolchain trouble (e.g. a sandboxed cc) is a
                        // skip, not a verdict: it is counted and
                        // surfaced, never silently blessed.
                        eprintln!("note: C leg skipped: {e}");
                        c_status = CStatus::SkippedNoCompiler;
                    }
                }
            }
        }
    }

    if let Inject::NanOnLeg(pat) = &opts.inject {
        for leg in &mut legs {
            if leg.label.contains(pat) {
                if let Outcome::Values(outs) = &mut leg.outcome {
                    if let Some(first) = outs.first_mut() {
                        if let Some(slot) = first.re.first_mut() {
                            *slot = f64::NAN;
                        }
                    }
                }
            }
        }
    }

    Ok(CaseReport { legs, c_status })
}

/// Checks the reference leg produced the outcome class the case was
/// generated to produce (OOB cases really trap, spins really exhaust
/// fuel) — a generator-health assertion, separate from cross-leg
/// agreement.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_expected_fault(case: &SourceCase, report: &CaseReport) -> Result<(), String> {
    let reference = &report.legs[0].outcome;
    let ok = match case.fault {
        Fault::None => matches!(reference, Outcome::Values(_)),
        Fault::OobRead => matches!(reference, Outcome::Fail(ErrorKind::OutOfBounds)),
        Fault::Spin => matches!(reference, Outcome::Fail(ErrorKind::FuelExhausted)),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "expected {:?} outcome, reference produced {reference:?}",
            case.fault
        ))
    }
}

fn sim_outcome(res: Result<matic::SimOutcome, matic::SimError>) -> Outcome {
    match res {
        Ok(out) => Outcome::Values(out.outputs.iter().map(sim_to_cvalue).collect()),
        Err(e) => Outcome::Fail(e.kind),
    }
}

fn c_leg(
    case: &SourceCase,
    compiled: &matic::Compiled,
    inputs: &[CValue],
) -> Result<Outcome, String> {
    let compiler = host_cc().ok_or("no host C compiler")?;
    let main_src = Harness
        .main_source(compiled.entry_mir(), inputs, 1)
        .map_err(|e| format!("harness: {e}"))?;
    let flags = ["-O0", "-DMATIC_BOUNDS_CHECK"];
    let run = build_and_run(compiler, &compiled.c, &main_src, &flags)
        .map_err(|e| format!("{e}\n--- program ---\n{}", case.src))?;
    if run.status.success() {
        let parsed = CValue::parse_outputs(&String::from_utf8_lossy(&run.stdout))
            .map_err(|e| format!("bad harness output: {e}\n--- program ---\n{}", case.src))?;
        Ok(Outcome::Values(parsed))
    } else {
        let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
        if !stderr.contains("matic:") {
            return Err(format!(
                "C kernel failed without a `matic:` diagnostic:\n{stderr}\n--- program ---\n{}",
                case.src
            ));
        }
        Ok(Outcome::Fail(classify_message(&stderr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn a_simple_case_agrees_everywhere() {
        let mut rng = Rng::new(0xBEEF);
        let case = gen_case(&mut rng).to_source();
        let report = run_case(&case, &IsaSpec::dsp16(), &RunOptions::default()).expect("case runs");
        // Five legs; four when no host C compiler is available.
        let legs = if report.c_status == CStatus::Ran {
            5
        } else {
            4
        };
        assert_eq!(report.legs.len(), legs, "c: {:?}", report.c_status);
        assert_eq!(report.verdict(), Verdict::Agree, "case:\n{}", case.src);
    }

    #[test]
    fn nan_injection_produces_a_disagreement() {
        // Find a clean (terminating, in-bounds) case so the injected leg
        // has values to corrupt.
        let mut rng = Rng::new(1);
        let case = loop {
            let c = gen_case(&mut rng);
            if c.fault() == Fault::None {
                break c.to_source();
            }
        };
        let opts = RunOptions {
            inject: Inject::NanOnLeg("opt/native"),
            with_c: false,
            ..RunOptions::default()
        };
        let report = run_case(&case, &IsaSpec::dsp16(), &opts).expect("case runs");
        match report.verdict() {
            Verdict::Disagree { leg, detail } => {
                assert_eq!(leg, "opt/native");
                assert!(detail.contains("NaN"), "detail: {detail}");
            }
            Verdict::Agree => panic!("NaN injection sailed through the oracle"),
        }
    }

    #[test]
    fn c_skip_reasons_are_reported() {
        let mut rng = Rng::new(2);
        let spin = loop {
            let c = gen_case(&mut rng);
            if c.fault() == Fault::Spin {
                break c.to_source();
            }
        };
        let report = run_case(&spin, &IsaSpec::dsp16(), &RunOptions::default()).expect("case runs");
        assert_eq!(report.c_status, CStatus::SkippedNonTerminating);

        let clean = loop {
            let c = gen_case(&mut rng);
            if c.fault() == Fault::None {
                break c.to_source();
            }
        };
        let opts = RunOptions {
            with_c: false,
            ..RunOptions::default()
        };
        let report = run_case(&clean, &IsaSpec::dsp16(), &opts).expect("case runs");
        assert_eq!(report.c_status, CStatus::SkippedByConfig);
    }
}

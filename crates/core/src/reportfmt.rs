//! Shared request-level helpers: signature parsing, deterministic input
//! synthesis and cycle-report rendering.
//!
//! Both the `matic` CLI and the `matic serve` request handler build on
//! this module, so a served `cycles` response is bit-identical to what
//! `matic cycles` prints for the same source, signature, target and
//! seed — the CI smoke test diffs the two byte-for-byte.

use crate::pipeline::{arg, Compiled};
use matic_asip::{Engine, SimError, SimOutcome, SimVal};
use matic_frontend::SourceMap;
use matic_interp::{Cx, Matrix, Xorshift64Star};
use matic_sema::{Class, Ty};

/// Default simulation step budget: large enough for any real kernel,
/// small enough that a `while 1` program errors out in seconds.
pub const DEFAULT_MAX_CYCLES: u64 = 100_000_000;

/// Parses a compact signature spec: comma-separated tokens where `s` is
/// a real scalar, `cs` a complex scalar, `v<N>` / `cv<N>` real/complex
/// row vectors of length N, and `m<R>x<C>` an R×C real matrix.
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_sig(spec: &str) -> Result<Vec<Ty>, String> {
    spec.split(',')
        .map(|tok| {
            let t = tok.trim();
            if t == "s" {
                return Ok(arg::scalar());
            }
            if t == "cs" {
                return Ok(arg::cx_scalar());
            }
            if let Some(n) = t.strip_prefix("cv") {
                return n
                    .parse()
                    .map(arg::cx_vector)
                    .map_err(|_| format!("bad sig token `{t}`"));
            }
            if let Some(n) = t.strip_prefix('v') {
                return n
                    .parse()
                    .map(arg::vector)
                    .map_err(|_| format!("bad sig token `{t}`"));
            }
            if let Some(dims) = t.strip_prefix('m') {
                let (r, c) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("bad sig token `{t}`"))?;
                let r: usize = r.parse().map_err(|_| format!("bad sig token `{t}`"))?;
                let c: usize = c.parse().map_err(|_| format!("bad sig token `{t}`"))?;
                return Ok(arg::matrix(r, c));
            }
            Err(format!("bad sig token `{t}`"))
        })
        .collect()
}

/// Synthesizes a deterministic input for one signature slot: an xorshift
/// stream seeded from `seed`, so the same (signature, seed) pair always
/// yields the same stimulus on every host.
pub fn synth_input(ty: &Ty, seed: u64) -> SimVal {
    let n = ty.shape.numel().unwrap_or(64);
    let mut rng = Xorshift64Star::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let mut next = move || rng.next_f64() * 2.0 - 1.0;
    let complex = ty.class == Class::Complex;
    if ty.shape.is_scalar() {
        return if complex {
            SimVal::Scalar(Cx::new(next(), next()))
        } else {
            SimVal::scalar(next().abs() * 8.0 + 1.0)
        };
    }
    if complex {
        let data: Vec<(f64, f64)> = (0..n).map(|_| (next(), next())).collect();
        SimVal::cx_row(&data)
    } else {
        let rows = ty.shape.rows.known().unwrap_or(1);
        let cols = ty.shape.cols.known().unwrap_or(n);
        let v: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        if rows == 1 {
            SimVal::row(&v)
        } else {
            // Column-major matrix input.
            SimVal::Arr(Matrix::new(
                rows,
                cols,
                v.into_iter().map(Cx::real).collect(),
            ))
        }
    }
}

/// The full stimulus vector for a signature: slot `k` is synthesized
/// with `seed + k` so slots differ but the whole vector is reproducible.
pub fn synth_inputs(sig: &[Ty], seed: u64) -> Vec<SimVal> {
    sig.iter()
        .enumerate()
        .map(|(k, t)| synth_input(t, seed.wrapping_add(k as u64)))
        .collect()
}

/// Knobs for a baseline-vs-optimized cycles measurement.
#[derive(Debug, Clone, Copy)]
pub struct CyclesOptions {
    /// Always [`Engine::Native`], the only engine; kept only because
    /// `perfbench/` still sets it, and can go together with that use.
    pub engine: Engine,
    /// Stimulus seed (see [`synth_inputs`]).
    pub seed: u64,
    /// Fuel budget per run.
    pub max_cycles: u64,
    /// Collect a source-level profile on the optimized run.
    pub profile: bool,
}

impl Default for CyclesOptions {
    fn default() -> CyclesOptions {
        CyclesOptions {
            engine: Engine::default(),
            seed: 1,
            max_cycles: DEFAULT_MAX_CYCLES,
            profile: false,
        }
    }
}

/// The two simulator outcomes behind one cycles report.
#[derive(Debug)]
pub struct CyclesRun {
    /// The scalar-baseline compilation's outcome.
    pub baseline: SimOutcome,
    /// The optimized compilation's outcome (carries the profile when
    /// [`CyclesOptions::profile`] was set).
    pub optimized: SimOutcome,
}

/// Runs the baseline and optimized compilations of one kernel on the
/// same synthesized stimulus.
///
/// # Errors
///
/// Propagates the first simulator error (fuel exhaustion, traps, …).
pub fn run_cycles(
    baseline: &Compiled,
    optimized: &Compiled,
    sig: &[Ty],
    opts: &CyclesOptions,
) -> Result<CyclesRun, SimError> {
    let inputs = synth_inputs(sig, opts.seed);
    let baseline = baseline
        .simulator()
        .with_fuel(opts.max_cycles)
        .run(inputs.clone())?;
    let optimized = optimized
        .simulator()
        .with_fuel(opts.max_cycles)
        .with_profiling(opts.profile)
        .run(inputs)?;
    Ok(CyclesRun {
        baseline,
        optimized,
    })
}

/// Renders the canonical cycles report — exactly the text `matic cycles`
/// prints. `show_profile` appends the per-line profile section when the
/// optimized run collected one (profiling may also run solely to export
/// JSON, in which case the text section stays off).
pub fn render_cycles(
    run: &CyclesRun,
    optimized: &Compiled,
    src: &str,
    entry: &str,
    show_profile: bool,
) -> String {
    use std::fmt::Write as _;
    let rb = &run.baseline;
    let ro = &run.optimized;
    let mut out = String::new();
    let _ = writeln!(out, "target    : {}", optimized.spec);
    let _ = writeln!(out, "baseline  : {:>10} cycles", rb.cycles.total);
    let _ = writeln!(out, "optimized : {:>10} cycles", ro.cycles.total);
    let _ = writeln!(
        out,
        "speedup   : {:.2}x",
        rb.cycles.total as f64 / ro.cycles.total.max(1) as f64
    );
    let _ = writeln!(out, "\ncycle breakdown (optimized):");
    let _ = write!(out, "{}", ro.cycles);
    if show_profile {
        if let Some(profile) = &ro.profile {
            let map = SourceMap::new(src);
            let _ = writeln!(out);
            let _ = write!(out, "{}", profile.render_text(&map, entry));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sig_accepts_every_token_kind() {
        let sig = parse_sig("s, cs, v8, cv4, m2x3").expect("valid sig");
        assert_eq!(sig.len(), 5);
        assert_eq!(sig[0], arg::scalar());
        assert_eq!(sig[1], arg::cx_scalar());
        assert_eq!(sig[2], arg::vector(8));
        assert_eq!(sig[3], arg::cx_vector(4));
        assert_eq!(sig[4], arg::matrix(2, 3));
        assert!(parse_sig("v").is_err());
        assert!(parse_sig("m4").is_err());
        assert!(parse_sig("q9").is_err());
    }

    #[test]
    fn synth_inputs_are_deterministic() {
        let sig = parse_sig("s, v16, cv4, m2x2").expect("valid sig");
        assert_eq!(synth_inputs(&sig, 7), synth_inputs(&sig, 7));
        assert_ne!(synth_inputs(&sig, 7), synth_inputs(&sig, 8));
    }

    #[test]
    fn render_cycles_matches_fixed_shape() {
        let src = "function y = gain(x, k)\ny = k .* x;\nend";
        let sig = parse_sig("v64, s").expect("valid sig");
        let optimized = crate::pipeline::Compiler::new()
            .compile(src, "gain", &sig)
            .expect("optimized compile");
        let baseline = crate::pipeline::Compiler::new()
            .opt_level(crate::pipeline::OptLevel::baseline())
            .compile(src, "gain", &sig)
            .expect("baseline compile");
        let run =
            run_cycles(&baseline, &optimized, &sig, &CyclesOptions::default()).expect("simulate");
        let text = render_cycles(&run, &optimized, src, "gain", false);
        assert!(text.starts_with("target    : "));
        assert!(text.contains("baseline  : "));
        assert!(text.contains("speedup   : "));
        assert!(text.contains("cycle breakdown (optimized):"));
    }
}

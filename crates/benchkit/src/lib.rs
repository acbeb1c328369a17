//! # matic-benchkit
//!
//! The six DSP benchmarks of the DATE'16 evaluation as embedded MATLAB
//! sources, plus deterministic stimulus generation, conversions between
//! the value types of the interpreter / C harness / ASIP simulator, and
//! straightforward Rust reference implementations that anchor kernel
//! correctness independently of the interpreter.
//!
//! # Examples
//!
//! ```
//! use matic_benchkit::benchmark;
//!
//! let fir = benchmark("fir").expect("known benchmark");
//! assert_eq!(fir.entry, "fir");
//! let inputs = fir.inputs(64, 7);
//! assert_eq!(inputs.len(), 2);
//! ```

pub mod kernels;
pub mod reference;

use matic::{arg, CValue, Cx, Interpreter, Matrix, SimVal, Ty, Value, Xorshift64Star};

/// One benchmark of the evaluation suite.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Short identifier (`fir`, `iir`, …).
    pub id: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// What the kernel exercises.
    pub description: &'static str,
    /// MATLAB source.
    pub source: &'static str,
    /// Entry function name.
    pub entry: &'static str,
    /// Default problem size (`n`).
    pub default_n: usize,
}

/// The benchmark suite, in the order reported by the paper tables.
pub const SUITE: &[Benchmark] = &[
    Benchmark {
        id: "fir",
        name: "FIR filter (64 taps)",
        description: "sliding-window multiply-accumulate; SIMD MAC",
        source: kernels::FIR,
        entry: "fir",
        default_n: 1024,
    },
    Benchmark {
        id: "iir",
        name: "IIR filter (direct form)",
        description: "feedback recurrence; mostly serial (low-speedup anchor)",
        source: kernels::IIR,
        entry: "iir",
        default_n: 1024,
    },
    Benchmark {
        id: "cmult",
        name: "complex vector multiply",
        description: "point-wise complex mix; complex-arithmetic instructions",
        source: kernels::CMULT,
        entry: "cmult",
        default_n: 1024,
    },
    Benchmark {
        id: "fft",
        name: "radix-2 complex FFT",
        description: "butterflies; complex multiplies and strided access",
        source: kernels::FFT,
        entry: "fft_r2",
        default_n: 1024,
    },
    Benchmark {
        id: "matmul",
        name: "matrix multiply (32x32)",
        description: "row-column dot products; SIMD MAC over 2-D views",
        source: kernels::MATMUL,
        entry: "matmul",
        default_n: 32,
    },
    Benchmark {
        id: "xcorr",
        name: "cross-correlation",
        description: "lagged multiply-accumulate windows",
        source: kernels::XCORR,
        entry: "xcorr_k",
        default_n: 512,
    },
];

/// Looks a benchmark up by id.
pub fn benchmark(id: &str) -> Option<&'static Benchmark> {
    SUITE.iter().find(|b| b.id == id)
}

/// FIR tap count used by the suite.
pub const FIR_TAPS: usize = 64;
/// Cross-correlation lag window used by the suite.
pub const XCORR_MAXLAG: usize = 64;

impl Benchmark {
    /// Entry-signature argument types for problem size `n`.
    pub fn arg_types(&self, n: usize) -> Vec<Ty> {
        match self.id {
            "fir" => vec![arg::vector(n), arg::vector(FIR_TAPS.min(n.max(1)))],
            "iir" => vec![arg::vector(n), arg::vector(3), arg::vector(3)],
            "cmult" => vec![arg::cx_vector(n), arg::cx_vector(n)],
            "fft" => vec![arg::cx_vector(n)],
            "matmul" => vec![arg::matrix(n, n), arg::matrix(n, n)],
            "xcorr" => vec![arg::vector(n), arg::vector(n), arg::scalar()],
            _ => unreachable!("unknown benchmark id"),
        }
    }

    /// Deterministic pseudo-random inputs for problem size `n`.
    pub fn inputs(&self, n: usize, seed: u64) -> Vec<CValue> {
        let mut rng = Lcg::new(seed ^ 0xB5AD4ECEDA1CE2A9);
        match self.id {
            "fir" => vec![rng.real_vec(n), rng.real_vec(FIR_TAPS.min(n.max(1)))],
            "iir" => {
                let x = rng.real_vec(n);
                // A stable low-pass biquad.
                let b = CValue::row(&[0.2929, 0.5858, 0.2929]);
                let a = CValue::row(&[1.0, -0.0, 0.1716]);
                vec![x, b, a]
            }
            "cmult" => vec![rng.cx_vec(n), rng.cx_vec(n)],
            "fft" => vec![rng.cx_vec(n)],
            "matmul" => vec![rng.real_mat(n, n), rng.real_mat(n, n)],
            "xcorr" => vec![
                rng.real_vec(n),
                rng.real_vec(n),
                CValue::scalar(XCORR_MAXLAG.min(n.saturating_sub(1)).max(1) as f64),
            ],
            _ => unreachable!("unknown benchmark id"),
        }
    }

    /// The lag-window parameter effective at size `n` (xcorr only).
    pub fn maxlag(&self, n: usize) -> usize {
        XCORR_MAXLAG.min(n.saturating_sub(1)).max(1)
    }

    /// Runs the kernel on the reference interpreter, returning outputs.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors as strings.
    pub fn reference_outputs(&self, inputs: &[CValue]) -> Result<Vec<CValue>, String> {
        let mut interp = Interpreter::from_source(self.source).map_err(|e| e.to_string())?;
        let vals: Vec<Value> = inputs.iter().map(to_interp).collect();
        let outs = interp
            .call(self.entry, vals, 1)
            .map_err(|e| e.to_string())?;
        outs.iter().map(from_interp).collect()
    }
}

/// Stimulus drawn from the interpreter's xorshift64\* stream.
struct Lcg(Xorshift64Star);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(Xorshift64Star::new(seed))
    }

    /// Uniform in `[-1, 1)`.
    fn next_f64(&mut self) -> f64 {
        self.0.next_f64() * 2.0 - 1.0
    }

    fn real_vec(&mut self, n: usize) -> CValue {
        CValue::row(&(0..n).map(|_| self.next_f64()).collect::<Vec<_>>())
    }

    fn cx_vec(&mut self, n: usize) -> CValue {
        CValue::cx_row(
            &(0..n)
                .map(|_| (self.next_f64(), self.next_f64()))
                .collect::<Vec<_>>(),
        )
    }

    fn real_mat(&mut self, r: usize, c: usize) -> CValue {
        CValue {
            rows: r,
            cols: c,
            re: (0..r * c).map(|_| self.next_f64()).collect(),
            im: None,
        }
    }
}

// ---- value conversions ------------------------------------------------------

/// Converts a harness value to an ASIP simulator value.
pub fn to_sim(v: &CValue) -> SimVal {
    if v.is_scalar() {
        match &v.im {
            Some(im) => SimVal::Scalar(Cx::new(v.re[0], im[0])),
            None => SimVal::scalar(v.re[0]),
        }
    } else {
        let data: Vec<Cx> = match &v.im {
            Some(im) => v.re.iter().zip(im).map(|(r, i)| Cx::new(*r, *i)).collect(),
            None => v.re.iter().map(|r| Cx::new(*r, 0.0)).collect(),
        };
        SimVal::Arr(Matrix::new(v.rows, v.cols, data))
    }
}

/// Converts a simulator value back to a harness value.
pub fn sim_to_cvalue(v: &SimVal) -> CValue {
    match v {
        SimVal::Scalar(z) => {
            if z.im == 0.0 {
                CValue::scalar(z.re)
            } else {
                CValue::cx_scalar(z.re, z.im)
            }
        }
        SimVal::Arr(m) => {
            let complex = !m.is_real();
            CValue {
                rows: m.rows(),
                cols: m.cols(),
                re: m.data().iter().map(|z| z.re).collect(),
                im: if complex {
                    Some(m.data().iter().map(|z| z.im).collect())
                } else {
                    None
                },
            }
        }
    }
}

/// Converts a harness value to an interpreter value.
pub fn to_interp(v: &CValue) -> Value {
    let data: Vec<Cx> = match &v.im {
        Some(im) => v.re.iter().zip(im).map(|(r, i)| Cx::new(*r, *i)).collect(),
        None => v.re.iter().map(|r| Cx::new(*r, 0.0)).collect(),
    };
    Value::Num(Matrix::new(v.rows, v.cols, data))
}

/// Converts an interpreter value back to a harness value.
///
/// # Errors
///
/// Fails for non-numeric values (strings, handles).
pub fn from_interp(v: &Value) -> Result<CValue, String> {
    let m = v.as_matrix()?;
    let complex = !m.is_real();
    Ok(CValue {
        rows: m.rows(),
        cols: m.cols(),
        re: m.data().iter().map(|z| z.re).collect(),
        im: if complex {
            Some(m.data().iter().map(|z| z.im).collect())
        } else {
            None
        },
    })
}

/// Compares two harness values within `tol`, returning the worst
/// difference relative to the magnitude of `expected`.
///
/// The comparison is NaN-aware: a NaN on one side where the other side
/// is finite (or infinite) is always a mismatch, while NaN-vs-NaN *at
/// the same index and part* agrees — two engines that both computed
/// `0/0` are in agreement, an engine that silently produced NaN where
/// another produced a number is not. (The pre-fix implementation folded
/// differences through `f64::max`, which discards NaN, so a NaN-vs-finite
/// disagreement was invisible.) The relative scale covers both the real
/// and imaginary parts of `expected`, so complex-dominated values are
/// judged against their actual magnitude rather than their possibly tiny
/// real projection.
pub fn outputs_close(actual: &CValue, expected: &CValue, tol: f64) -> Result<(), String> {
    if actual.rows != expected.rows || actual.cols != expected.cols {
        return Err(format!(
            "shape mismatch: {}x{} vs {}x{}",
            actual.rows, actual.cols, expected.rows, expected.cols
        ));
    }
    let n = expected.numel();
    let zeros = vec![0.0; n];
    let ia = actual.im.as_deref().unwrap_or(&zeros);
    let ie = expected.im.as_deref().unwrap_or(&zeros);
    let mut diff = 0.0_f64;
    for k in 0..n {
        for (part, a, e) in [("re", actual.re[k], expected.re[k]), ("im", ia[k], ie[k])] {
            match (a.is_nan(), e.is_nan()) {
                (true, true) => {} // both NaN at the same index: agreement
                (true, false) | (false, true) => {
                    return Err(format!(
                        "NaN mismatch at index {k} ({part}): actual {a} vs expected {e}"
                    ));
                }
                (false, false) => {
                    // `a == e` covers equal infinities, whose subtraction
                    // would manufacture a NaN.
                    if a != e {
                        diff = diff.max((a - e).abs());
                    }
                }
            }
        }
    }
    let scale = expected
        .re
        .iter()
        .chain(expected.im.iter().flatten())
        .map(|v| v.abs())
        .filter(|v| v.is_finite())
        .fold(1.0_f64, f64::max);
    if diff > tol * scale {
        return Err(format!("max abs diff {diff} exceeds {tol} (scale {scale})"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete() {
        assert_eq!(SUITE.len(), 6);
        for b in SUITE {
            assert!(benchmark(b.id).is_some());
            assert_eq!(
                b.arg_types(b.default_n).len(),
                b.inputs(b.default_n, 1).len()
            );
        }
    }

    #[test]
    fn inputs_are_deterministic() {
        let a = benchmark("fir").unwrap().inputs(64, 42);
        let b = benchmark("fir").unwrap().inputs(64, 42);
        assert_eq!(a, b);
        let c = benchmark("fir").unwrap().inputs(64, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn conversions_round_trip() {
        let v = CValue::cx_row(&[(1.0, 2.0), (3.0, -4.0)]);
        let sim = to_sim(&v);
        let back = sim_to_cvalue(&sim);
        assert_eq!(v, back);
        let iv = to_interp(&v);
        let back2 = from_interp(&iv).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    // The negated comparison IS the pre-fix bug being reproduced.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn nan_vs_finite_is_a_mismatch() {
        // Regression: the pre-fix oracle computed `max_abs_diff` by
        // folding through `f64::max`, which ignores NaN, and then asked
        // `diff > tol * scale` — so an engine emitting NaN where another
        // emitted a number passed the differential tests. Reproduce the
        // pre-fix predicate verbatim and show it blessed the divergence
        // the fixed oracle rejects.
        let expected = CValue::row(&[1.0, 2.0, 3.0]);
        let actual = CValue::row(&[1.0, f64::NAN, 3.0]);
        let prefix_diff = actual.max_abs_diff(&expected).unwrap();
        let prefix_scale = expected.re.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
        assert!(
            !(prefix_diff > 1e-9 * prefix_scale),
            "the pre-fix predicate accepted a NaN-vs-finite disagreement \
             (diff {prefix_diff}, scale {prefix_scale})"
        );
        let err = outputs_close(&actual, &expected, 1e-9).unwrap_err();
        assert!(err.contains("NaN mismatch at index 1"), "{err}");
        // The asymmetric case (reference NaN, engine finite) must fail too.
        let err = outputs_close(&expected, &actual, 1e-9).unwrap_err();
        assert!(err.contains("NaN mismatch"), "{err}");
    }

    #[test]
    fn nan_in_imaginary_part_is_a_mismatch() {
        let expected = CValue::cx_row(&[(1.0, 2.0), (3.0, 4.0)]);
        let actual = CValue::cx_row(&[(1.0, 2.0), (3.0, f64::NAN)]);
        let err = outputs_close(&actual, &expected, 1e-9).unwrap_err();
        assert!(err.contains("NaN mismatch at index 1 (im)"), "{err}");
        // A complex NaN against a real value of the same shape.
        let real = CValue::row(&[1.0, 3.0]);
        let cx_nan = CValue::cx_row(&[(1.0, 0.0), (3.0, f64::NAN)]);
        assert!(outputs_close(&cx_nan, &real, 1e-9).is_err());
    }

    #[test]
    fn nan_vs_nan_at_the_same_index_agrees() {
        let a = CValue::row(&[1.0, f64::NAN, 3.0]);
        let b = CValue::row(&[1.0, f64::NAN, 3.0]);
        outputs_close(&a, &b, 1e-9).expect("two engines that both computed NaN agree");
        // …but NaN at *different* indices does not.
        let c = CValue::row(&[f64::NAN, 1.0, 3.0]);
        assert!(outputs_close(&a, &c, 1e-9).is_err());
    }

    #[test]
    fn equal_infinities_agree_and_mixed_infinities_do_not() {
        let a = CValue::row(&[f64::INFINITY, 1.0]);
        outputs_close(&a, &a.clone(), 1e-9).expect("same infinity agrees");
        let b = CValue::row(&[f64::NEG_INFINITY, 1.0]);
        assert!(outputs_close(&a, &b, 1e-9).is_err());
        let c = CValue::row(&[1.0, 1.0]);
        assert!(outputs_close(&a, &c, 1e-9).is_err());
    }

    #[test]
    fn scale_covers_imaginary_parts() {
        // Regression: the pre-fix scale looked only at `re`, so a value
        // whose magnitude lives in the imaginary part was compared
        // against scale 1.0 and a proportionally tiny difference was
        // reported as a divergence.
        let expected = CValue::cx_row(&[(0.0, 1.0e12)]);
        let actual = CValue::cx_row(&[(0.0, 1.0e12 + 100.0)]);
        let prefix_scale = expected.re.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
        assert!(
            100.0 > 1e-9 * prefix_scale,
            "the pre-fix re-only scale would have flagged this 1e-10 relative error"
        );
        outputs_close(&actual, &expected, 1e-9)
            .expect("a 1e-10 relative error on an im-dominated value is within 1e-9");
        // Genuine complex divergence still fails.
        let off = CValue::cx_row(&[(0.0, 2.0e12)]);
        assert!(outputs_close(&off, &expected, 1e-9).is_err());
    }

    #[test]
    fn all_benchmarks_run_on_interpreter() {
        for b in SUITE {
            let n = match b.id {
                "matmul" => 4,
                "fft" => 16,
                _ => 32,
            };
            let inputs = b.inputs(n, 7);
            let outs = b
                .reference_outputs(&inputs)
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.id));
            assert_eq!(outs.len(), 1, "{}", b.id);
            assert!(outs[0].numel() > 0, "{}", b.id);
        }
    }
}

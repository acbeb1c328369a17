//! Test/benchmark harness generation: a C `main()` that feeds concrete
//! inputs to a compiled entry function and prints its outputs in a
//! machine-readable format.
//!
//! The differential test suite compiles `module.c + harness` with the
//! host C compiler, runs it, parses the printed outputs, and compares
//! them against the reference interpreter.

use crate::emit::{fmt_f64, repr_of, CModule, CodegenError};
use matic_frontend::span::Span;
use matic_mir::MirFunction;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A concrete runtime value fed to (or read back from) generated C.
#[derive(Debug, Clone, PartialEq)]
pub struct CValue {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Real parts, column-major, `rows*cols` entries.
    pub re: Vec<f64>,
    /// Imaginary parts; `None` for real values.
    pub im: Option<Vec<f64>>,
}

impl CValue {
    /// A real scalar.
    pub fn scalar(v: f64) -> CValue {
        CValue {
            rows: 1,
            cols: 1,
            re: vec![v],
            im: None,
        }
    }

    /// A complex scalar.
    pub fn cx_scalar(re: f64, im: f64) -> CValue {
        CValue {
            rows: 1,
            cols: 1,
            re: vec![re],
            im: Some(vec![im]),
        }
    }

    /// A real row vector.
    pub fn row(values: &[f64]) -> CValue {
        CValue {
            rows: 1,
            cols: values.len(),
            re: values.to_vec(),
            im: None,
        }
    }

    /// A complex row vector from `(re, im)` pairs.
    pub fn cx_row(pairs: &[(f64, f64)]) -> CValue {
        CValue {
            rows: 1,
            cols: pairs.len(),
            re: pairs.iter().map(|p| p.0).collect(),
            im: Some(pairs.iter().map(|p| p.1).collect()),
        }
    }

    /// Whether the value is 1×1.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Whether the value carries imaginary parts.
    pub fn is_complex(&self) -> bool {
        self.im.is_some()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.rows * self.cols
    }

    /// Parses the harness output format produced by [`Harness::main_source`]:
    /// per output, a `rows cols iscomplex` header line followed by `numel`
    /// lines of `re im` pairs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_outputs(text: &str) -> Result<Vec<CValue>, String> {
        let mut values = Vec::new();
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        while let Some(header) = lines.next() {
            let mut it = header.split_whitespace();
            let rows: usize = it
                .next()
                .ok_or("missing rows")?
                .parse()
                .map_err(|_| format!("bad rows in {header:?}"))?;
            let cols: usize = it
                .next()
                .ok_or("missing cols")?
                .parse()
                .map_err(|_| format!("bad cols in {header:?}"))?;
            let complex: u32 = it
                .next()
                .ok_or("missing complex flag")?
                .parse()
                .map_err(|_| format!("bad complex flag in {header:?}"))?;
            let n = rows * cols;
            let mut re = Vec::with_capacity(n);
            let mut im = Vec::with_capacity(n);
            for _ in 0..n {
                let line = lines.next().ok_or("truncated output")?;
                let mut parts = line.split_whitespace();
                re.push(
                    parts
                        .next()
                        .ok_or("missing re")?
                        .parse()
                        .map_err(|_| format!("bad re in {line:?}"))?,
                );
                im.push(
                    parts
                        .next()
                        .ok_or("missing im")?
                        .parse()
                        .map_err(|_| format!("bad im in {line:?}"))?,
                );
            }
            values.push(CValue {
                rows,
                cols,
                re,
                im: if complex != 0 { Some(im) } else { None },
            });
        }
        Ok(values)
    }

    /// Maximum absolute difference to another value over real and
    /// imaginary parts; `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &CValue) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        let zeros_a = vec![0.0; self.numel()];
        let zeros_b = vec![0.0; other.numel()];
        let ia = self.im.as_deref().unwrap_or(&zeros_a);
        let ib = other.im.as_deref().unwrap_or(&zeros_b);
        let mut worst: f64 = 0.0;
        for k in 0..self.numel() {
            worst = worst.max((self.re[k] - other.re[k]).abs());
            worst = worst.max((ia[k] - ib[k]).abs());
        }
        Some(worst)
    }
}

/// Generates C `main()` functions for compiled entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Harness;

impl Harness {
    /// Emits a `main()` that calls `func` once with `inputs` and prints
    /// every output (`%.17g` so doubles round-trip). Pass `repeat > 1`
    /// to re-run the kernel in a timing loop before printing.
    ///
    /// # Errors
    ///
    /// Fails when an input's realness or count does not match the
    /// compiled signature.
    pub fn main_source(
        &self,
        func: &MirFunction,
        inputs: &[CValue],
        repeat: usize,
    ) -> Result<String, CodegenError> {
        if inputs.len() != func.params.len() {
            return Err(CodegenError::new(
                format!(
                    "harness: {} inputs for {} parameters",
                    inputs.len(),
                    func.params.len()
                ),
                Span::dummy(),
            ));
        }
        let mut out = String::new();
        out.push_str("int main(void) {\n");

        let mut arg_exprs = Vec::new();
        for (k, (&p, val)) in func.params.iter().zip(inputs).enumerate() {
            let repr = repr_of(func.var_ty(p), Span::dummy())?;
            match (repr.is_scalar(), repr.is_cx()) {
                (true, false) => {
                    if val.is_complex() {
                        return Err(CodegenError::new(
                            format!("harness: complex input {k} for real parameter"),
                            Span::dummy(),
                        ));
                    }
                    let _ = writeln!(out, "    double in{k} = {};", fmt_f64(val.re[0]));
                    arg_exprs.push(format!("in{k}"));
                }
                (true, true) => {
                    let im = val.im.as_ref().map(|v| v[0]).unwrap_or(0.0);
                    let _ = writeln!(
                        out,
                        "    matic_cx in{k} = {{{}, {}}};",
                        fmt_f64(val.re[0]),
                        fmt_f64(im)
                    );
                    arg_exprs.push(format!("in{k}"));
                }
                (false, false) => {
                    if val.is_complex() {
                        return Err(CodegenError::new(
                            format!("harness: complex input {k} for real array parameter"),
                            Span::dummy(),
                        ));
                    }
                    let data: Vec<String> = val.re.iter().map(|v| fmt_f64(*v)).collect();
                    let _ = writeln!(
                        out,
                        "    static double in{k}_data[] = {{{}}};",
                        if data.is_empty() {
                            "0.0".to_string()
                        } else {
                            data.join(", ")
                        }
                    );
                    let _ = writeln!(
                        out,
                        "    matic_arr in{k} = {{in{k}_data, {}, {}}};",
                        val.rows, val.cols
                    );
                    arg_exprs.push(format!("&in{k}"));
                }
                (false, true) => {
                    let zeros = vec![0.0; val.numel()];
                    let im = val.im.as_deref().unwrap_or(&zeros);
                    let data: Vec<String> = val
                        .re
                        .iter()
                        .zip(im)
                        .map(|(r, i)| format!("{{{}, {}}}", fmt_f64(*r), fmt_f64(*i)))
                        .collect();
                    let _ = writeln!(
                        out,
                        "    static matic_cx in{k}_data[] = {{{}}};",
                        if data.is_empty() {
                            "{0.0, 0.0}".to_string()
                        } else {
                            data.join(", ")
                        }
                    );
                    let _ = writeln!(
                        out,
                        "    matic_carr in{k} = {{in{k}_data, {}, {}}};",
                        val.rows, val.cols
                    );
                    arg_exprs.push(format!("&in{k}"));
                }
            }
        }

        for (k, &o) in func.outputs.iter().enumerate() {
            let repr = repr_of(func.var_ty(o), Span::dummy())?;
            let decl = match (repr.is_scalar(), repr.is_cx()) {
                (true, false) => format!("    double out{k} = 0.0;"),
                (true, true) => format!("    matic_cx out{k} = {{0.0, 0.0}};"),
                (false, false) => format!("    matic_arr out{k} = {{0, 0, 0}};"),
                (false, true) => format!("    matic_carr out{k} = {{0, 0, 0}};"),
            };
            out.push_str(&decl);
            out.push('\n');
            arg_exprs.push(format!("&out{k}"));
        }

        let call = format!("mt_{}({});", func.name, arg_exprs.join(", "));
        if repeat > 1 {
            let _ = writeln!(
                out,
                "    {{ int rep; for (rep = 0; rep < {repeat}; ++rep) {{ matic_rt_reset(); {call} }} }}"
            );
        } else {
            let _ = writeln!(out, "    {call}");
        }

        for (k, &o) in func.outputs.iter().enumerate() {
            let repr = repr_of(func.var_ty(o), Span::dummy())?;
            match (repr.is_scalar(), repr.is_cx()) {
                (true, false) => {
                    let _ = writeln!(out, "    printf(\"1 1 0\\n%.17g 0\\n\", out{k});");
                }
                (true, true) => {
                    let _ = writeln!(
                        out,
                        "    printf(\"1 1 1\\n%.17g %.17g\\n\", out{k}.re, out{k}.im);"
                    );
                }
                (false, false) => {
                    let _ = writeln!(out, "    printf(\"%d %d 0\\n\", out{k}.rows, out{k}.cols);");
                    let _ = writeln!(
                        out,
                        "    {{ int i; for (i = 0; i < out{k}.rows * out{k}.cols; ++i) printf(\"%.17g 0\\n\", out{k}.data[i]); }}"
                    );
                }
                (false, true) => {
                    let _ = writeln!(out, "    printf(\"%d %d 1\\n\", out{k}.rows, out{k}.cols);");
                    let _ = writeln!(
                        out,
                        "    {{ int i; for (i = 0; i < out{k}.rows * out{k}.cols; ++i) printf(\"%.17g %.17g\\n\", out{k}.data[i].re, out{k}.data[i].im); }}"
                    );
                }
            }
        }
        out.push_str("    return 0;\n}\n");
        Ok(out)
    }
}

/// Writes a module (plus headers) into `dir`, returning the path of the
/// written `.c` file. Appends `extra` (e.g. a harness `main`) when given.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_module(dir: &Path, module: &CModule, extra: Option<&str>) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("matic_rt.h"), &module.rt_header)?;
    std::fs::write(dir.join("matic_intrinsics.h"), &module.intrinsics_header)?;
    let mut src = module.source.clone();
    if let Some(e) = extra {
        src.push('\n');
        src.push_str(e);
    }
    let path = dir.join("module.c");
    std::fs::write(&path, src)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cvalue_constructors() {
        let s = CValue::scalar(2.0);
        assert!(s.is_scalar());
        assert!(!s.is_complex());
        let z = CValue::cx_scalar(1.0, -1.0);
        assert!(z.is_complex());
        let v = CValue::row(&[1.0, 2.0, 3.0]);
        assert_eq!(v.numel(), 3);
    }

    #[test]
    fn parse_outputs_round_trip() {
        let text = "1 1 0\n42 0\n2 1 1\n1 2\n3 4\n";
        let vals = CValue::parse_outputs(text).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].re[0], 42.0);
        assert!(!vals[0].is_complex());
        assert_eq!(vals[1].rows, 2);
        assert_eq!(vals[1].im.as_ref().unwrap()[1], 4.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CValue::parse_outputs("1 1\n").is_err());
        assert!(CValue::parse_outputs("2 1 0\n1 0\n").is_err());
    }

    #[test]
    fn max_abs_diff() {
        let a = CValue::row(&[1.0, 2.0]);
        let b = CValue::row(&[1.0, 2.5]);
        assert_eq!(a.max_abs_diff(&b), Some(0.5));
        let c = CValue::row(&[1.0]);
        assert_eq!(a.max_abs_diff(&c), None);
    }
}

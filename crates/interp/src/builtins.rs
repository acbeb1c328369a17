//! Built-in MATLAB functions available to interpreted programs.
//!
//! Builtins that need interpreter state (random numbers, console output)
//! reach it through the [`Host`] trait, implemented by the interpreter.
//! Every other builtin is also reachable without one, through
//! [`call_pure_builtin`], which the simulator calls for its values.

use crate::cx::Cx;
use crate::registry::{self, Builtin, Eval};
use crate::value::{Matrix, Value};

/// Services a builtin may need from the enclosing interpreter.
pub trait Host {
    /// The next uniform random number in `[0, 1)`.
    fn next_rand(&mut self) -> f64;
    /// The next standard-normal random number.
    fn next_randn(&mut self) -> f64;
    /// Reseeds the random stream.
    fn reseed(&mut self, seed: u64);
    /// Emits program output (from `disp`, `fprintf`, unsuppressed results).
    fn emit(&mut self, text: &str);
}

fn one(m: Matrix) -> Result<Vec<Value>, String> {
    Ok(vec![Value::Num(m)])
}

fn arg_matrix(args: &[Value], k: usize, name: &str) -> Result<Matrix, String> {
    args.get(k)
        .cloned()
        .ok_or_else(|| format!("{name}: missing argument {}", k + 1))?
        .into_matrix()
}

fn arg_usize(args: &[Value], k: usize, name: &str) -> Result<usize, String> {
    let v = arg_matrix(args, k, name)?.as_real_scalar()?;
    if v < 0.0 || v != v.trunc() {
        return Err(format!("{name}: expected nonnegative integer, got {v}"));
    }
    Ok(v as usize)
}

/// Dimension arguments for `zeros`/`ones`/`eye`/`rand`: `()` → 1×1,
/// `(n)` → n×n, `(r, c)` → r×c.
fn dims(args: &[Value], name: &str) -> Result<(usize, usize), String> {
    match args.len() {
        0 => Ok((1, 1)),
        1 => {
            let n = arg_usize(args, 0, name)?;
            Ok((n, n))
        }
        2 => Ok((arg_usize(args, 0, name)?, arg_usize(args, 1, name)?)),
        _ => Err(format!("{name}: too many dimension arguments")),
    }
}

/// A registry entry applied to the first `arity` arguments, element-wise.
fn call_registered(b: &Builtin, args: &[Value]) -> Result<Vec<Value>, String> {
    let ms = (0..b.arity())
        .map(|k| arg_matrix(args, k, b.name))
        .collect::<Result<Vec<_>, _>>()?;
    if b.real_only && ms.iter().any(|m| !m.is_real()) {
        return Err(registry::complex_argument(b.name));
    }
    one(match (b.eval, ms.as_slice()) {
        (Eval::Un(f), [m]) => m.map(f),
        (Eval::Bin(f), [x, y]) => x.zip(y, f)?,
        (Eval::Const(z), _) => Matrix::scalar(z),
        _ => unreachable!("one matrix per argument"),
    })
}

/// Calls builtin `name` with `args`, requesting `nargout` outputs.
///
/// # Errors
///
/// Returns a message when no builtin is named `name`, arguments are
/// malformed, or MATLAB semantics demand a runtime error (`error(...)`).
pub fn call_builtin(
    host: &mut dyn Host,
    name: &str,
    args: Vec<Value>,
    nargout: usize,
) -> Result<Vec<Value>, String> {
    match name {
        "rand" => {
            let (r, c) = dims(&args, name)?;
            let data: Vec<Cx> = (0..r * c).map(|_| Cx::real(host.next_rand())).collect();
            one(Matrix::new(r, c, data))
        }
        "randn" => {
            let (r, c) = dims(&args, name)?;
            let data: Vec<Cx> = (0..r * c).map(|_| Cx::real(host.next_randn())).collect();
            one(Matrix::new(r, c, data))
        }
        "rng" => {
            let seed = arg_usize(&args, 0, name)? as u64;
            host.reseed(seed);
            Ok(vec![])
        }
        "disp" => {
            let text = match args.first() {
                Some(Value::Str(s)) => s.clone(),
                Some(v) => format!("{v}"),
                None => String::new(),
            };
            host.emit(&text);
            host.emit("\n");
            Ok(vec![])
        }
        "fprintf" => {
            host.emit(&printf(name, &args)?);
            Ok(vec![])
        }
        _ => call_pure_builtin(name, args, nargout),
    }
}

/// Calls builtin `name`, one that needs no [`Host`] (every builtin but
/// the random stream and console output), with `args`, requesting
/// `nargout` outputs. The simulator takes the values of the builtins it
/// does not compute itself from here.
///
/// # Errors
///
/// As [`call_builtin`]; a builtin that needs a host is unknown here.
pub fn call_pure_builtin(
    name: &str,
    args: Vec<Value>,
    nargout: usize,
) -> Result<Vec<Value>, String> {
    if let Some(b) = registry::lookup_call(name, args.len()) {
        return call_registered(b, &args);
    }
    match name {
        // ---- constructors ----------------------------------------------
        "zeros" => {
            let (r, c) = dims(&args, name)?;
            one(Matrix::zeros(r, c))
        }
        "ones" => {
            let (r, c) = dims(&args, name)?;
            one(Matrix::ones(r, c))
        }
        "eye" => {
            let (r, c) = dims(&args, name)?;
            one(Matrix::eye(r, c))
        }
        "linspace" => {
            let a = arg_matrix(&args, 0, name)?.as_real_scalar()?;
            let b = arg_matrix(&args, 1, name)?.as_real_scalar()?;
            let n = if args.len() > 2 {
                arg_usize(&args, 2, name)?
            } else {
                100
            };
            if n == 0 {
                return one(Matrix::new(1, 0, Vec::new()));
            }
            if n == 1 {
                return one(Matrix::from_f64(b));
            }
            let step = (b - a) / (n - 1) as f64;
            let data: Vec<Cx> = (0..n).map(|k| Cx::real(a + step * k as f64)).collect();
            one(Matrix::new(1, n, data))
        }

        // ---- shape queries ----------------------------------------------
        "length" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::from_f64(m.length() as f64))
        }
        "numel" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::from_f64(m.numel() as f64))
        }
        "size" => {
            let m = arg_matrix(&args, 0, name)?;
            if args.len() > 1 {
                let d = arg_usize(&args, 1, name)?;
                let v = match d {
                    1 => m.rows(),
                    2 => m.cols(),
                    _ => 1,
                };
                return one(Matrix::from_f64(v as f64));
            }
            if nargout >= 2 {
                Ok(vec![
                    Value::scalar(m.rows() as f64),
                    Value::scalar(m.cols() as f64),
                ])
            } else {
                one(Matrix::row_from_f64(&[m.rows() as f64, m.cols() as f64]))
            }
        }
        "isempty" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::logical_scalar(m.is_empty()))
        }
        "isreal" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::logical_scalar(m.is_real()))
        }
        "isscalar" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::logical_scalar(m.is_scalar()))
        }
        "isvector" => {
            let m = arg_matrix(&args, 0, name)?;
            one(Matrix::logical_scalar(m.is_vector()))
        }

        // ---- reductions ---------------------------------------------------
        "sum" => {
            let m = arg_matrix(&args, 0, name)?;
            one(m.reduce(Cx::ZERO, |a, b| a + b))
        }
        "prod" => {
            let m = arg_matrix(&args, 0, name)?;
            one(m.reduce(Cx::ONE, |a, b| a * b))
        }
        "cumsum" => {
            let m = arg_matrix(&args, 0, name)?;
            if !m.is_vector() && !m.is_empty() {
                return Err("cumsum: only vectors supported".to_string());
            }
            let mut acc = Cx::ZERO;
            let data: Vec<Cx> = m
                .data()
                .iter()
                .map(|&z| {
                    acc = acc + z;
                    acc
                })
                .collect();
            one(Matrix::new(m.rows(), m.cols(), data))
        }
        "mean" => {
            let m = arg_matrix(&args, 0, name)?;
            if m.is_empty() {
                return one(Matrix::from_f64(f64::NAN));
            }
            let n = if m.is_vector() { m.numel() } else { m.rows() };
            let s = m.reduce(Cx::ZERO, |a, b| a + b);
            one(s.map(|z| z / Cx::real(n as f64)))
        }
        "min" | "max" => min_max(name, args, nargout),
        "any" => {
            let m = arg_matrix(&args, 0, name)?;
            let r = m.reduce(Cx::ZERO, |a, b| {
                if a.re != 0.0 || b.re != 0.0 || b.im != 0.0 {
                    Cx::ONE
                } else {
                    Cx::ZERO
                }
            });
            one(r.into_logical())
        }
        "all" => {
            let m = arg_matrix(&args, 0, name)?;
            let r = m.reduce(Cx::ONE, |a, b| {
                if a.re != 0.0 && (b.re != 0.0 || b.im != 0.0) {
                    Cx::ONE
                } else {
                    Cx::ZERO
                }
            });
            one(r.into_logical())
        }
        "find" => {
            let m = arg_matrix(&args, 0, name)?;
            let hits: Vec<f64> = m
                .data()
                .iter()
                .enumerate()
                .filter(|(_, z)| z.re != 0.0 || z.im != 0.0)
                .map(|(k, _)| (k + 1) as f64)
                .collect();
            if m.rows() == 1 {
                one(Matrix::row_from_f64(&hits))
            } else {
                one(Matrix::col_from_f64(&hits))
            }
        }
        "dot" => {
            let a = arg_matrix(&args, 0, name)?;
            let b = arg_matrix(&args, 1, name)?;
            if a.numel() != b.numel() {
                return Err("dot: vectors must be the same length".to_string());
            }
            let mut acc = Cx::ZERO;
            for (x, y) in a.data().iter().zip(b.data()) {
                acc = acc + x.conj() * *y;
            }
            one(Matrix::scalar(acc))
        }
        "norm" => {
            let a = arg_matrix(&args, 0, name)?;
            if !a.is_vector() && !a.is_empty() {
                return Err("norm: only vector norms supported".to_string());
            }
            let s = a.data().iter().fold(0.0, |s, z| s + z.abs() * z.abs());
            one(Matrix::from_f64(s.sqrt()))
        }

        // ---- reshaping ------------------------------------------------------
        "fliplr" => {
            let m = arg_matrix(&args, 0, name)?;
            let mut out = Matrix::zeros(m.rows(), m.cols());
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    *out.at_mut(r, m.cols() - 1 - c) = m.at(r, c);
                }
            }
            one(out)
        }
        "flipud" => {
            let m = arg_matrix(&args, 0, name)?;
            let mut out = Matrix::zeros(m.rows(), m.cols());
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    *out.at_mut(m.rows() - 1 - r, c) = m.at(r, c);
                }
            }
            one(out)
        }
        "reshape" => {
            let m = arg_matrix(&args, 0, name)?;
            let r = arg_usize(&args, 1, name)?;
            let c = arg_usize(&args, 2, name)?;
            one(m.reshape(r, c)?)
        }
        "repmat" => {
            let m = arg_matrix(&args, 0, name)?;
            let rr = arg_usize(&args, 1, name)?;
            let cc = if args.len() > 2 {
                arg_usize(&args, 2, name)?
            } else {
                rr
            };
            let mut out = Matrix::zeros(m.rows() * rr, m.cols() * cc);
            for bc in 0..cc {
                for br in 0..rr {
                    for c in 0..m.cols() {
                        for r in 0..m.rows() {
                            *out.at_mut(br * m.rows() + r, bc * m.cols() + c) = m.at(r, c);
                        }
                    }
                }
            }
            one(out)
        }

        // ---- I/O and misc -----------------------------------------------------
        "sprintf" => Ok(vec![Value::Str(printf(name, &args)?)]),
        "num2str" => {
            let m = arg_matrix(&args, 0, name)?;
            let s = if m.is_scalar() {
                m.as_scalar()?.to_string()
            } else {
                format!("{m}")
            };
            Ok(vec![Value::Str(s)])
        }
        "error" => {
            let msg = match args.first() {
                Some(Value::Str(s)) => {
                    if args.len() > 1 {
                        format_printf(s, &args[1..])?
                    } else {
                        s.clone()
                    }
                }
                _ => "error".to_string(),
            };
            Err(msg)
        }
        "deal" => {
            if args.len() == 1 {
                Ok(vec![args[0].clone(); nargout.max(1)])
            } else {
                Ok(args)
            }
        }
        _ => Err(match registry::lookup(name) {
            Some(b) => format!("{name}: expected {} argument(s)", b.arity()),
            None => format!("undefined function or variable `{name}`"),
        }),
    }
}

/// `fprintf`'s or `sprintf`'s text: its format string applied to the
/// other arguments.
fn printf(name: &str, args: &[Value]) -> Result<String, String> {
    match args.first() {
        Some(Value::Str(fmt)) => format_printf(fmt, &args[1..]),
        _ => Err(format!("{name}: first argument must be a format string")),
    }
}

fn min_max(name: &str, args: Vec<Value>, nargout: usize) -> Result<Vec<Value>, String> {
    let is_min = name == "min";
    let cmp = |a: f64, b: f64| if is_min { a < b } else { a > b };
    if args.len() > 2 {
        return Err(format!(
            "{name}: expected 1 or 2 arguments, got {}",
            args.len()
        ));
    }
    let m = arg_matrix(&args, 0, name)?;
    if m.is_empty() {
        return Ok(vec![
            Value::Num(Matrix::empty()),
            Value::Num(Matrix::empty()),
        ]);
    }
    let reduce_slice = |vals: &[Cx]| -> (Cx, usize) {
        let mut best = vals[0];
        let mut best_i = 0usize;
        for (k, &v) in vals.iter().enumerate().skip(1) {
            if cmp(v.re, best.re) {
                best = v;
                best_i = k;
            }
        }
        (best, best_i)
    };
    if m.is_vector() {
        let (v, i) = reduce_slice(m.data());
        let mut out = vec![Value::Num(Matrix::scalar(v))];
        if nargout >= 2 {
            out.push(Value::scalar((i + 1) as f64));
        }
        return Ok(out);
    }
    let mut vals = Matrix::zeros(1, m.cols());
    let mut idxs = Matrix::zeros(1, m.cols());
    for c in 0..m.cols() {
        let col: Vec<Cx> = (0..m.rows()).map(|r| m.at(r, c)).collect();
        let (v, i) = reduce_slice(&col);
        *vals.at_mut(0, c) = v;
        *idxs.at_mut(0, c) = Cx::real((i + 1) as f64);
    }
    let mut out = vec![Value::Num(vals)];
    if nargout >= 2 {
        out.push(Value::Num(idxs));
    }
    Ok(out)
}

/// Minimal `printf`-style formatter supporting `%d %i %f %g %e %s %%` with
/// optional width/precision, plus `\n` and `\t` escapes. Extra conversion
/// arguments recycle the format string, like MATLAB.
pub fn format_printf(fmt: &str, args: &[Value]) -> Result<String, String> {
    // Flatten matrix arguments element-wise, like MATLAB does.
    let mut flat: Vec<FormatArg> = Vec::new();
    for a in args {
        match a {
            Value::Str(s) => flat.push(FormatArg::Str(s.clone())),
            Value::Num(m) => {
                for z in m.data() {
                    flat.push(FormatArg::Num(z.re));
                }
            }
            _ => return Err("fprintf: cannot format function handle".to_string()),
        }
    }
    let mut out = String::new();
    let mut ai = 0usize;
    loop {
        let consumed_before = ai;
        render_once(fmt, &flat, &mut ai, &mut out)?;
        // Recycle the format while arguments remain and progress is made.
        if ai >= flat.len() || ai == consumed_before {
            break;
        }
    }
    Ok(out)
}

enum FormatArg {
    Num(f64),
    Str(String),
}

fn render_once(
    fmt: &str,
    args: &[FormatArg],
    ai: &mut usize,
    out: &mut String,
) -> Result<(), String> {
    let bytes = fmt.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                match bytes[i + 1] {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'\\' => out.push('\\'),
                    c => {
                        out.push('\\');
                        out.push(c as char);
                    }
                }
                i += 2;
            }
            b'%' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'%' {
                    out.push('%');
                    i += 2;
                    continue;
                }
                // Parse %[width][.precision]conv
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'-') {
                    i += 1;
                }
                let mut precision: Option<usize> = None;
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    let ps = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    precision = fmt[ps..i].parse().ok();
                }
                if i >= bytes.len() {
                    return Err("fprintf: dangling `%`".to_string());
                }
                let conv = bytes[i] as char;
                i += 1;
                let width: i64 = fmt[start + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '-')
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0);
                let arg = args.get(*ai);
                let text = match (conv, arg) {
                    ('d' | 'i', Some(FormatArg::Num(v))) => {
                        *ai += 1;
                        format!("{}", *v as i64)
                    }
                    ('f', Some(FormatArg::Num(v))) => {
                        *ai += 1;
                        format!("{:.*}", precision.unwrap_or(6), v)
                    }
                    ('e', Some(FormatArg::Num(v))) => {
                        *ai += 1;
                        format!("{:.*e}", precision.unwrap_or(6), v)
                    }
                    ('g', Some(FormatArg::Num(v))) => {
                        *ai += 1;
                        format!("{v}")
                    }
                    ('s', Some(FormatArg::Str(s))) => {
                        *ai += 1;
                        s.clone()
                    }
                    ('s', Some(FormatArg::Num(v))) => {
                        *ai += 1;
                        format!("{v}")
                    }
                    (_, None) => String::new(),
                    _ => return Err(format!("fprintf: unsupported conversion `%{conv}`")),
                };
                let w = width.unsigned_abs() as usize;
                if w > text.len() {
                    if width < 0 {
                        out.push_str(&text);
                        out.push_str(&" ".repeat(w - text.len()));
                    } else {
                        out.push_str(&" ".repeat(w - text.len()));
                        out.push_str(&text);
                    }
                } else {
                    out.push_str(&text);
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestHost {
        out: String,
        state: u64,
    }

    impl TestHost {
        fn new() -> Self {
            TestHost {
                out: String::new(),
                state: 42,
            }
        }
    }

    impl Host for TestHost {
        fn next_rand(&mut self) -> f64 {
            self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (self.state >> 11) as f64 / (1u64 << 53) as f64
        }
        fn next_randn(&mut self) -> f64 {
            self.next_rand() - 0.5
        }
        fn reseed(&mut self, seed: u64) {
            self.state = seed;
        }
        fn emit(&mut self, text: &str) {
            self.out.push_str(text);
        }
    }

    fn call(name: &str, args: Vec<Value>) -> Vec<Value> {
        let mut h = TestHost::new();
        call_builtin(&mut h, name, args, 1).expect("builtin ok")
    }

    fn scalar_of(vs: Vec<Value>) -> f64 {
        vs[0]
            .as_matrix()
            .unwrap()
            .as_real_scalar()
            .expect("real scalar")
    }

    #[test]
    fn constants() {
        assert!((scalar_of(call("pi", vec![])) - std::f64::consts::PI).abs() < 1e-15);
        let i = call("i", vec![]);
        assert_eq!(i[0].as_matrix().unwrap().as_scalar().unwrap(), Cx::I);
    }

    #[test]
    fn zeros_and_size() {
        let z = call("zeros", vec![Value::scalar(2.0), Value::scalar(3.0)]);
        let m = z[0].as_matrix().unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let s = call("size", vec![z[0].clone()]);
        let sm = s[0].as_matrix().unwrap();
        assert_eq!(sm.lin(0).re, 2.0);
        assert_eq!(sm.lin(1).re, 3.0);
    }

    #[test]
    fn size_two_outputs() {
        let mut h = TestHost::new();
        let outs = call_builtin(&mut h, "size", vec![Value::Num(Matrix::zeros(4, 7))], 2).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[1].as_matrix().unwrap().as_real_scalar().unwrap(), 7.0);
    }

    #[test]
    fn rounding_and_sign_of_a_complex_value() {
        let z = |re, im| Value::Num(Matrix::scalar(Cx::new(re, im)));
        let of = |vs: Vec<Value>| vs[0].as_matrix().unwrap().as_scalar().unwrap();
        // Each part is rounded on its own, as in MATLAB.
        assert_eq!(of(call("floor", vec![z(2.5, -3.5)])), Cx::new(2.0, -4.0));
        assert_eq!(of(call("ceil", vec![z(2.5, -3.5)])), Cx::new(3.0, -3.0));
        assert_eq!(of(call("round", vec![z(2.5, -3.5)])), Cx::new(3.0, -4.0));
        assert_eq!(of(call("fix", vec![z(2.5, -3.5)])), Cx::new(2.0, -3.0));
        assert_eq!(of(call("floor", vec![z(2.0, -3.0)])), Cx::new(2.0, -3.0));
        // sign(z) = z / abs(z), and 0 for 0.
        assert_eq!(of(call("sign", vec![z(3.0, -4.0)])), Cx::new(0.6, -0.8));
        assert_eq!(of(call("sign", vec![z(0.0, 0.0)])), Cx::ZERO);
        assert_eq!(of(call("sign", vec![z(-2.0, 0.0)])), Cx::real(-1.0));
        // sign(NaN) is NaN, as in MATLAB.
        assert!(of(call("sign", vec![z(f64::NAN, 0.0)])).re.is_nan());
    }

    #[test]
    fn a_complex_argument_to_a_real_only_builtin_raises() {
        let mut h = TestHost::new();
        let z = Value::Num(Matrix::row(vec![Cx::real(1.0), Cx::new(2.0, -3.0)]));
        let err = call_builtin(&mut h, "sin", vec![z], 1).unwrap_err();
        assert_eq!(err, "`sin` of a complex argument is not supported");
        let err = call_builtin(&mut h, "abs", vec![], 1).unwrap_err();
        assert_eq!(err, "abs: expected 1 argument(s)");
    }

    #[test]
    fn sum_and_mean() {
        let v = Value::Num(Matrix::row_from_f64(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(scalar_of(call("sum", vec![v.clone()])), 10.0);
        assert_eq!(scalar_of(call("mean", vec![v])), 2.5);
    }

    #[test]
    fn mean_of_an_empty_array_is_nan_and_its_norm_positive_zero() {
        let empty = Value::Num(Matrix::new(1, 0, Vec::new()));
        assert!(scalar_of(call("mean", vec![empty.clone()])).is_nan());
        let norm = scalar_of(call("norm", vec![empty]));
        assert_eq!(norm.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn min_max_with_index() {
        let mut h = TestHost::new();
        let v = Value::Num(Matrix::row_from_f64(&[3.0, 1.0, 2.0]));
        let outs = call_builtin(&mut h, "min", vec![v], 2).unwrap();
        assert_eq!(outs[0].as_matrix().unwrap().as_real_scalar().unwrap(), 1.0);
        assert_eq!(outs[1].as_matrix().unwrap().as_real_scalar().unwrap(), 2.0);
    }

    #[test]
    fn max_elementwise_two_args() {
        let a = Value::Num(Matrix::row_from_f64(&[1.0, 5.0]));
        let b = Value::Num(Matrix::row_from_f64(&[3.0, 2.0]));
        let r = call("max", vec![a, b]);
        let m = r[0].as_matrix().unwrap();
        assert_eq!(m.lin(0).re, 3.0);
        assert_eq!(m.lin(1).re, 5.0);
    }

    #[test]
    fn two_argument_min_max_skip_nan() {
        let nan = Value::Num(Matrix::from_f64(f64::NAN));
        let k = Value::Num(Matrix::from_f64(2.0));
        for name in ["min", "max"] {
            for args in [vec![k.clone(), nan.clone()], vec![nan.clone(), k.clone()]] {
                assert_eq!(scalar_of(call(name, args)), 2.0, "{name}");
            }
            let both = scalar_of(call(name, vec![nan.clone(), nan.clone()]));
            assert!(both.is_nan(), "{name} of two NaNs");
        }
        let a = Value::Num(Matrix::row_from_f64(&[1.0, f64::NAN, 3.0]));
        let r = call("min", vec![a, Value::Num(Matrix::from_f64(2.0))]);
        let m = r[0].as_matrix().unwrap();
        let got: Vec<f64> = m.data().iter().map(|z| z.re).collect();
        assert_eq!(got, [1.0, 2.0, 2.0]);
    }

    #[test]
    fn complex_builtins() {
        let z = Value::Num(Matrix::scalar(Cx::new(3.0, 4.0)));
        assert_eq!(scalar_of(call("abs", vec![z.clone()])), 5.0);
        assert_eq!(scalar_of(call("real", vec![z.clone()])), 3.0);
        assert_eq!(scalar_of(call("imag", vec![z.clone()])), 4.0);
        let c = call("conj", vec![z]);
        assert_eq!(
            c[0].as_matrix().unwrap().as_scalar().unwrap(),
            Cx::new(3.0, -4.0)
        );
    }

    #[test]
    fn mod_follows_matlab_sign() {
        assert_eq!(
            scalar_of(call("mod", vec![Value::scalar(-1.0), Value::scalar(3.0)])),
            2.0
        );
        assert_eq!(
            scalar_of(call("rem", vec![Value::scalar(-1.0), Value::scalar(3.0)])),
            -1.0
        );
    }

    #[test]
    fn find_returns_one_based() {
        let v = Value::Num(Matrix::row_from_f64(&[0.0, 7.0, 0.0, 3.0]));
        let r = call("find", vec![v]);
        let m = r[0].as_matrix().unwrap();
        assert_eq!(m.lin(0).re, 2.0);
        assert_eq!(m.lin(1).re, 4.0);
    }

    #[test]
    fn dot_conjugates_first_argument() {
        let a = Value::Num(Matrix::row(vec![Cx::new(0.0, 1.0)]));
        let b = Value::Num(Matrix::row(vec![Cx::new(0.0, 1.0)]));
        let r = call("dot", vec![a, b]);
        assert_eq!(r[0].as_matrix().unwrap().as_scalar().unwrap(), Cx::ONE);
    }

    #[test]
    fn linspace_endpoints() {
        let r = call(
            "linspace",
            vec![Value::scalar(0.0), Value::scalar(1.0), Value::scalar(5.0)],
        );
        let m = r[0].as_matrix().unwrap();
        assert_eq!(m.numel(), 5);
        assert_eq!(m.lin(0).re, 0.0);
        assert_eq!(m.lin(4).re, 1.0);
    }

    #[test]
    fn fprintf_formatting() {
        let mut h = TestHost::new();
        call_builtin(
            &mut h,
            "fprintf",
            vec![
                Value::Str("x=%d y=%.2f %s\\n".to_string()),
                Value::scalar(42.0),
                Value::scalar(2.5),
                Value::Str("ok".to_string()),
            ],
            0,
        )
        .unwrap();
        assert_eq!(h.out, "x=42 y=2.50 ok\n");
    }

    #[test]
    fn fprintf_recycles_format() {
        let mut h = TestHost::new();
        call_builtin(
            &mut h,
            "fprintf",
            vec![
                Value::Str("%d,".to_string()),
                Value::Num(Matrix::row_from_f64(&[1.0, 2.0, 3.0])),
            ],
            0,
        )
        .unwrap();
        assert_eq!(h.out, "1,2,3,");
    }

    #[test]
    fn error_builtin_propagates() {
        let mut h = TestHost::new();
        let r = call_builtin(
            &mut h,
            "error",
            vec![Value::Str("bad thing %d".to_string()), Value::scalar(7.0)],
            0,
        );
        assert_eq!(r.unwrap_err(), "bad thing 7");
    }

    #[test]
    fn rng_makes_rand_deterministic() {
        let mut h = TestHost::new();
        call_builtin(&mut h, "rng", vec![Value::scalar(123.0)], 0).unwrap();
        let a = call_builtin(&mut h, "rand", vec![], 1).unwrap();
        call_builtin(&mut h, "rng", vec![Value::scalar(123.0)], 0).unwrap();
        let b = call_builtin(&mut h, "rand", vec![], 1).unwrap();
        assert_eq!(
            a[0].as_matrix().unwrap().as_scalar().unwrap(),
            b[0].as_matrix().unwrap().as_scalar().unwrap()
        );
    }

    #[test]
    fn repmat_tiles() {
        let r = call(
            "repmat",
            vec![
                Value::Num(Matrix::row_from_f64(&[1.0, 2.0])),
                Value::scalar(2.0),
                Value::scalar(2.0),
            ],
        );
        let m = r[0].as_matrix().unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 4));
        assert_eq!(m.at(1, 3).re, 2.0);
    }

    #[test]
    fn fliplr_reverses_columns() {
        let r = call(
            "fliplr",
            vec![Value::Num(Matrix::row_from_f64(&[1.0, 2.0, 3.0]))],
        );
        let m = r[0].as_matrix().unwrap();
        assert_eq!(m.lin(0).re, 3.0);
        assert_eq!(m.lin(2).re, 1.0);
    }
}

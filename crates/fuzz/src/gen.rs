//! Structured random-program generation.
//!
//! Where the original fuzzer rendered MATLAB text directly, cases here
//! are *structured*: a [`Case`] is a list of typed statements plus a
//! tail, rendered to source on demand. The structure is what makes the
//! rest of the harness possible — grammar coverage is read off the
//! statement kinds, and the delta-debugging shrinker drops/shrinks
//! statements while [`Case::validate`] guarantees every candidate is
//! still a well-typed program (legality never depends on luck).
//!
//! Every generated program has the fixed signature
//! `function y = fz(a, b, k)` with `a`, `b` real 1×n vectors and `k` a
//! real scalar. Faults are injected only through runtime *values* (`k`
//! as an out-of-bounds index) or an explicit spin loop.

use crate::rng::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Entry-function name of every generated program.
pub const ENTRY: &str = "fz";

/// Binary arithmetic operator (element-wise on vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `.*` on vectors, `*` on scalars.
    Mul,
}

impl BinOp {
    fn vec_token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => ".*",
        }
    }

    fn scalar_token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
        }
    }
}

/// Element-wise builtin applied to a whole vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFn {
    /// `conj` — preserves complexness.
    Conj,
    /// `abs` — always real.
    Abs,
    /// `real` — always real.
    Real,
    /// `imag` — always real.
    Imag,
}

impl MapFn {
    /// The MATLAB builtin name.
    pub fn name(self) -> &'static str {
        match self {
            MapFn::Conj => "conj",
            MapFn::Abs => "abs",
            MapFn::Real => "real",
            MapFn::Imag => "imag",
        }
    }
}

/// One statement of a generated program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = a <op> b;` over two equal-length vectors.
    VecBin {
        dst: String,
        a: String,
        op: BinOp,
        b: String,
    },
    /// `dst = s * v;` — scalar broadcast.
    Broadcast { dst: String, s: String, v: String },
    /// `dst = v .^ p;` with `p` ∈ {2, 3} over a real vector (the
    /// vectorizer strength-reduces these into `vmul` chains).
    Pow { dst: String, v: String, p: u32 },
    /// `dst = sum(v);` — reduction to a scalar.
    Sum { dst: String, v: String },
    /// `dst = a <op> b;` over two scalars.
    ScalarBin {
        dst: String,
        a: String,
        op: BinOp,
        b: String,
    },
    /// `dst = v(idx);` — compile-time-constant, always in-bounds read.
    ConstIndex { dst: String, v: String, idx: usize },
    /// `dst = v(lo:hi);` or `dst = v(lo:step:hi);` — (strided) slice.
    Slice {
        dst: String,
        v: String,
        lo: usize,
        step: usize,
        hi: usize,
    },
    /// `dst = re + 1i * im;` — builds a complex vector from two real
    /// equal-length ones.
    MakeComplex { dst: String, re: String, im: String },
    /// `dst = f(v);` — element-wise builtin over a vector.
    Map { dst: String, v: String, f: MapFn },
    /// `dst = zeros(1, len(v)); for i = <range> dst(i) = s * v(i); end`
    /// — an explicit scaling loop, forward or reverse.
    Loop {
        dst: String,
        s: String,
        v: String,
        rev: bool,
    },
}

impl Stmt {
    /// The variable this statement defines.
    pub fn dst(&self) -> &str {
        match self {
            Stmt::VecBin { dst, .. }
            | Stmt::Broadcast { dst, .. }
            | Stmt::Pow { dst, .. }
            | Stmt::Sum { dst, .. }
            | Stmt::ScalarBin { dst, .. }
            | Stmt::ConstIndex { dst, .. }
            | Stmt::Slice { dst, .. }
            | Stmt::MakeComplex { dst, .. }
            | Stmt::Map { dst, .. }
            | Stmt::Loop { dst, .. } => dst,
        }
    }

    /// The variables this statement reads.
    pub fn uses(&self) -> Vec<&str> {
        match self {
            Stmt::VecBin { a, b, .. } | Stmt::ScalarBin { a, b, .. } => vec![a, b],
            Stmt::Broadcast { s, v, .. } | Stmt::Loop { s, v, .. } => vec![s, v],
            Stmt::Pow { v, .. }
            | Stmt::Sum { v, .. }
            | Stmt::ConstIndex { v, .. }
            | Stmt::Slice { v, .. }
            | Stmt::Map { v, .. } => vec![v],
            Stmt::MakeComplex { re, im, .. } => vec![re, im],
        }
    }
}

/// How a generated program ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Tail {
    /// `y = v;`
    Return { v: String },
    /// `tr = v(k); y = tr * v;` — a read indexed by the runtime input
    /// `k`, in bounds or past the end depending on `oob`.
    DynRead { v: String, oob: bool },
    /// `q = 0; while 1 q = q + 1; end y = q * v;` — burns fuel forever.
    Spin { v: String },
}

impl Tail {
    /// The vector the tail reads.
    pub fn v(&self) -> &str {
        match self {
            Tail::Return { v } | Tail::DynRead { v, .. } | Tail::Spin { v } => v,
        }
    }
}

/// How a generated program is expected to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Terminates normally with a vector output.
    None = 0,
    /// Reads past the end of a vector via the runtime input `k`.
    OobRead = 1,
    /// Spins until the fuel meter trips.
    Spin = 2,
}

impl Fault {
    /// Stable tag used in the corpus file header.
    pub fn tag(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::OobRead => "oob",
            Fault::Spin => "spin",
        }
    }

    /// Parses a corpus-header tag.
    pub fn from_tag(tag: &str) -> Option<Fault> {
        match tag {
            "none" => Some(Fault::None),
            "oob" => Some(Fault::OobRead),
            "spin" => Some(Fault::Spin),
            _ => None,
        }
    }
}

/// Inferred shape/realness of one vector variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecInfo {
    /// Element count.
    pub len: usize,
    /// Whether the vector may carry imaginary parts.
    pub complex: bool,
}

/// The inferred environment of a validated case: every vector's length
/// and realness, every scalar's realness.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Vector variables.
    pub vecs: HashMap<String, VecInfo>,
    /// Scalar variables (`true` = may be complex).
    pub scalars: HashMap<String, bool>,
}

/// A structured random program plus the runtime values it is fed.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Input vector length (both `a` and `b`).
    pub n: usize,
    /// Value of the scalar input `k`.
    pub k: f64,
    /// Seed for the deterministic stimulus (`a`, `b` contents).
    pub stim_seed: u64,
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
    /// How the program ends.
    pub tail: Tail,
}

impl Case {
    /// The expected outcome class.
    pub fn fault(&self) -> Fault {
        match &self.tail {
            Tail::Return { .. } => Fault::None,
            Tail::DynRead { oob, .. } => {
                if *oob {
                    Fault::OobRead
                } else {
                    Fault::None
                }
            }
            Tail::Spin { .. } => Fault::Spin,
        }
    }

    /// Type/shape-checks the case, returning the inferred environment.
    ///
    /// This mirrors exactly the invariants the generator maintains, so
    /// the shrinker can propose arbitrary mutations and keep only the
    /// well-typed ones — a rejected candidate is never shown to the
    /// engines.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<Env, String> {
        let env = self.infer_env()?;
        let vend = env
            .vecs
            .get(self.tail.v())
            .ok_or_else(|| format!("`{}` is not a defined vector", self.tail.v()))?;
        if let Tail::DynRead { oob, .. } = &self.tail {
            if self.k.fract() != 0.0 || !self.k.is_finite() {
                return Err(format!("dynamic index k = {} must be integral", self.k));
            }
            let k = self.k as i64;
            let in_bounds = (1..=vend.len as i64).contains(&k);
            if *oob && in_bounds {
                return Err(format!("k = {k} is in bounds for an OOB case"));
            }
            if !*oob && !in_bounds {
                return Err(format!("k = {k} is out of bounds for a clean case"));
            }
        }
        Ok(env)
    }

    /// Infers every statement's shape/realness without checking the
    /// tail's runtime index (the shrinker adjusts `k` *after* a
    /// dimension shrink, using the environment this returns).
    ///
    /// # Errors
    ///
    /// Describes the first violated statement invariant.
    pub fn infer_env(&self) -> Result<Env, String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        let mut env = Env::default();
        env.vecs.insert(
            "a".into(),
            VecInfo {
                len: self.n,
                complex: false,
            },
        );
        env.vecs.insert(
            "b".into(),
            VecInfo {
                len: self.n,
                complex: false,
            },
        );
        env.scalars.insert("k".into(), false);

        let fresh = |env: &Env, name: &str| -> Result<(), String> {
            if env.vecs.contains_key(name) || env.scalars.contains_key(name) {
                return Err(format!("redefinition of `{name}`"));
            }
            Ok(())
        };
        let vec_of = |env: &Env, name: &str| -> Result<VecInfo, String> {
            env.vecs
                .get(name)
                .copied()
                .ok_or_else(|| format!("`{name}` is not a defined vector"))
        };
        let scalar_of = |env: &Env, name: &str| -> Result<bool, String> {
            env.scalars
                .get(name)
                .copied()
                .ok_or_else(|| format!("`{name}` is not a defined scalar"))
        };

        for stmt in &self.stmts {
            fresh(&env, stmt.dst())?;
            match stmt {
                Stmt::VecBin { dst, a, b, .. } => {
                    let (ia, ib) = (vec_of(&env, a)?, vec_of(&env, b)?);
                    if ia.len != ib.len {
                        return Err(format!("`{a}` and `{b}` have different lengths"));
                    }
                    env.vecs.insert(
                        dst.clone(),
                        VecInfo {
                            len: ia.len,
                            complex: ia.complex || ib.complex,
                        },
                    );
                }
                Stmt::Broadcast { dst, s, v } => {
                    let (cs, iv) = (scalar_of(&env, s)?, vec_of(&env, v)?);
                    env.vecs.insert(
                        dst.clone(),
                        VecInfo {
                            len: iv.len,
                            complex: cs || iv.complex,
                        },
                    );
                }
                Stmt::Pow { dst, v, p } => {
                    let iv = vec_of(&env, v)?;
                    if iv.complex {
                        return Err(format!("`.^` operand `{v}` must be real"));
                    }
                    if !(2..=3).contains(p) {
                        return Err(format!("power {p} outside 2..=3"));
                    }
                    env.vecs.insert(dst.clone(), iv);
                }
                Stmt::Sum { dst, v } => {
                    let iv = vec_of(&env, v)?;
                    env.scalars.insert(dst.clone(), iv.complex);
                }
                Stmt::ScalarBin { dst, a, b, .. } => {
                    let (ca, cb) = (scalar_of(&env, a)?, scalar_of(&env, b)?);
                    env.scalars.insert(dst.clone(), ca || cb);
                }
                Stmt::ConstIndex { dst, v, idx } => {
                    let iv = vec_of(&env, v)?;
                    if !(1..=iv.len).contains(idx) {
                        return Err(format!("index {idx} outside 1..={}", iv.len));
                    }
                    env.scalars.insert(dst.clone(), iv.complex);
                }
                Stmt::Slice {
                    dst,
                    v,
                    lo,
                    step,
                    hi,
                } => {
                    let iv = vec_of(&env, v)?;
                    if *step == 0 {
                        return Err("slice step must be positive".into());
                    }
                    if !(1..=iv.len).contains(lo) || !(*lo..=iv.len).contains(hi) {
                        return Err(format!("slice {lo}:{step}:{hi} outside 1..={}", iv.len));
                    }
                    env.vecs.insert(
                        dst.clone(),
                        VecInfo {
                            len: (hi - lo) / step + 1,
                            complex: iv.complex,
                        },
                    );
                }
                Stmt::MakeComplex { dst, re, im } => {
                    let (ire, iim) = (vec_of(&env, re)?, vec_of(&env, im)?);
                    if ire.complex || iim.complex {
                        return Err("MakeComplex operands must be real".into());
                    }
                    if ire.len != iim.len {
                        return Err(format!("`{re}` and `{im}` have different lengths"));
                    }
                    env.vecs.insert(
                        dst.clone(),
                        VecInfo {
                            len: ire.len,
                            complex: true,
                        },
                    );
                }
                Stmt::Map { dst, v, f } => {
                    let iv = vec_of(&env, v)?;
                    let complex = match f {
                        MapFn::Conj => iv.complex,
                        MapFn::Abs | MapFn::Real | MapFn::Imag => false,
                    };
                    env.vecs.insert(
                        dst.clone(),
                        VecInfo {
                            len: iv.len,
                            complex,
                        },
                    );
                }
                Stmt::Loop { dst, s, v, .. } => {
                    let (cs, iv) = (scalar_of(&env, s)?, vec_of(&env, v)?);
                    if cs || iv.complex {
                        // The loop body writes into a `zeros`-initialized
                        // (real) array; keep the written values real.
                        return Err("loop operands must be real".into());
                    }
                    env.vecs.insert(dst.clone(), iv);
                }
            }
        }

        Ok(env)
    }

    /// Renders the case to MATLAB source.
    ///
    /// # Panics
    ///
    /// Panics on an invalid case — render only validated cases.
    pub fn render(&self) -> String {
        let env = self.validate().expect("render requires a validated case");
        let mut body = String::new();
        for stmt in &self.stmts {
            match stmt {
                Stmt::VecBin { dst, a, op, b } => {
                    let _ = writeln!(body, "{dst} = {a} {} {b};", op.vec_token());
                }
                Stmt::Broadcast { dst, s, v } => {
                    let _ = writeln!(body, "{dst} = {s} * {v};");
                }
                Stmt::Pow { dst, v, p } => {
                    let _ = writeln!(body, "{dst} = {v} .^ {p};");
                }
                Stmt::Sum { dst, v } => {
                    let _ = writeln!(body, "{dst} = sum({v});");
                }
                Stmt::ScalarBin { dst, a, op, b } => {
                    let _ = writeln!(body, "{dst} = {a} {} {b};", op.scalar_token());
                }
                Stmt::ConstIndex { dst, v, idx } => {
                    let _ = writeln!(body, "{dst} = {v}({idx});");
                }
                Stmt::Slice {
                    dst,
                    v,
                    lo,
                    step,
                    hi,
                } => {
                    if *step == 1 {
                        let _ = writeln!(body, "{dst} = {v}({lo}:{hi});");
                    } else {
                        let _ = writeln!(body, "{dst} = {v}({lo}:{step}:{hi});");
                    }
                }
                Stmt::MakeComplex { dst, re, im } => {
                    let _ = writeln!(body, "{dst} = {re} + 1i * {im};");
                }
                Stmt::Map { dst, v, f } => {
                    let _ = writeln!(body, "{dst} = {}({v});", f.name());
                }
                Stmt::Loop { dst, s, v, rev } => {
                    let len = env.vecs[v].len;
                    let range = if *rev {
                        format!("{len}:-1:1")
                    } else {
                        format!("1:{len}")
                    };
                    let _ = writeln!(
                        body,
                        "{dst} = zeros(1, {len});\nfor i = {range}\n{dst}(i) = {s} * {v}(i);\nend"
                    );
                }
            }
        }
        match &self.tail {
            Tail::Return { v } => {
                let _ = writeln!(body, "y = {v};");
            }
            Tail::DynRead { v, .. } => {
                let _ = writeln!(body, "tr = {v}(k);\ny = tr * {v};");
            }
            Tail::Spin { v } => {
                let _ = writeln!(body, "q = 0;\nwhile 1\nq = q + 1;\nend\ny = q * {v};");
            }
        }
        format!("function y = {ENTRY}(a, b, k)\n{body}end\n")
    }
}

/// A case reduced to what the engines need: rendered source plus runtime
/// values. This is the form regression-corpus files round-trip through —
/// replaying a committed repro needs no statement structure, only the
/// program text and its stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCase {
    /// MATLAB source of the whole program.
    pub src: String,
    /// Input vector length (both `a` and `b`).
    pub n: usize,
    /// Value of the scalar input `k`.
    pub k: f64,
    /// Seed for the deterministic stimulus.
    pub stim_seed: u64,
    /// Expected outcome class.
    pub fault: Fault,
}

impl Case {
    /// Renders the case into its engine-facing form.
    pub fn to_source(&self) -> SourceCase {
        SourceCase {
            src: self.render(),
            n: self.n,
            k: self.k,
            stim_seed: self.stim_seed,
            fault: self.fault(),
        }
    }
}

/// Generates one well-typed random case. Every construct emitted here is
/// supported by every execution leg.
pub fn gen_case(rng: &mut Rng) -> Case {
    let n = 4 + rng.below(13) as usize; // 4..=16
                                        // Pools carry (name, len, complex) so every pick is type-correct by
                                        // construction; `validate()` re-checks the same invariants.
    let mut vecs: Vec<(String, usize, bool)> = vec![("a".into(), n, false), ("b".into(), n, false)];
    let mut scalars: Vec<(String, bool)> = vec![("k".into(), false)];
    let mut stmts = Vec::new();

    let nstmt = 2 + rng.below(7);
    for id in 0..nstmt {
        match rng.below(12) {
            0 | 1 => {
                let (a, len, ca) = rng.pick(&vecs).clone();
                let same: Vec<_> = vecs.iter().filter(|(_, l, _)| *l == len).cloned().collect();
                let (b, _, cb) = rng.pick(&same).clone();
                let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                let dst = format!("w{id}");
                stmts.push(Stmt::VecBin {
                    dst: dst.clone(),
                    a,
                    op,
                    b,
                });
                vecs.push((dst, len, ca || cb));
            }
            2 => {
                let (s, cs) = rng.pick(&scalars).clone();
                let (v, len, cv) = rng.pick(&vecs).clone();
                let dst = format!("w{id}");
                stmts.push(Stmt::Broadcast {
                    dst: dst.clone(),
                    s,
                    v,
                });
                vecs.push((dst, len, cs || cv));
            }
            3 => {
                let real: Vec<_> = vecs.iter().filter(|(_, _, c)| !c).cloned().collect();
                let (v, len, _) = rng.pick(&real).clone();
                let p = 2 + rng.below(2) as u32;
                let dst = format!("w{id}");
                stmts.push(Stmt::Pow {
                    dst: dst.clone(),
                    v,
                    p,
                });
                vecs.push((dst, len, false));
            }
            4 => {
                let (v, _, cv) = rng.pick(&vecs).clone();
                let dst = format!("t{id}");
                stmts.push(Stmt::Sum {
                    dst: dst.clone(),
                    v,
                });
                scalars.push((dst, cv));
            }
            5 => {
                let (a, ca) = rng.pick(&scalars).clone();
                let (b, cb) = rng.pick(&scalars).clone();
                let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                let dst = format!("t{id}");
                stmts.push(Stmt::ScalarBin {
                    dst: dst.clone(),
                    a,
                    op,
                    b,
                });
                scalars.push((dst, ca || cb));
            }
            6 => {
                let (v, len, cv) = rng.pick(&vecs).clone();
                let idx = 1 + rng.below(len as u64) as usize;
                let dst = format!("t{id}");
                stmts.push(Stmt::ConstIndex {
                    dst: dst.clone(),
                    v,
                    idx,
                });
                scalars.push((dst, cv));
            }
            7 => {
                let (v, len, cv) = rng.pick(&vecs).clone();
                let lo = 1 + rng.below(len as u64) as usize;
                let hi = lo + rng.below((len - lo + 1) as u64) as usize;
                let step = 1 + rng.below(3) as usize;
                let dst = format!("w{id}");
                stmts.push(Stmt::Slice {
                    dst: dst.clone(),
                    v,
                    lo,
                    step,
                    hi,
                });
                vecs.push((dst, (hi - lo) / step + 1, cv));
            }
            8 => {
                let real: Vec<_> = vecs.iter().filter(|(_, _, c)| !c).cloned().collect();
                let (re, len, _) = rng.pick(&real).clone();
                let same: Vec<_> = real.iter().filter(|(_, l, _)| *l == len).cloned().collect();
                let (im, _, _) = rng.pick(&same).clone();
                let dst = format!("w{id}");
                stmts.push(Stmt::MakeComplex {
                    dst: dst.clone(),
                    re,
                    im,
                });
                vecs.push((dst, len, true));
            }
            9 => {
                let (v, len, cv) = rng.pick(&vecs).clone();
                let f = *rng.pick(&[MapFn::Conj, MapFn::Abs, MapFn::Real, MapFn::Imag]);
                let dst = format!("w{id}");
                stmts.push(Stmt::Map {
                    dst: dst.clone(),
                    v,
                    f,
                });
                let complex = matches!(f, MapFn::Conj) && cv;
                vecs.push((dst, len, complex));
            }
            _ => {
                let real_s: Vec<_> = scalars.iter().filter(|(_, c)| !c).cloned().collect();
                let (s, _) = rng.pick(&real_s).clone();
                let real_v: Vec<_> = vecs.iter().filter(|(_, _, c)| !c).cloned().collect();
                let (v, len, _) = rng.pick(&real_v).clone();
                let rev = rng.below(2) == 1;
                let dst = format!("w{id}");
                stmts.push(Stmt::Loop {
                    dst: dst.clone(),
                    s,
                    v,
                    rev,
                });
                vecs.push((dst, len, false));
            }
        }
    }

    let (vend, vend_len, _) = rng.pick(&vecs).clone();
    let (tail, k) = match rng.below(10) {
        0..=4 => (Tail::Return { v: vend }, rng.f64()),
        5..=7 => (
            Tail::DynRead {
                v: vend,
                oob: false,
            },
            (1 + rng.below(vend_len as u64)) as f64,
        ),
        8 => (
            Tail::DynRead { v: vend, oob: true },
            (vend_len as u64 + 1 + rng.below(3)) as f64,
        ),
        _ => (Tail::Spin { v: vend }, rng.f64()),
    };
    let stim_seed = rng.next();

    let case = Case {
        n,
        k,
        stim_seed,
        stmts,
        tail,
    };
    debug_assert!(
        case.validate().is_ok(),
        "generator emitted an invalid case: {:?}\n{:?}",
        case.validate(),
        case
    );
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_validate_and_render() {
        let mut rng = Rng::new(0xF00D);
        for _ in 0..500 {
            let case = gen_case(&mut rng);
            let env = case.validate().expect("generated case is well-typed");
            let src = case.render();
            assert!(src.starts_with("function y = fz(a, b, k)"));
            assert!(env.vecs.contains_key(case.tail.v()));
        }
    }

    #[test]
    fn all_faults_and_constructs_are_reachable() {
        let mut rng = Rng::new(7);
        let mut faults = [0u32; 3];
        for _ in 0..400 {
            let case = gen_case(&mut rng);
            faults[case.fault() as usize] += 1;
        }
        assert!(faults.iter().all(|&c| c > 0), "fault mix: {faults:?}");
    }

    #[test]
    fn validate_rejects_broken_cases() {
        let mut rng = Rng::new(3);
        let case = gen_case(&mut rng);
        // An undefined operand.
        let mut broken = case.clone();
        broken.stmts.push(Stmt::Sum {
            dst: "tbad".into(),
            v: "nosuch".into(),
        });
        assert!(broken.validate().is_err());
        // A redefinition.
        let mut broken = case.clone();
        broken.stmts.push(Stmt::Sum {
            dst: "a".into(),
            v: "b".into(),
        });
        assert!(broken.validate().is_err());
        // An out-of-range constant index.
        let mut broken = case;
        broken.stmts.insert(
            0,
            Stmt::ConstIndex {
                dst: "tbad".into(),
                v: "a".into(),
                idx: 999,
            },
        );
        assert!(broken.validate().is_err());
    }

    #[test]
    fn oob_k_consistency_is_enforced() {
        let case = Case {
            n: 4,
            k: 2.0,
            stim_seed: 1,
            stmts: vec![],
            tail: Tail::DynRead {
                v: "a".into(),
                oob: true,
            },
        };
        assert!(case.validate().is_err(), "k=2 is in bounds, not OOB");
        let case = Case { k: 5.0, ..case };
        assert!(case.validate().is_ok());
    }
}

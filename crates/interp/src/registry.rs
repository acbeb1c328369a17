//! The builtin registry: each constant and element-wise builtin declared
//! once, for the interpreter (which applies it through `Matrix::map` and
//! `zip`), sema (which types it and re-exports the registry), the
//! simulator, the vectorizer and the C backend (which spells each entry
//! in one function keyed by name).

use crate::cx::Cx;
use matic_isa::OpClass;

/// What an entry computes.
#[derive(Debug, Clone, Copy)]
pub enum Eval {
    /// A constant. It reads no argument and ignores any it is given.
    Const(Cx),
    /// A function of one element.
    Un(fn(Cx) -> Cx),
    /// A function of two elements; a scalar operand broadcasts.
    Bin(fn(Cx, Cx) -> Cx),
}

/// The class of an entry's result, which sema maps to its own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultClass {
    /// Always real.
    Real,
    /// Always complex.
    Complex,
    /// The argument's class, or the arithmetic join of both arguments'.
    Same,
    /// Complex when the argument is complex.
    ComplexIfComplex,
    /// Complex when the argument is or may be complex; a real argument is
    /// taken to stay real, as MATLAB Coder takes it.
    MayGoComplex,
}

/// One registry entry.
#[derive(Debug)]
pub struct Builtin {
    /// The MATLAB name.
    pub name: &'static str,
    /// The value; its variant fixes the arity.
    pub eval: Eval,
    /// The class of the result.
    pub class: ResultClass,
    /// A complex argument is an error: sema rejects one typed complex and
    /// the interpreter raises [`complex_argument`] on one at run time.
    pub real_only: bool,
    /// The class the simulator charges per element, if any.
    pub charge: Option<OpClass>,
    /// A vector lane unit applies it element-wise (a `MapBuiltin` op).
    pub lane: bool,
    /// The name's [`key`], which [`lookup`] searches by.
    key: u64,
}

impl Builtin {
    /// The number of arguments: 0 for a constant.
    pub fn arity(&self) -> usize {
        match self.eval {
            Eval::Const(_) => 0,
            Eval::Un(_) => 1,
            Eval::Bin(_) => 2,
        }
    }

    /// Whether a call with `nargs` arguments is this entry: a constant
    /// takes any, a function its arity (`min(x)` reduces instead).
    fn accepts(&self, nargs: usize) -> bool {
        self.arity() == 0 || self.arity() == nargs
    }
}

/// The entry named `name`, whatever the argument count. A name packs
/// into one integer key, so the search compares integers, not strings.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    let i = BUILTINS.binary_search_by_key(&key(name), |b| b.key).ok()?;
    Some(&BUILTINS[i]).filter(|b| b.name == name)
}

/// The first eight bytes of a name, big-endian and zero-padded, so keys
/// sort as names do (no two entries share their first eight).
const fn key(name: &str) -> u64 {
    let (b, mut k, mut i) = (name.as_bytes(), 0u64, 0);
    while i < 8 {
        k = k << 8 | if i < b.len() { b[i] as u64 } else { 0 };
        i += 1;
    }
    k
}

/// The entry a call of `name` with `nargs` arguments applies.
pub fn lookup_call(name: &str, nargs: usize) -> Option<&'static Builtin> {
    lookup(name).filter(|b| b.accepts(nargs))
}

/// The error of a complex argument to a `real_only` entry, the same from
/// sema and the interpreter.
pub fn complex_argument(name: &str) -> String {
    format!("`{name}` of a complex argument is not supported")
}

#[rustfmt::skip]
const fn entry(name: &'static str, eval: Eval, class: ResultClass, real_only: bool,
               charge: OpClass, lane: bool) -> Builtin {
    Builtin { name, eval, class, real_only, charge: Some(charge), lane, key: key(name) }
}

#[rustfmt::skip]
const fn constant(name: &'static str, z: Cx) -> Builtin {
    let class = if z.im == 0.0 { ResultClass::Real } else { ResultClass::Complex };
    let (charge, lane, key) = (None, false, key(name));
    Builtin { name, eval: Eval::Const(z), class, real_only: false, charge, lane, key }
}

/// Every entry, sorted by name (byte order) for [`lookup`].
#[rustfmt::skip]
pub static BUILTINS: [Builtin; 35] = {
    use Eval::{Bin, Un};
    use OpClass::{ComplexConj as Conj, ScalarAlu as Alu, ScalarDiv as Div};
    use OpClass::{ScalarSqrt as Sqrt, ScalarTrans as Trans};
    use ResultClass::{Complex, ComplexIfComplex as CxIfCx, MayGoComplex as MayCx, Real, Same};
    let inf = Cx::real(f64::INFINITY);
    let nan = Cx::real(f64::NAN);
    [
        //     name      value                                 class    real_only charge lane
        constant("Inf", inf),
        constant("NaN", nan),
        entry("abs",     Un(|z| Cx::real(z.abs())),            Real,    false, Alu,   true),
        entry("acos",    Un(|z| Cx::real(z.re.acos())),        Real,    true,  Trans, false),
        entry("angle",   Un(|z| Cx::real(z.arg())),            Real,    false, Trans, false),
        entry("asin",    Un(|z| Cx::real(z.re.asin())),        Real,    true,  Trans, false),
        entry("atan",    Un(|z| Cx::real(z.re.atan())),        Real,    true,  Trans, false),
        entry("atan2",   Bin(|y, x| Cx::real(y.re.atan2(x.re))), Real,  true,  Trans, false),
        entry("ceil",    Un(|z| z.map_parts(f64::ceil)),       CxIfCx,  false, Alu,   true),
        entry("complex", Bin(|re, im| Cx::new(re.re, im.re)),  Complex, true,  Alu,   false),
        entry("conj",    Un(Cx::conj),                         Same,    false, Conj,  true),
        entry("cos",     Un(|z| Cx::real(z.re.cos())),         Real,    true,  Trans, false),
        constant("eps", Cx::real(f64::EPSILON)),
        entry("exp",     Un(Cx::exp),                           MayCx,   false, Trans, false),
        entry("fix",     Un(|z| z.map_parts(f64::trunc)),      CxIfCx,  false, Alu,   false),
        entry("floor",   Un(|z| z.map_parts(f64::floor)),      CxIfCx,  false, Alu,   true),
        constant("i", Cx::I),
        entry("imag",    Un(|z| Cx::real(z.im)),               Real,    false, Alu,   true),
        constant("inf", inf),
        constant("j", Cx::I),
        entry("log",     Un(Cx::ln),                            MayCx,   false, Trans, false),
        entry("log10",   Un(|z| Cx::real(z.re.log10())),       Real,    true,  Trans, false),
        entry("log2",    Un(|z| Cx::real(z.re.log2())),        Real,    true,  Trans, false),
        // Two-argument min/max: the operand with the smaller (larger) real
        // part, the second on a tie, the other one when a real part is NaN.
        entry("max", Bin(|a, b| if a.re > b.re || b.re.is_nan() { a } else { b }), Same, false, Alu, false),
        entry("min", Bin(|a, b| if a.re < b.re || b.re.is_nan() { a } else { b }), Same, false, Alu, false),
        // mod takes the divisor's sign and mod(x, 0) is x; rem takes the
        // dividend's and rem(x, 0) is NaN.
        entry("mod", Bin(|x, y| Cx::real(if y.re == 0.0 { x.re } else { x.re - (x.re / y.re).floor() * y.re })),
              Real, true, Div, false),
        constant("nan", nan),
        constant("pi", Cx::real(std::f64::consts::PI)),
        entry("real",    Un(|z| Cx::real(z.re)),               Real,    false, Alu,   true),
        entry("rem", Bin(|x, y| Cx::real(if y.re == 0.0 { f64::NAN } else { x.re - (x.re / y.re).trunc() * y.re })),
              Real, true, Div, false),
        // MATLAB rounds halves away from zero, like Rust's `round`.
        entry("round",   Un(|z| z.map_parts(f64::round)),      CxIfCx,  false, Alu,   true),
        entry("sign",    Un(Cx::sign),                         CxIfCx,  false, Alu,   false),
        entry("sin",     Un(|z| Cx::real(z.re.sin())),         Real,    true,  Trans, false),
        entry("sqrt",    Un(Cx::sqrt),                         MayCx,   false, Sqrt,  true),
        entry("tan",     Un(|z| Cx::real(z.re.tan())),         Real,    true,  Trans, false),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_sorted_and_unique() {
        for pair in BUILTINS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} before {}",
                pair[0].name,
                pair[1].name
            );
        }
        for b in &BUILTINS {
            assert!(std::ptr::eq(lookup(b.name).unwrap(), b), "{}", b.name);
        }
        assert!(lookup("sum").is_none());
    }

    #[test]
    fn a_constant_accepts_any_arguments_and_a_function_its_arity() {
        assert!(lookup_call("pi", 0).is_some() && lookup_call("pi", 2).is_some());
        assert!(lookup_call("min", 2).is_some());
        assert!(
            lookup_call("min", 1).is_none(),
            "one-argument min is the reduction"
        );
        assert!(lookup_call("abs", 2).is_none());
    }

    #[test]
    fn constants_carry_their_class() {
        assert_eq!(lookup("pi").unwrap().class, ResultClass::Real);
        assert_eq!(lookup("j").unwrap().class, ResultClass::Complex);
    }

    #[test]
    fn two_argument_min_max_skip_nan_and_pick_the_second_on_a_tie() {
        let nan = Cx::real(f64::NAN);
        let two = Cx::real(2.0);
        for name in ["min", "max"] {
            let Eval::Bin(pick) = lookup(name).unwrap().eval else {
                panic!("{name} is a function of two elements")
            };
            assert_eq!(pick(two, nan), two);
            assert_eq!(pick(nan, two), two);
            assert!(pick(nan, nan).re.is_nan());
            assert!(pick(Cx::real(0.0), Cx::real(-0.0)).re.is_sign_negative());
        }
    }
}

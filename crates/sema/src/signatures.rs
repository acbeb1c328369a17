//! Shape/class transfer functions for builtins — the signature database
//! sema consults when a call resolves to a MATLAB builtin. The constants
//! and element-wise builtins are typed by their registry entry's class
//! rule; the rest are listed here.

use crate::types::{Class, Dim, Shape, Ty};
use matic_interp::registry::{self, Builtin, ResultClass};

/// Infers the primary-output type of builtin `name` applied to `args`.
///
/// Returns `None` for unknown builtins. Unknown argument information
/// degrades gracefully toward [`Ty::unknown`]-ish results rather than
/// failing.
pub fn builtin_result(name: &str, args: &[Ty]) -> Option<Ty> {
    if let Some(b) = registry::lookup_call(name, args.len()) {
        return Some(registered_result(b, args));
    }
    let first = args.first().copied().unwrap_or_else(Ty::unknown);
    Some(match name {
        // Constructors whose shape comes from constant dimension args.
        "zeros" | "ones" | "eye" | "rand" | "randn" => {
            let shape = dims_shape(args);
            Ty::new(Class::Double, shape)
        }
        "linspace" => {
            let n = args.get(2).and_then(|t| t.const_usize());
            Ty::new(
                Class::Double,
                Shape::row(n.map_or(Dim::Unknown, Dim::Known)),
            )
        }

        // Shape queries.
        "length" | "numel" => Ty::double_scalar(),
        "size" => {
            if args.len() > 1 {
                Ty::double_scalar()
            } else {
                Ty::new(Class::Double, Shape::known(1, 2))
            }
        }
        "isempty" | "isreal" | "isscalar" | "isvector" => Ty::new(Class::Logical, Shape::scalar()),

        // Reductions (two-argument `min`/`max` are the registry's).
        "sum" | "prod" | "mean" | "min" | "max" => {
            Ty::new(reduce_class(first.class), reduce_shape(first.shape))
        }
        "any" | "all" => Ty::new(Class::Logical, reduce_shape(first.shape)),
        "cumsum" => Ty::new(reduce_class(first.class), first.shape),
        "dot" => {
            let second = args.get(1).copied().unwrap_or_else(Ty::unknown);
            Ty::new(first.class.arith(second.class), Shape::scalar())
        }
        "norm" => Ty::double_scalar(),
        "find" => Ty::new(Class::Double, Shape::unknown()),

        // Reshaping.
        "fliplr" | "flipud" => Ty::new(first.class, first.shape),
        "reshape" => {
            let r = args.get(1).and_then(|t| t.const_usize());
            let c = args.get(2).and_then(|t| t.const_usize());
            Ty::new(
                first.class,
                Shape {
                    rows: r.map_or(Dim::Unknown, Dim::Known),
                    cols: c.map_or(Dim::Unknown, Dim::Known),
                },
            )
        }
        "repmat" => Ty::new(first.class, Shape::unknown()),

        // I/O and misc.
        "disp" | "fprintf" | "rng" | "error" => Ty::new(Class::Unknown, Shape::unknown()),
        "sprintf" | "num2str" => Ty::new(Class::Char, Shape::row(Dim::Unknown)),
        "deal" | "feval" => Ty::unknown(),

        _ => return None,
    })
}

/// The type of a call of registry entry `b` on exactly its arguments: its
/// class rule on their classes, and their shape (broadcast for two).
fn registered_result(b: &Builtin, args: &[Ty]) -> Ty {
    let first = args.first().map_or(Class::Unknown, |t| t.class);
    let class = match b.class {
        ResultClass::Real => Class::Double,
        ResultClass::Complex => Class::Complex,
        ResultClass::Same => args.get(1).map_or(first, |t| first.arith(t.class)),
        ResultClass::ComplexIfComplex if first == Class::Complex => Class::Complex,
        ResultClass::MayGoComplex if matches!(first, Class::Complex | Class::Unknown) => {
            Class::Complex
        }
        ResultClass::ComplexIfComplex | ResultClass::MayGoComplex => Class::Double,
    };
    let shape = match (b.arity(), args) {
        (1, [a]) => a.shape,
        (2, [a, b]) => a.shape.broadcast(b.shape).unwrap_or_else(Shape::unknown),
        _ => Shape::scalar(),
    };
    Ty::new(class, shape)
}

/// Why a call of builtin `name` on `args` cannot compile, or `None`: an
/// argument typed complex to a real-only registry entry.
pub fn builtin_call_error(name: &str, args: &[Ty]) -> Option<String> {
    let b = registry::lookup_call(name, args.len())?;
    (b.real_only && args.iter().any(|t| t.class == Class::Complex))
        .then(|| registry::complex_argument(name))
}

/// Number of outputs sema should assume for a builtin in multi-assignment.
pub fn builtin_nargout_types(name: &str, args: &[Ty], nargout: usize) -> Option<Vec<Ty>> {
    let primary = builtin_result(name, args)?;
    let mut outs = vec![primary];
    match name {
        "size" if nargout >= 2 => {
            outs = vec![Ty::double_scalar(); nargout];
        }
        "min" | "max" if nargout >= 2 => {
            outs.push(Ty::new(Class::Double, reduce_shape(args.first()?.shape)));
        }
        "deal" => {
            outs = vec![args.first().copied().unwrap_or_else(Ty::unknown); nargout.max(1)];
        }
        _ => {}
    }
    Some(outs)
}

fn reduce_class(c: Class) -> Class {
    match c {
        Class::Logical | Class::Char => Class::Double,
        other => other,
    }
}

/// MATLAB reduction shape: vectors → scalar, matrices → row of column
/// results, unknown → unknown.
fn reduce_shape(s: Shape) -> Shape {
    if s.is_vector() || s.is_scalar() {
        Shape::scalar()
    } else if s.cols.known().is_some() {
        Shape::row(s.cols)
    } else {
        Shape::unknown()
    }
}

/// `zeros(n)`, `zeros(r, c)` shape computation from constant args.
fn dims_shape(args: &[Ty]) -> Shape {
    match args.len() {
        0 => Shape::scalar(),
        1 => {
            let n = args[0].const_usize();
            Shape {
                rows: n.map_or(Dim::Unknown, Dim::Known),
                cols: n.map_or(Dim::Unknown, Dim::Known),
            }
        }
        _ => Shape {
            rows: args[0].const_usize().map_or(Dim::Unknown, Dim::Known),
            cols: args[1].const_usize().map_or(Dim::Unknown, Dim::Known),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_with_constant_dims() {
        let t = builtin_result("zeros", &[Ty::constant(1.0), Ty::constant(64.0)]).unwrap();
        assert_eq!(t.shape, Shape::known(1, 64));
        assert_eq!(t.class, Class::Double);
    }

    #[test]
    fn zeros_square_form() {
        let t = builtin_result("zeros", &[Ty::constant(8.0)]).unwrap();
        assert_eq!(t.shape, Shape::known(8, 8));
    }

    #[test]
    fn abs_returns_real_same_shape() {
        let arg = Ty::new(Class::Complex, Shape::row(Dim::Known(16)));
        let t = builtin_result("abs", &[arg]).unwrap();
        assert_eq!(t.class, Class::Double);
        assert_eq!(t.shape, Shape::row(Dim::Known(16)));
    }

    #[test]
    fn sum_of_vector_is_scalar() {
        let arg = Ty::new(Class::Double, Shape::row(Dim::Unknown));
        let t = builtin_result("sum", &[arg]).unwrap();
        assert!(t.shape.is_scalar());
    }

    #[test]
    fn sum_of_matrix_is_row() {
        let arg = Ty::new(Class::Double, Shape::known(4, 7));
        let t = builtin_result("sum", &[arg]).unwrap();
        assert_eq!(t.shape, Shape::row(Dim::Known(7)));
    }

    #[test]
    fn conj_preserves_complex() {
        let arg = Ty::new(Class::Complex, Shape::scalar());
        assert_eq!(
            builtin_result("conj", &[arg]).unwrap().class,
            Class::Complex
        );
        let arg = Ty::new(Class::Double, Shape::scalar());
        assert_eq!(builtin_result("conj", &[arg]).unwrap().class, Class::Double);
    }

    #[test]
    fn unknown_builtin_is_none() {
        assert!(builtin_result("fft_magic", &[]).is_none());
    }

    #[test]
    fn min_two_outputs() {
        let arg = Ty::new(Class::Double, Shape::row(Dim::Known(5)));
        let outs = builtin_nargout_types("min", &[arg], 2).unwrap();
        assert_eq!(outs.len(), 2);
        assert!(outs[1].shape.is_scalar());
    }

    #[test]
    fn sqrt_of_known_real_may_stay_double() {
        let t = builtin_result("sqrt", &[Ty::double_scalar()]).unwrap();
        assert_eq!(t.class, Class::Double);
        let t = builtin_result("sqrt", &[Ty::new(Class::Complex, Shape::scalar())]).unwrap();
        assert_eq!(t.class, Class::Complex);
    }
}

//! The class/shape type lattice used by inference.
//!
//! MATLAB is dynamically typed; the compiler recovers static classes and
//! shapes by abstract interpretation. Both lattices only ever move *up*
//! (toward less knowledge), so fixpoint iteration over loops terminates.

use std::fmt;

/// Element class lattice:
///
/// ```text
///        Unknown
///       /   |
///   Complex |
///      |    |
///    Double Char
///      |   /
///   Logical
/// ```
///
/// `Logical ⊑ Double ⊑ Complex`: a logical is representable as a double, a
/// double as a complex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Comparison result (0/1).
    Logical,
    /// Real double (MATLAB's default class).
    Double,
    /// Complex double.
    Complex,
    /// Character array element.
    Char,
    /// Nothing is known (or a function handle).
    Unknown,
}

impl Class {
    /// Least upper bound of two classes.
    pub fn join(self, other: Class) -> Class {
        use Class::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Logical, Double) | (Double, Logical) => Double,
            (Logical, Complex) | (Complex, Logical) => Complex,
            (Double, Complex) | (Complex, Double) => Complex,
            (Char, Logical) | (Logical, Char) | (Char, Double) | (Double, Char) => Double,
            (Char, Complex) | (Complex, Char) => Complex,
            _ => Unknown,
        }
    }

    /// The class of the result of ordinary arithmetic on two operands.
    pub fn arith(self, other: Class) -> Class {
        let j = self.join(other);
        match j {
            Class::Logical | Class::Char => Class::Double,
            c => c,
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Class::Logical => "logical",
            Class::Double => "double",
            Class::Complex => "complex",
            Class::Char => "char",
            Class::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// One dimension extent: known constant or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Compile-time-known extent.
    Known(usize),
    /// Runtime-dependent extent.
    Unknown,
}

impl Dim {
    /// Least upper bound.
    pub fn join(self, other: Dim) -> Dim {
        match (self, other) {
            (Dim::Known(a), Dim::Known(b)) if a == b => Dim::Known(a),
            _ => Dim::Unknown,
        }
    }

    /// The known extent, if any.
    pub fn known(self) -> Option<usize> {
        match self {
            Dim::Known(n) => Some(n),
            Dim::Unknown => None,
        }
    }

    /// Whether the extent is known to be exactly 1.
    pub fn is_one(self) -> bool {
        self == Dim::Known(1)
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Known(n) => write!(f, "{n}"),
            Dim::Unknown => f.write_str("?"),
        }
    }
}

/// A 2-D shape `(rows × cols)` with possibly unknown extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Row extent.
    pub rows: Dim,
    /// Column extent.
    pub cols: Dim,
}

impl Shape {
    /// The 1×1 scalar shape.
    pub fn scalar() -> Shape {
        Shape {
            rows: Dim::Known(1),
            cols: Dim::Known(1),
        }
    }

    /// A 1×n row-vector shape.
    pub fn row(n: Dim) -> Shape {
        Shape {
            rows: Dim::Known(1),
            cols: n,
        }
    }

    /// An n×1 column-vector shape.
    pub fn col(n: Dim) -> Shape {
        Shape {
            rows: n,
            cols: Dim::Known(1),
        }
    }

    /// A fully unknown shape.
    pub fn unknown() -> Shape {
        Shape {
            rows: Dim::Unknown,
            cols: Dim::Unknown,
        }
    }

    /// Creates a shape from known extents.
    pub fn known(rows: usize, cols: usize) -> Shape {
        Shape {
            rows: Dim::Known(rows),
            cols: Dim::Known(cols),
        }
    }

    /// Least upper bound of two shapes.
    pub fn join(self, other: Shape) -> Shape {
        Shape {
            rows: self.rows.join(other.rows),
            cols: self.cols.join(other.cols),
        }
    }

    /// Whether this is provably a 1×1 scalar.
    pub fn is_scalar(self) -> bool {
        self.rows.is_one() && self.cols.is_one()
    }

    /// Whether this is provably a vector (one dimension equals 1).
    pub fn is_vector(self) -> bool {
        self.rows.is_one() || self.cols.is_one()
    }

    /// Total element count when both extents are known.
    pub fn numel(self) -> Option<usize> {
        Some(self.rows.known()? * self.cols.known()?)
    }

    /// Shape after transposition.
    pub fn transpose(self) -> Shape {
        Shape {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// The result shape of an element-wise operation with scalar broadcast,
    /// or `None` when shapes provably conflict.
    pub fn broadcast(self, other: Shape) -> Option<Shape> {
        if self.is_scalar() {
            return Some(other);
        }
        if other.is_scalar() {
            return Some(self);
        }
        let rows = match (self.rows.known(), other.rows.known()) {
            (Some(a), Some(b)) if a != b => return None,
            (Some(a), _) => Dim::Known(a),
            (_, Some(b)) => Dim::Known(b),
            _ => Dim::Unknown,
        };
        let cols = match (self.cols.known(), other.cols.known()) {
            (Some(a), Some(b)) if a != b => return None,
            (Some(a), _) => Dim::Known(a),
            (_, Some(b)) => Dim::Known(b),
            _ => Dim::Unknown,
        };
        Some(Shape { rows, cols })
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// A full inferred type: class plus shape plus (when derivable) a constant
/// real value used for dimension propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ty {
    /// Element class.
    pub class: Class,
    /// Array shape.
    pub shape: Shape,
    /// Known constant value (scalars only) for constant propagation.
    pub constant: Option<f64>,
}

impl Ty {
    /// A real scalar type.
    pub fn double_scalar() -> Ty {
        Ty {
            class: Class::Double,
            shape: Shape::scalar(),
            constant: None,
        }
    }

    /// A known real constant.
    pub fn constant(v: f64) -> Ty {
        Ty {
            class: Class::Double,
            shape: Shape::scalar(),
            constant: Some(v),
        }
    }

    /// A type with given class and shape, no constant.
    pub fn new(class: Class, shape: Shape) -> Ty {
        Ty {
            class,
            shape,
            constant: None,
        }
    }

    /// The fully unknown type.
    pub fn unknown() -> Ty {
        Ty {
            class: Class::Unknown,
            shape: Shape::unknown(),
            constant: None,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: Ty) -> Ty {
        Ty {
            class: self.class.join(other.class),
            shape: self.shape.join(other.shape),
            constant: match (self.constant, other.constant) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        }
    }

    /// The constant as a nonnegative integer (for dimension arguments).
    pub fn const_usize(self) -> Option<usize> {
        let v = self.constant?;
        if v >= 0.0 && v == v.trunc() {
            Some(v as usize)
        } else {
            None
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.class, self.shape)?;
        if let Some(c) = self.constant {
            write!(f, " (= {c})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_join_lattice() {
        assert_eq!(Class::Double.join(Class::Complex), Class::Complex);
        assert_eq!(Class::Logical.join(Class::Double), Class::Double);
        assert_eq!(Class::Char.join(Class::Double), Class::Double);
        assert_eq!(Class::Unknown.join(Class::Double), Class::Unknown);
        assert_eq!(Class::Double.join(Class::Double), Class::Double);
    }

    #[test]
    fn join_is_commutative() {
        let all = [
            Class::Logical,
            Class::Double,
            Class::Complex,
            Class::Char,
            Class::Unknown,
        ];
        for a in all {
            for b in all {
                assert_eq!(a.join(b), b.join(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn arith_promotes_logical_to_double() {
        assert_eq!(Class::Logical.arith(Class::Logical), Class::Double);
        assert_eq!(Class::Double.arith(Class::Complex), Class::Complex);
    }

    #[test]
    fn dim_join() {
        assert_eq!(Dim::Known(4).join(Dim::Known(4)), Dim::Known(4));
        assert_eq!(Dim::Known(4).join(Dim::Known(5)), Dim::Unknown);
        assert_eq!(Dim::Known(4).join(Dim::Unknown), Dim::Unknown);
    }

    #[test]
    fn shape_predicates() {
        assert!(Shape::scalar().is_scalar());
        assert!(Shape::row(Dim::Unknown).is_vector());
        assert!(!Shape::unknown().is_vector());
        assert_eq!(Shape::known(2, 3).numel(), Some(6));
        assert_eq!(Shape::row(Dim::Unknown).numel(), None);
    }

    #[test]
    fn broadcast_rules() {
        let s = Shape::scalar();
        let v = Shape::row(Dim::Known(8));
        assert_eq!(s.broadcast(v), Some(v));
        assert_eq!(v.broadcast(s), Some(v));
        assert_eq!(v.broadcast(v), Some(v));
        let w = Shape::row(Dim::Known(4));
        assert_eq!(v.broadcast(w), None);
        // Unknown dims merge optimistically.
        let u = Shape::row(Dim::Unknown);
        assert_eq!(v.broadcast(u), Some(v));
    }

    #[test]
    fn transpose_swaps() {
        let s = Shape::known(2, 5).transpose();
        assert_eq!(s, Shape::known(5, 2));
    }

    #[test]
    fn ty_join_drops_conflicting_constants() {
        let a = Ty::constant(3.0);
        let b = Ty::constant(3.0);
        assert_eq!(a.join(b).constant, Some(3.0));
        let c = Ty::constant(4.0);
        assert_eq!(a.join(c).constant, None);
    }

    #[test]
    fn const_usize_filters() {
        assert_eq!(Ty::constant(5.0).const_usize(), Some(5));
        assert_eq!(Ty::constant(-1.0).const_usize(), None);
        assert_eq!(Ty::constant(2.5).const_usize(), None);
        assert_eq!(Ty::double_scalar().const_usize(), None);
    }
}

//! Complex double-precision scalar used throughout the interpreter and the
//! ASIP simulator.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number with `f64` parts.
///
/// Every numeric element in the MATLAB value model is a `Cx`; real values
/// simply carry `im == 0.0`. Keeping one element type (rather than a
/// real/complex enum per element) mirrors MATLAB semantics, where realness
/// is a property of the whole array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cx {
    /// Zero.
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Cx = Cx { re: 0.0, im: 1.0 };

    /// Creates a complex number from parts.
    pub fn new(re: f64, im: f64) -> Cx {
        Cx { re, im }
    }

    /// Creates a purely real number.
    pub fn real(re: f64) -> Cx {
        Cx { re, im: 0.0 }
    }

    /// Whether the imaginary part is exactly zero.
    pub fn is_real(self) -> bool {
        self.im == 0.0
    }

    /// Complex conjugate.
    pub fn conj(self) -> Cx {
        Cx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `f` on each part: MATLAB's `floor`, `ceil`, `round` and `fix` of a
    /// complex value round its real and imaginary parts separately. A
    /// real value keeps an exactly zero imaginary part.
    pub fn map_parts(self, f: impl Fn(f64) -> f64) -> Cx {
        if self.is_real() {
            Cx::real(f(self.re))
        } else {
            Cx::new(f(self.re), f(self.im))
        }
    }

    /// MATLAB's `sign`: -1, 0 or 1 for a real value (0 for NaN), and
    /// `z / abs(z)` for a complex one.
    pub fn sign(self) -> Cx {
        if self.is_real() {
            Cx::real(if self.re > 0.0 {
                1.0
            } else if self.re < 0.0 {
                -1.0
            } else {
                0.0
            })
        } else {
            let a = self.abs();
            Cx::new(self.re / a, self.im / a)
        }
    }

    /// Argument (phase angle) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex square root (principal branch).
    pub fn sqrt(self) -> Cx {
        if self.is_real() && self.re >= 0.0 {
            return Cx::real(self.re.sqrt());
        }
        let r = self.abs();
        let theta = self.arg() / 2.0;
        let sr = r.sqrt();
        Cx::new(sr * theta.cos(), sr * theta.sin())
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Cx {
        let m = self.re.exp();
        Cx::new(m * self.im.cos(), m * self.im.sin())
    }

    /// Complex natural logarithm (principal branch).
    pub fn ln(self) -> Cx {
        Cx::new(self.abs().ln(), self.arg())
    }

    /// Complex power `self^rhs`.
    pub fn powc(self, rhs: Cx) -> Cx {
        if self.is_real() && rhs.is_real() {
            let b = self.re;
            let e = rhs.re;
            // Real base/exponent stays real when the result is real.
            if b >= 0.0 || e == e.trunc() {
                return Cx::real(b.powf(e));
            }
        }
        if self == Cx::ZERO {
            return if rhs == Cx::ZERO { Cx::ONE } else { Cx::ZERO };
        }
        (self.ln() * rhs).exp()
    }

    /// Approximate equality for tests: both parts within `tol`.
    pub fn approx_eq(self, other: Cx, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Cx {
    fn from(re: f64) -> Cx {
        Cx::real(re)
    }
}

impl Add for Cx {
    type Output = Cx;
    fn add(self, rhs: Cx) -> Cx {
        Cx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Cx {
    type Output = Cx;
    fn sub(self, rhs: Cx) -> Cx {
        Cx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cx {
    type Output = Cx;
    fn mul(self, rhs: Cx) -> Cx {
        Cx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Cx {
    type Output = Cx;
    fn div(self, rhs: Cx) -> Cx {
        if rhs.im == 0.0 {
            return Cx::new(self.re / rhs.re, self.im / rhs.re);
        }
        let d = rhs.re * rhs.re + rhs.im * rhs.im;
        Cx::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Cx {
    type Output = Cx;
    fn neg(self) -> Cx {
        Cx::new(-self.re, -self.im)
    }
}

impl fmt::Display for Cx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im == 0.0 {
            write!(f, "{}", self.re)
        } else if self.im < 0.0 {
            write!(f, "{} - {}i", self.re, -self.im)
        } else {
            write!(f, "{} + {}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -1.0);
        assert_eq!(a + b, Cx::new(4.0, 1.0));
        assert_eq!(a - b, Cx::new(-2.0, 3.0));
        assert_eq!(a * b, Cx::new(5.0, 5.0));
        let q = (a * b) / b;
        assert!(q.approx_eq(a, 1e-12));
    }

    #[test]
    fn conj_and_abs() {
        let z = Cx::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj(), Cx::new(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(Cx::real(25.0), 1e-12));
    }

    #[test]
    fn sqrt_of_negative_real_is_imaginary() {
        let z = Cx::real(-4.0).sqrt();
        assert!(z.approx_eq(Cx::new(0.0, 2.0), 1e-12));
    }

    #[test]
    fn exp_of_i_pi() {
        let z = (Cx::I * Cx::real(std::f64::consts::PI)).exp();
        assert!(z.approx_eq(Cx::real(-1.0), 1e-12));
    }

    #[test]
    fn real_power_stays_real() {
        assert_eq!(Cx::real(2.0).powc(Cx::real(10.0)), Cx::real(1024.0));
        assert_eq!(Cx::real(-2.0).powc(Cx::real(3.0)), Cx::real(-8.0));
    }

    #[test]
    fn negative_base_fractional_power_is_complex() {
        let z = Cx::real(-1.0).powc(Cx::real(0.5));
        assert!(z.approx_eq(Cx::I, 1e-12));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cx::real(2.5).to_string(), "2.5");
        assert_eq!(Cx::new(1.0, 2.0).to_string(), "1 + 2i");
        assert_eq!(Cx::new(1.0, -2.0).to_string(), "1 - 2i");
    }
}

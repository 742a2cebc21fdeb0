//! A minimal, allocation-free complex number type.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::approx;

/// A complex number with `f64` components.
///
/// The type is deliberately small and `Copy`; all quantum amplitudes and
/// matrix entries in the workspace are values of this type. Arithmetic
/// follows the usual field rules; comparisons meant for amplitude equality
/// should use [`Complex::approx_eq`], not `==`.
///
/// # Examples
///
/// ```
/// use qnum::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a + b, Complex::new(4.0, 1.0));
/// assert_eq!(a * Complex::I, Complex::new(-2.0, 1.0));
/// assert!(a.conj().approx_eq(Complex::new(1.0, -2.0)));
/// ```
// `repr(C)` pins the `[re, im]` field order so SIMD kernels can view a
// `&[Complex]` as interleaved `f64` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    #[must_use]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qnum::Complex;
    /// let c = Complex::from_polar(1.0, std::f64::consts::PI);
    /// assert!(c.approx_eq(Complex::new(-1.0, 0.0)));
    /// ```
    #[inline]
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit-magnitude phase factor.
    #[inline]
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Returns the complex conjugate.
    #[inline]
    #[must_use]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Returns the squared magnitude `|z|²` (the measurement probability of an
    /// amplitude).
    #[inline]
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude `|z|`.
    #[inline]
    #[must_use]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns the argument (phase angle) in `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `z` is (numerically) zero.
    #[inline]
    #[must_use]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "attempted to invert a zero complex number");
        Complex::new(self.re / d, -self.im / d)
    }

    /// Multiplies by a real scalar.
    #[inline]
    #[must_use]
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }

    /// Returns `true` if both components are within the workspace tolerance of
    /// `other`'s components.
    #[inline]
    #[must_use]
    pub fn approx_eq(self, other: Complex) -> bool {
        approx::approx_eq(self.re, other.re) && approx::approx_eq(self.im, other.im)
    }

    /// Returns `true` if both components are within `tolerance` of `other`.
    #[inline]
    #[must_use]
    pub fn approx_eq_with(self, other: Complex, tolerance: f64) -> bool {
        approx::approx_eq_with(self.re, other.re, tolerance)
            && approx::approx_eq_with(self.im, other.im, tolerance)
    }

    /// Returns `true` if this value is within the workspace tolerance of zero.
    #[inline]
    #[must_use]
    pub fn approx_zero(self) -> bool {
        approx::approx_zero(self.re) && approx::approx_zero(self.im)
    }

    /// Returns `true` if this value is within the workspace tolerance of one.
    #[inline]
    #[must_use]
    pub fn approx_one(self) -> bool {
        approx::approx_one(self.re) && approx::approx_zero(self.im)
    }

    /// Returns `true` if any component is NaN.
    #[inline]
    #[must_use]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, c| acc + c)
    }
}

impl Product for Complex {
    fn product<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ONE, |acc, c| acc * c)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        assert_eq!(Complex::from(2.5), Complex::real(2.5));
    }

    #[test]
    fn field_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        assert_eq!(a + b, Complex::new(4.0, -2.0));
        assert_eq!(a - b, Complex::new(-2.0, 6.0));
        assert_eq!(a * b, Complex::new(11.0, 2.0));
        assert!((a / b * b).approx_eq(a));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex::I * Complex::I).approx_eq(-Complex::ONE));
    }

    #[test]
    fn assign_operators() {
        let mut c = Complex::new(1.0, 1.0);
        c += Complex::ONE;
        assert_eq!(c, Complex::new(2.0, 1.0));
        c -= Complex::I;
        assert_eq!(c, Complex::new(2.0, 0.0));
        c *= Complex::I;
        assert_eq!(c, Complex::new(0.0, 2.0));
        c /= Complex::new(0.0, 2.0);
        assert!(c.approx_eq(Complex::ONE));
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.0, FRAC_PI_2);
        assert!(c.approx_eq(Complex::new(0.0, 2.0)));
        assert!(approx_f(c.abs(), 2.0));
        assert!(approx_f(c.arg(), FRAC_PI_2));
    }

    #[test]
    fn cis_covers_the_unit_circle() {
        assert!(Complex::cis(0.0).approx_eq(Complex::ONE));
        assert!(Complex::cis(PI).approx_eq(-Complex::ONE));
        assert!(Complex::cis(FRAC_PI_2).approx_eq(Complex::I));
    }

    #[test]
    fn conjugation_and_norm() {
        let c = Complex::new(3.0, 4.0);
        assert_eq!(c.conj(), Complex::new(3.0, -4.0));
        assert!(approx_f(c.norm_sqr(), 25.0));
        assert!(approx_f(c.abs(), 5.0));
        // z · z̄ = |z|²
        assert!((c * c.conj()).approx_eq(Complex::real(25.0)));
    }

    #[test]
    fn recip_inverts() {
        let c = Complex::new(1.0, -3.0);
        assert!((c * c.recip()).approx_eq(Complex::ONE));
    }

    #[test]
    fn scalar_multiplication_both_sides() {
        let c = Complex::new(1.0, -1.0);
        assert_eq!(c * 2.0, Complex::new(2.0, -2.0));
        assert_eq!(2.0 * c, Complex::new(2.0, -2.0));
        assert_eq!(c / 2.0, Complex::new(0.5, -0.5));
    }

    #[test]
    fn sum_and_product() {
        let xs = [Complex::ONE, Complex::I, Complex::new(1.0, 1.0)];
        let s: Complex = xs.iter().copied().sum();
        assert!(s.approx_eq(Complex::new(2.0, 2.0)));
        let p: Complex = xs.iter().copied().product();
        assert!(p.approx_eq(Complex::new(-1.0, 1.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn approx_helpers() {
        assert!(Complex::new(1e-12, -1e-12).approx_zero());
        assert!(Complex::new(1.0 + 1e-12, 1e-12).approx_one());
        assert!(!Complex::I.approx_one());
        assert!(Complex::new(0.5, 0.5).approx_eq_with(Complex::new(0.51, 0.5), 0.02));
    }

    #[test]
    fn nan_detection() {
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex::ONE.is_nan());
    }

    fn approx_f(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }
}

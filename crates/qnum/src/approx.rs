//! Tolerance-aware floating point comparison.
//!
//! Quantum EDA tools compare amplitudes and matrix entries up to a numerical
//! tolerance: gate matrices are exact up to rounding, but long products of
//! them accumulate error. Decision-diagram packages go further and *intern*
//! complex values within a tolerance bucket (`qdd`'s edge weights), which
//! requires a single, consistent notion of "equal enough" across the whole
//! workspace. This module is that single source of truth.
//!
//! # Examples
//!
//! ```
//! use qnum::approx::{approx_eq, approx_zero, DEFAULT_TOLERANCE};
//!
//! assert!(approx_eq(0.1 + 0.2, 0.3));
//! assert!(approx_zero(1e-14));
//! assert!(DEFAULT_TOLERANCE > 0.0);
//! ```

/// Default absolute tolerance used across the workspace.
///
/// The value mirrors the default of QMDD packages (≈`1e-10`): tight enough
/// that distinct gate-matrix entries never alias, loose enough to absorb the
/// rounding from products of tens of thousands of gates.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

/// Returns `true` if `a` and `b` differ by at most [`DEFAULT_TOLERANCE`].
///
/// The comparison is *absolute*, not relative: amplitudes are bounded by 1 in
/// magnitude, so a relative epsilon would be needlessly permissive near zero
/// (exactly where DD edge weights must be distinguished from true zeros).
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_with(a, b, DEFAULT_TOLERANCE)
}

/// Returns `true` if `a` and `b` differ by at most `tolerance`.
#[inline]
#[must_use]
pub fn approx_eq_with(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance
}

/// Returns `true` if `a` is within [`DEFAULT_TOLERANCE`] of zero.
#[inline]
#[must_use]
pub fn approx_zero(a: f64) -> bool {
    a.abs() <= DEFAULT_TOLERANCE
}

/// Returns `true` if `a` is within [`DEFAULT_TOLERANCE`] of one.
#[inline]
#[must_use]
pub fn approx_one(a: f64) -> bool {
    approx_eq(a, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_are_equal() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(-3.5, -3.5));
    }

    #[test]
    fn rounding_noise_is_absorbed() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1.0 / 3.0 * 3.0, 1.0));
    }

    #[test]
    fn distinct_amplitudes_are_distinguished() {
        // 1/√2 vs 1/2 — the closest pair of "common" amplitudes.
        assert!(!approx_eq(std::f64::consts::FRAC_1_SQRT_2, 0.5));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn zero_and_one_helpers() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(-1e-12));
        assert!(!approx_zero(1e-6));
        assert!(approx_one(1.0 + 1e-12));
        assert!(!approx_one(0.999999));
    }

    #[test]
    fn custom_tolerance() {
        assert!(approx_eq_with(1.0, 1.01, 0.1));
        assert!(!approx_eq_with(1.0, 1.01, 0.001));
    }
}

//! Tolerance-based interning of complex edge weights.
//!
//! QMDD canonicity rests on *numerically identical* edge weights being the
//! *same object*: two DDs are equal iff their root edges carry the same node
//! pointer and the same weight index. Floating-point rounding would destroy
//! that, so every weight is interned through this table, which maps values
//! within the workspace tolerance of an existing entry to that entry
//! (the "how to efficiently handle complex values" machinery of \[26\]).

use qnum::Complex;

use crate::fxhash::FxHashMap;

/// An interned complex number: the index of an edge weight in its
/// package's interning table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cx(pub(crate) u32);

impl Cx {
    /// The interned zero.
    pub const ZERO: Cx = Cx(0);
    /// The interned one.
    pub const ONE: Cx = Cx(1);
}

/// The interning table.
///
/// # Examples
///
/// The table is internal to a [`Package`](crate::Package); every weight the
/// package creates goes through it, so aliasing shows in the edges:
///
/// ```
/// use qdd::Package;
/// use qnum::Complex;
///
/// let mut pkg = Package::new(1);
/// let id = pkg.identity_medge();
/// let a = pkg.scale_medge(id, Complex::new(0.5, 0.0));
/// let b = pkg.scale_medge(id, Complex::new(0.5 + 0.5e-13, 0.0));
/// assert_eq!(a.weight, b.weight); // within tolerance → same entry
/// ```
#[derive(Debug)]
pub(crate) struct ComplexTable {
    values: Vec<Complex>,
    buckets: FxHashMap<(i64, i64), Vec<u32>>,
    tolerance: f64,
}

impl ComplexTable {
    /// Default interning tolerance.
    ///
    /// Much tighter than the workspace comparison tolerance
    /// (`qnum::approx::DEFAULT_TOLERANCE`, `1e-10`): interning *rounds* values,
    /// and rounding errors chain through long gate sequences. `1e-13`
    /// matches the defaults of production DD packages and keeps the
    /// accumulated drift of thousand-gate circuits below the comparison
    /// tolerance.
    pub const DEFAULT_TOLERANCE: f64 = 1e-13;

    /// Creates a table with [`ComplexTable::DEFAULT_TOLERANCE`], pre-seeded
    /// with 0 and 1 (at fixed indices [`Cx::ZERO`] and [`Cx::ONE`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_tolerance(Self::DEFAULT_TOLERANCE)
    }

    /// Creates a table with a custom tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not strictly positive and finite.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive and finite"
        );
        let mut table = ComplexTable {
            values: Vec::with_capacity(64),
            buckets: FxHashMap::with_capacity_and_hasher(64, Default::default()),
            tolerance,
        };
        let zero = table.intern(Complex::ZERO);
        let one = table.intern(Complex::ONE);
        debug_assert_eq!(zero, Cx::ZERO);
        debug_assert_eq!(one, Cx::ONE);
        table
    }

    /// Drops every interned value and re-seeds 0 and 1, restoring the
    /// freshly constructed state while keeping the allocations. After a
    /// clear the table is observationally identical to a new one: the same
    /// intern sequence yields the same indices bit for bit.
    pub fn clear(&mut self) {
        self.values.clear();
        self.buckets.clear();
        let zero = self.intern(Complex::ZERO);
        let one = self.intern(Complex::ONE);
        debug_assert_eq!(zero, Cx::ZERO);
        debug_assert_eq!(one, Cx::ONE);
    }

    /// Drops every value interned after the first `len`, with its bucket
    /// entry: the table returns to the state it had when it held `len`
    /// values, so the same intern sequence afterwards yields the same
    /// indices bit for bit.
    pub fn truncate(&mut self, len: usize) {
        // Each bucket lists its indices in insertion order, so walking the
        // dropped values backwards always finds its index at the end.
        for idx in (len..self.values.len()).rev() {
            let key = self.bucket_key(self.values[idx]);
            let bucket = self
                .buckets
                .get_mut(&key)
                .expect("interned value has a bucket");
            debug_assert_eq!(bucket.last(), Some(&(idx as u32)));
            bucket.pop();
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
        self.values.truncate(len);
    }

    /// The number of distinct interned values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Interns `value`, returning the index of an existing entry within
    /// tolerance or of a freshly inserted one.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains NaN.
    pub fn intern(&mut self, value: Complex) -> Cx {
        assert!(!value.is_nan(), "cannot intern NaN");
        let key = self.bucket_key(value);
        // Check the 3×3 neighbourhood of buckets so values straddling a
        // bucket boundary still alias.
        for dr in -1..=1 {
            for di in -1..=1 {
                // Saturating: a huge value's key sits at the edge of `i64`.
                let neighbour = (key.0.saturating_add(dr), key.1.saturating_add(di));
                if let Some(candidates) = self.buckets.get(&neighbour) {
                    for &idx in candidates {
                        if self.values[idx as usize].approx_eq_with(value, self.tolerance) {
                            return Cx(idx);
                        }
                    }
                }
            }
        }
        let idx = u32::try_from(self.values.len()).expect("complex table exceeded u32 indices");
        self.values.push(value);
        self.buckets.entry(key).or_default().push(idx);
        Cx(idx)
    }

    /// The value behind an index.
    ///
    /// # Panics
    ///
    /// Panics if the index does not belong to this table.
    #[inline]
    #[must_use]
    pub fn value(&self, idx: Cx) -> Complex {
        self.values[idx.0 as usize]
    }

    /// Interned multiplication (with 0/1 fast paths that skip the lookup).
    pub fn mul(&mut self, a: Cx, b: Cx) -> Cx {
        if a == Cx::ZERO || b == Cx::ZERO {
            return Cx::ZERO;
        }
        if a == Cx::ONE {
            return b;
        }
        if b == Cx::ONE {
            return a;
        }
        let v = self.value(a) * self.value(b);
        self.intern(v)
    }

    /// Interned addition.
    pub fn add(&mut self, a: Cx, b: Cx) -> Cx {
        if a == Cx::ZERO {
            return b;
        }
        if b == Cx::ZERO {
            return a;
        }
        let v = self.value(a) + self.value(b);
        self.intern(v)
    }

    /// Interned division.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the interned zero.
    pub fn div(&mut self, a: Cx, b: Cx) -> Cx {
        assert!(b != Cx::ZERO, "division by interned zero");
        if a == Cx::ZERO {
            return Cx::ZERO;
        }
        if b == Cx::ONE {
            return a;
        }
        let v = self.value(a) / self.value(b);
        self.intern(v)
    }

    /// Interned conjugation.
    pub fn conj(&mut self, a: Cx) -> Cx {
        if a == Cx::ZERO || a == Cx::ONE {
            return a;
        }
        let v = self.value(a).conj();
        self.intern(v)
    }

    fn bucket_key(&self, value: Complex) -> (i64, i64) {
        let scale = 1.0 / (2.0 * self.tolerance);
        (
            (value.re * scale).round() as i64,
            (value.im * scale).round() as i64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_at_the_edge_of_the_key_range_intern() {
        // A near-zero divisor in the DD package yields weights this large.
        let mut t = ComplexTable::new();
        for v in [
            Complex::new(1e300, -1e300),
            Complex::new(f64::INFINITY, 0.0),
        ] {
            let idx = t.intern(v);
            assert_ne!(idx, t.intern(Complex::ONE));
            assert_eq!(t.value(idx).re, v.re);
        }
    }

    #[test]
    fn zero_and_one_are_preseeded() {
        let mut t = ComplexTable::new();
        assert_eq!(t.intern(Complex::ZERO), Cx::ZERO);
        assert_eq!(t.intern(Complex::ONE), Cx::ONE);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn nearby_values_alias() {
        let mut t = ComplexTable::new();
        let a = t.intern(Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
        let b = t.intern(Complex::new(
            std::f64::consts::FRAC_1_SQRT_2 + 0.5e-13,
            -0.5e-13,
        ));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
        let c = t.intern(Complex::new(0.5, 0.0));
        let d = t.intern(Complex::new(0.5 + 0.5e-13, 0.0));
        assert_eq!(c, d);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn distinct_values_do_not_alias() {
        let mut t = ComplexTable::new();
        let a = t.intern(Complex::new(0.5, 0.0));
        let b = t.intern(Complex::new(0.5 + 1e-6, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn boundary_straddling_values_alias() {
        // Two values within tolerance of each other but falling into
        // adjacent hash buckets (straddling a bucket boundary near 1.0).
        // Bucket width is 2·tol; the boundary between buckets 1 and 2 sits
        // at 3e-10. The two values differ by 2e-11 (well within tolerance)
        // but land in different buckets.
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.intern(Complex::new(2.9e-10, 0.0));
        let b = t.intern(Complex::new(3.1e-10, 0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn arithmetic_through_the_table() {
        let mut t = ComplexTable::new();
        let half = t.intern(Complex::real(0.5));
        let i = t.intern(Complex::I);
        assert_eq!(t.mul(half, Cx::ZERO), Cx::ZERO);
        assert_eq!(t.mul(half, Cx::ONE), half);
        let half_i = t.mul(half, i);
        assert!(t.value(half_i).approx_eq(Complex::new(0.0, 0.5)));
        let one = t.add(half, half);
        assert_eq!(one, Cx::ONE);
        assert_eq!(t.div(half_i, i), half);
        let minus_i = t.conj(i);
        assert!(t.value(minus_i).approx_eq(Complex::new(0.0, -1.0)));
    }

    #[test]
    #[should_panic(expected = "division by interned zero")]
    fn division_by_zero_panics() {
        let mut t = ComplexTable::new();
        let a = t.intern(Complex::real(2.0));
        let _ = t.div(a, Cx::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut t = ComplexTable::new();
        let _ = t.intern(Complex::new(f64::NAN, 0.0));
    }

    #[test]
    fn truncate_restores_the_earlier_table() {
        let mut t = ComplexTable::new();
        let kept = t.intern(Complex::real(0.5 - 0.8e-13));
        let len = t.len();
        // A distinct value in `kept`'s bucket (1.2e-13 away, beyond the
        // tolerance), then one in a bucket of its own.
        let shared = Complex::real(0.5 + 0.4e-13);
        assert_eq!(t.intern(shared), Cx(len as u32));
        assert_eq!(t.intern(Complex::I), Cx(len as u32 + 1));
        t.truncate(len);
        assert_eq!(t.len(), len);
        assert_eq!(t.intern(Complex::real(0.5 - 0.8e-13)), kept);
        // Dropped values come back at the indices they had, as in a table
        // that never held them.
        assert_eq!(t.intern(shared), Cx(len as u32));
        assert_eq!(t.intern(Complex::I), Cx(len as u32 + 1));
    }

    #[test]
    fn interning_is_stable_across_repeats() {
        let mut t = ComplexTable::new();
        let v = Complex::from_polar(0.3, 1.2);
        let first = t.intern(v);
        for _ in 0..100 {
            assert_eq!(t.intern(v), first);
        }
    }
}

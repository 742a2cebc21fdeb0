//! Dense quantum state vectors.

use std::fmt;

use qnum::{approx, Complex};

/// A dense `2ⁿ`-amplitude state vector.
///
/// Qubit `q` corresponds to bit `q` of the amplitude index (qubit 0 is the
/// least significant bit), matching the convention of `qcirc`.
///
/// # Examples
///
/// ```
/// use qsim::StateVector;
///
/// let s = StateVector::basis(2, 0b10);
/// assert_eq!(s.probability(0b10), 1.0);
/// assert!(s.is_normalized());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The hard cap on qubits for dense simulation (2²⁸ amplitudes = 4 GiB).
    pub const MAX_QUBITS: usize = 28;

    /// Creates the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`StateVector::MAX_QUBITS`].
    #[must_use]
    pub fn zero(n_qubits: usize) -> Self {
        StateVector::basis(n_qubits, 0)
    }

    /// Creates the computational basis state `|i⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero, exceeds [`StateVector::MAX_QUBITS`], or
    /// `basis >= 2ⁿ`.
    #[must_use]
    pub fn basis(n_qubits: usize, basis: u64) -> Self {
        assert!(n_qubits > 0, "a state needs at least one qubit");
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "dense statevectors support at most {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        assert!(
            (basis as usize) < dim,
            "basis state {basis} out of range for {n_qubits} qubits"
        );
        let mut amps = vec![Complex::ZERO; dim];
        amps[basis as usize] = Complex::ONE;
        StateVector { n_qubits, amps }
    }

    /// Creates a state from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] if the length is not a power of two ≥ 2 or the
    /// vector is not normalized within the workspace tolerance.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, StateError> {
        let dim = amps.len();
        if dim < 2 || !dim.is_power_of_two() {
            return Err(StateError::BadDimension { dim });
        }
        let n_qubits = dim.trailing_zeros() as usize;
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if !approx::approx_eq_with(norm_sqr, 1.0, 1e-8) {
            return Err(StateError::NotNormalized { norm_sqr });
        }
        Ok(StateVector { n_qubits, amps })
    }

    /// The number of qubits.
    #[inline]
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The dimension `2ⁿ`.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The amplitudes, indexed by basis state.
    #[inline]
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable access to the amplitudes (used by gate kernels).
    #[inline]
    #[must_use]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The amplitude of basis state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn amplitude(&self, i: u64) -> Complex {
        self.amps[i as usize]
    }

    /// The measurement probability of basis state `i`, `|αᵢ|²`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn probability(&self, i: u64) -> f64 {
        self.amps[i as usize].norm_sqr()
    }

    /// The squared norm `Σ|αᵢ|²` (1 for a valid state).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Returns `true` if the squared norm is within `1e-8` of one.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        approx::approx_eq_with(self.norm_sqr(), 1.0, 1e-8)
    }

    /// Rescales to unit norm (useful after accumulated rounding).
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        if norm > 0.0 {
            for a in &mut self.amps {
                *a = *a / norm;
            }
        }
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// This is exactly the quantity of the paper's Section IV-A: simulating
    /// `G` and `G'` on `|i⟩` and taking `⟨uᵢ|uᵢ′⟩`; any value ≠ 1 proves
    /// non-equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// The fidelity `|⟨self|other⟩|²` — phase-insensitive overlap in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Entry-wise tolerance comparison (strict: a global phase difference
    /// makes states unequal).
    #[must_use]
    pub fn approx_eq(&self, other: &StateVector) -> bool {
        self.dim() == other.dim()
            && self
                .amps
                .iter()
                .zip(other.amps.iter())
                .all(|(a, b)| a.approx_eq(*b))
    }

    /// Comparison up to one global phase factor.
    #[must_use]
    pub fn approx_eq_up_to_phase(&self, other: &StateVector) -> bool {
        if self.dim() != other.dim() {
            return false;
        }
        for k in 0..self.amps.len() {
            if !other.amps[k].approx_zero() {
                if self.amps[k].approx_zero() {
                    return false;
                }
                let phase = self.amps[k] / other.amps[k];
                if !approx::approx_eq(phase.abs(), 1.0) {
                    return false;
                }
                return self
                    .amps
                    .iter()
                    .zip(other.amps.iter())
                    .all(|(a, b)| a.approx_eq(*b * phase));
            }
        }
        self.amps.iter().all(|a| a.approx_zero())
    }
}

impl fmt::Display for StateVector {
    /// Renders non-negligible amplitudes as `α|bits⟩` terms.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, a) in self.amps.iter().enumerate() {
            if a.approx_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            write!(f, "({a})|{:0width$b}⟩", i, width = self.n_qubits)?;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// Error constructing a [`StateVector`] from raw amplitudes.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The amplitude count was not a power of two ≥ 2.
    BadDimension {
        /// The offending length.
        dim: usize,
    },
    /// The squared norm was not 1.
    NotNormalized {
        /// The measured squared norm.
        norm_sqr: f64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadDimension { dim } => {
                write!(f, "amplitude count {dim} is not a power of two ≥ 2")
            }
            StateError::NotNormalized { norm_sqr } => {
                write!(f, "state is not normalized (|ψ|² = {norm_sqr})")
            }
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use qnum::FRAC_1_SQRT_2;

    #[test]
    fn basis_states_are_one_hot() {
        let s = StateVector::basis(3, 5);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(5), 1.0);
        assert_eq!(s.probability(0), 0.0);
        assert!(s.is_normalized());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = StateVector::basis(2, 4);
    }

    #[test]
    fn from_amplitudes_validates() {
        let h = Complex::real(FRAC_1_SQRT_2);
        let ok = StateVector::from_amplitudes(vec![h, h]).unwrap();
        assert_eq!(ok.n_qubits(), 1);
        let e = StateVector::from_amplitudes(vec![Complex::ONE; 3]).unwrap_err();
        assert!(matches!(e, StateError::BadDimension { dim: 3 }));
        let e = StateVector::from_amplitudes(vec![Complex::ONE, Complex::ONE]).unwrap_err();
        assert!(matches!(e, StateError::NotNormalized { .. }));
        assert!(e.to_string().contains("not normalized"));
    }

    #[test]
    fn inner_product_of_orthogonal_basis_states() {
        let a = StateVector::basis(2, 0);
        let b = StateVector::basis(2, 3);
        assert!(a.inner_product(&b).approx_zero());
        assert!(a.inner_product(&a).approx_one());
        assert_eq!(a.fidelity(&b), 0.0);
    }

    #[test]
    fn fidelity_is_phase_insensitive() {
        let h = Complex::real(FRAC_1_SQRT_2);
        let plus = StateVector::from_amplitudes(vec![h, h]).unwrap();
        let phased =
            StateVector::from_amplitudes(vec![h * Complex::cis(0.7), h * Complex::cis(0.7)])
                .unwrap();
        assert!((plus.fidelity(&phased) - 1.0).abs() < 1e-10);
        assert!(plus.approx_eq_up_to_phase(&phased));
        assert!(!plus.approx_eq(&phased));
    }

    #[test]
    fn renormalize_restores_unit_norm() {
        let h = Complex::real(FRAC_1_SQRT_2);
        let mut s = StateVector::from_amplitudes(vec![h, h]).unwrap();
        for a in s.amplitudes_mut() {
            *a = *a * 1.001;
        }
        assert!(!s.is_normalized());
        s.renormalize();
        assert!(s.is_normalized());
    }

    #[test]
    fn display_shows_kets() {
        let s = StateVector::basis(2, 2);
        let text = s.to_string();
        assert!(text.contains("|10⟩"), "got: {text}");
    }
}

//! Measurement: single-qubit outcome probabilities.

use crate::state::StateVector;

/// The probability of measuring qubit `q` as `1`.
///
/// # Panics
///
/// Panics if `q` is out of range.
#[must_use]
pub fn probability_of_one(state: &StateVector, q: usize) -> f64 {
    assert!(q < state.n_qubits(), "qubit index out of range");
    let bit = 1usize << q;
    state
        .amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & bit != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_state_probabilities() {
        let s = StateVector::basis(3, 0b101);
        assert_eq!(probability_of_one(&s, 0), 1.0);
        assert_eq!(probability_of_one(&s, 1), 0.0);
        assert_eq!(probability_of_one(&s, 2), 1.0);
    }
}

//! Measurement: probabilities and state collapse.

use rand::rngs::StdRng;
use rand::Rng;

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

/// The expectation value `⟨Z_q⟩ = P(0) − P(1)` of qubit `q`.
///
/// # Panics
///
/// Panics if `q` is out of range.
#[must_use]
pub fn expectation_z(state: &StateVector, q: usize) -> f64 {
    1.0 - 2.0 * probability_of_one(state, q)
}

/// Measures qubit `q`, collapsing the state and returning the observed bit.
///
/// # Panics
///
/// Panics if `q` is out of range.
pub fn measure_qubit(state: &mut StateVector, q: usize, rng: &mut StdRng) -> bool {
    let p1 = probability_of_one(state, q);
    let outcome = rng.gen::<f64>() < p1;
    collapse_qubit(state, q, outcome);
    outcome
}

/// Projects qubit `q` onto `outcome` and renormalizes.
///
/// # Panics
///
/// Panics if `q` is out of range or the projected state has zero norm (the
/// outcome was impossible).
pub fn collapse_qubit(state: &mut StateVector, q: usize, outcome: bool) {
    assert!(q < state.n_qubits(), "qubit index out of range");
    let bit = 1usize << q;
    for (i, a) in state.amplitudes_mut().iter_mut().enumerate() {
        if (i & bit != 0) != outcome {
            *a = qnum::Complex::ZERO;
        }
    }
    let norm = state.norm_sqr();
    assert!(
        norm > 1e-12,
        "collapse onto an impossible outcome (probability 0)"
    );
    state.renormalize();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use qcirc::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn basis_state_probabilities() {
        let s = StateVector::basis(3, 0b101);
        assert_eq!(probability_of_one(&s, 0), 1.0);
        assert_eq!(probability_of_one(&s, 1), 0.0);
        assert_eq!(probability_of_one(&s, 2), 1.0);
        assert_eq!(expectation_z(&s, 1), 1.0);
        assert_eq!(expectation_z(&s, 0), -1.0);
    }

    #[test]
    fn measurement_collapses_entanglement() {
        let mut state = Simulator::new().run_basis(&generators::bell(), 0);
        let bit = measure_qubit(&mut state, 0, &mut rng(3));
        // After measuring qubit 0 of a Bell pair, qubit 1 is determined.
        let expected = if bit { 0b11u64 } else { 0b00 };
        assert!(state.probability(expected) > 1.0 - 1e-9);
    }

    #[test]
    fn collapse_renormalizes() {
        let mut state = Simulator::new().run_basis(&generators::ghz(3), 0);
        collapse_qubit(&mut state, 1, true);
        assert!(state.is_normalized());
        assert!(state.probability(0b111) > 1.0 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "impossible outcome")]
    fn impossible_collapse_panics() {
        let mut state = StateVector::basis(2, 0);
        collapse_qubit(&mut state, 0, true);
    }
}

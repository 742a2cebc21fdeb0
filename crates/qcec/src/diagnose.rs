//! Counterexample diagnosis: turning "the circuits differ on `|i⟩`" into
//! an actionable report of *where* the outputs diverge.
//!
//! A verification engineer who receives a counterexample wants to see the
//! basis states whose amplitudes disagree — they usually point straight at
//! the corrupted qubits (e.g. a misplaced CX shows up as probability mass on
//! outputs with the wrong bit flipped).

use qcirc::Circuit;
use qnum::Complex;

use crate::backend::{with_engine, EngineTask, SimBackend, StatevectorBackend};
use crate::config::Config;
use crate::flow::resolve_auto;
use crate::outcome::Counterexample;

/// One disagreeing output amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplitudeDiff {
    /// The output basis state.
    pub basis: u64,
    /// Amplitude under `G`.
    pub in_g: Complex,
    /// Amplitude under `G'`.
    pub in_g_prime: Complex,
    /// `|in_g − in_g_prime|²`.
    pub magnitude: f64,
}

/// A diagnosis of a simulation counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The counterexample being explained.
    pub counterexample: Counterexample,
    /// The disagreeing output amplitudes, largest difference first
    /// (at most the requested `top` entries).
    pub top_diffs: Vec<AmplitudeDiff>,
    /// The qubits whose marginal probabilities differ noticeably — the
    /// prime suspects for the faulty gate's location.
    pub suspicious_qubits: Vec<usize>,
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counterexample: {}", self.counterexample)?;
        writeln!(f, "largest output differences:")?;
        for d in &self.top_diffs {
            writeln!(
                f,
                "  |{:b}⟩: {} vs {} (|Δ|² = {:.4})",
                d.basis, d.in_g, d.in_g_prime, d.magnitude
            )?;
        }
        write!(f, "suspicious qubits: {:?}", self.suspicious_qubits)
    }
}

/// Re-simulates both circuits on the counterexample's stimulus (preparing
/// its prefix circuit first for product/stabilizer witnesses) and reports
/// the `top` largest amplitude differences plus per-qubit marginal
/// discrepancies.
///
/// Uses the statevector simulator, so it is limited to registers that fit
/// in memory (the counterexample itself may have come from either backend).
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ or exceed the statevector
/// limit.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qcec::FlowError> {
/// use qcec::Outcome;
///
/// let g = qcirc::generators::w_state(3);
/// let mut buggy = g.clone();
/// buggy.x(1);
/// let result = qcec::check_equivalence_default(&g, &buggy)?;
/// if let Outcome::NotEquivalent { counterexample: Some(ce) } = result.outcome {
///     let diagnosis = qcec::diagnose::explain(&g, &buggy, ce, 4);
///     assert!(diagnosis.suspicious_qubits.contains(&1));
/// }
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn explain(g: &Circuit, g_prime: &Circuit, ce: Counterexample, top: usize) -> Diagnosis {
    let backend = StatevectorBackend::new();
    explain_on(&backend, g, g_prime, ce, top).expect("statevector replay cannot fail")
}

/// Like [`explain`], but replays the counterexample on the backend the
/// flow's `config` selects — so a verdict reached by the decision-diagram
/// engine is diagnosed by the same engine that produced it.
///
/// # Errors
///
/// Returns [`qdd::DdLimitError`] if the DD engine exhausts its node budget
/// during the replay.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ or exceed the dense-output
/// limit (the diagnosis itself is `O(2ⁿ)` on any engine).
pub fn explain_for(
    g: &Circuit,
    g_prime: &Circuit,
    ce: Counterexample,
    top: usize,
    config: &Config,
) -> Result<Diagnosis, qdd::DdLimitError> {
    with_engine(
        Replay { ce, top },
        g,
        g_prime,
        &resolve_auto(g, g_prime, config),
    )
}

/// [`explain_on`] as an [`EngineTask`].
struct Replay {
    ce: Counterexample,
    top: usize,
}

impl EngineTask for Replay {
    type Output = Result<Diagnosis, qdd::DdLimitError>;

    fn run<B: SimBackend>(
        self,
        backend: &B,
        g: &Circuit,
        g_prime: &Circuit,
        _config: &Config,
    ) -> Self::Output {
        explain_on(backend, g, g_prime, self.ce, self.top)
    }
}

/// Replays the counterexample's stimulus through both circuits on the given
/// backend and diagnoses the dense output vectors it returns.
///
/// # Errors
///
/// Returns [`qdd::DdLimitError`] if the engine exhausts its node budget.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
pub fn explain_on<B: SimBackend>(
    backend: &B,
    g: &Circuit,
    g_prime: &Circuit,
    ce: Counterexample,
    top: usize,
) -> Result<Diagnosis, qdd::DdLimitError> {
    assert_eq!(
        g.n_qubits(),
        g_prime.n_qubits(),
        "circuits must have equal qubit counts"
    );
    let mut workspace = backend.workspace(g.n_qubits());
    let (a, b) = backend.replay(g, g_prime, &ce.stimulus, &mut workspace)?;
    Ok(diagnose_outputs(g.n_qubits(), &a, &b, ce, top))
}

/// The engine-agnostic core: ranks amplitude differences and flags qubits
/// whose marginals disagree, given the two dense output vectors.
fn diagnose_outputs(
    n_qubits: usize,
    a: &[Complex],
    b: &[Complex],
    ce: Counterexample,
    top: usize,
) -> Diagnosis {
    let mut diffs: Vec<AmplitudeDiff> = a
        .iter()
        .zip(b.iter())
        .enumerate()
        .filter_map(|(i, (&x, &y))| {
            let magnitude = (x - y).norm_sqr();
            if magnitude > 1e-12 {
                Some(AmplitudeDiff {
                    basis: i as u64,
                    in_g: x,
                    in_g_prime: y,
                    magnitude,
                })
            } else {
                None
            }
        })
        .collect();
    diffs.sort_by(|l, r| r.magnitude.total_cmp(&l.magnitude));
    diffs.truncate(top);

    let a = qsim::StateVector::from_amplitudes(a.to_vec()).expect("replay output is a valid state");
    let b = qsim::StateVector::from_amplitudes(b.to_vec()).expect("replay output is a valid state");
    let suspicious_qubits = (0..n_qubits)
        .filter(|&q| {
            let pa = qsim::measure::probability_of_one(&a, q);
            let pb = qsim::measure::probability_of_one(&b, q);
            (pa - pb).abs() > 1e-6
        })
        .collect();

    Diagnosis {
        counterexample: ce,
        top_diffs: diffs,
        suspicious_qubits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_equivalence_default, BackendKind, Outcome};
    use qcirc::generators;

    fn counterexample_for(g: &Circuit, buggy: &Circuit) -> Counterexample {
        match check_equivalence_default(g, buggy).unwrap().outcome {
            Outcome::NotEquivalent {
                counterexample: Some(ce),
            } => ce,
            other => panic!("expected counterexample, got {other}"),
        }
    }

    #[test]
    fn stray_x_is_localized() {
        // A W state's marginals are 1/n per qubit; an X on qubit 2 pushes
        // that qubit's marginal to (n−1)/n — clearly suspicious. (GHZ would
        // *not* work here: its marginals are invariant under single flips.)
        let g = generators::w_state(4);
        let mut buggy = g.clone();
        buggy.x(2);
        let ce = counterexample_for(&g, &buggy);
        let d = explain(&g, &buggy, ce, 4);
        assert_eq!(d.suspicious_qubits, vec![2]);
        assert!(!d.top_diffs.is_empty());
        assert!(d.top_diffs[0].magnitude > 0.1);
        // Sorted descending.
        for w in d.top_diffs.windows(2) {
            assert!(w[0].magnitude >= w[1].magnitude);
        }
    }

    #[test]
    fn phase_error_shows_amplitude_diffs_without_marginals() {
        // A Z error changes phases, not marginals: suspicious qubits stays
        // empty, but amplitude diffs appear.
        let mut g = qcirc::Circuit::new(2);
        g.h(0).cx(0, 1);
        let mut buggy = g.clone();
        buggy.z(1);
        let ce = counterexample_for(&g, &buggy);
        let d = explain(&g, &buggy, ce, 4);
        assert!(d.suspicious_qubits.is_empty());
        assert!(!d.top_diffs.is_empty());
    }

    #[test]
    fn both_backends_produce_the_same_diagnosis() {
        let g = generators::w_state(4);
        let mut buggy = g.clone();
        buggy.x(2);
        let ce = counterexample_for(&g, &buggy);
        // Every differing amplitude (`top` = 2⁴), compared by basis state:
        // engines round the last bit differently, which reorders ties.
        let by_basis = |config: &Config| {
            let mut d = explain_for(&g, &buggy, ce.clone(), 16, config).unwrap();
            d.top_diffs.sort_by_key(|diff| diff.basis);
            d
        };
        let sv = by_basis(&Config::default());
        assert_eq!(sv.top_diffs.len(), 6);
        for backend in [
            BackendKind::DecisionDiagram,
            BackendKind::Stab,
            BackendKind::Mps,
            BackendKind::Auto,
        ] {
            let other = by_basis(&Config::default().with_backend(backend));
            assert_eq!(sv.suspicious_qubits, other.suspicious_qubits, "{backend}");
            assert_eq!(sv.top_diffs.len(), other.top_diffs.len(), "{backend}");
            for (a, b) in sv.top_diffs.iter().zip(&other.top_diffs) {
                assert_eq!(a.basis, b.basis, "{backend}");
                assert!((a.magnitude - b.magnitude).abs() < 1e-9, "{backend}");
            }
        }
    }

    #[test]
    fn top_truncation() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.x(0);
        let ce = counterexample_for(&g, &buggy);
        let d = explain(&g, &buggy, ce, 3);
        assert!(d.top_diffs.len() <= 3);
        let text = d.to_string();
        assert!(text.contains("largest output differences"));
    }
}

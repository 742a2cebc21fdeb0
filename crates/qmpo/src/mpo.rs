//! The complete equivalence check on a matrix-product operator.
//!
//! Mirrors the decision-diagram alternating check (`G → 𝕀 ← G′`): an
//! intermediary MPO `E` starts at the identity and converges to
//! `U′† · U` as gates of `G` multiply onto the right and inverted gates of
//! `G′` onto the left, the sides paced by the DD check's own rule,
//! [`qdd::next_from_g`]. The difference is the resource cap: instead of an
//! exact DD that may blow up (`DdLimitError`), the MPO's bond dimension is
//! truncated at `χ_max` and the discarded weight is *reported*, trading a
//! possible exact answer for a guaranteed bounded-memory one. The check
//! shares the DD check's vocabulary: it runs within a [`qdd::Budget`],
//! classifies into [`qdd::DdEquivalence`] and aborts with
//! [`qdd::DdCheckAbort`] (never its `NodeLimit`: the bond cap truncates
//! instead of failing).
//!
//! Closeness to the identity is measured by the normalized trace
//! `t = Tr(E) / (√2ⁿ · ‖E‖_F)` — computed as the Hilbert–Schmidt inner
//! product of the per-site-normalized identity MPO with `E` over `‖E‖` —
//! which by Cauchy–Schwarz satisfies `|t| ≤ 1` with equality iff
//! `E = e^{iφ}·𝕀`, i.e. iff `U′ = e^{iφ}·U`. Truncation widens the
//! acceptance window (`1 − |t|²` is compared against
//! `tolerance + slack · ε`), so artifacts of compression are never
//! convicted as non-equivalence; upstream, a truncated equivalent-class
//! verdict is downgraded to *probably equivalent*.

use qcirc::Circuit;
use qdd::{next_from_g, Budget, DdCheckAbort, DdEquivalence};

use crate::mps::{Mps, OperatorSide};

/// Acceptance tolerance on the infidelity `1 − |t|²` of an *exact*
/// (untruncated) run — pure floating-point headroom.
const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Multiplier on the accumulated truncation error added to the acceptance
/// window, so compression artifacts widen the "maybe equivalent" band
/// instead of producing spurious `NotEquivalent` convictions.
const TRUNCATION_SLACK: f64 = 8.0;

/// The outcome of a completed MPO check: the equivalence class plus the
/// compression telemetry that decides how much the class can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpoVerdict {
    /// The equivalence class under the truncation-widened tolerance; the
    /// phase `φ` of [`DdEquivalence::EquivalentUpToGlobalPhase`] is the
    /// DD check's (`U′ = e^{iφ}·U`), read off the normalized trace
    /// `Tr(U′†·U) / 2ⁿ = e^{−iφ}`.
    pub equivalence: DdEquivalence,
    /// Accumulated truncation error of the run; `0.0` means the check was
    /// numerically exact and the class is as trustworthy as a DD verdict.
    pub truncation_error: f64,
    /// Peak bond dimension the intermediary MPO reached.
    pub peak_bond: usize,
}

impl MpoVerdict {
    /// `true` for both exact and up-to-global-phase equivalence.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        self.equivalence.is_equivalent()
    }

    /// `true` when no singular values were discarded — the verdict class
    /// is exact, not "probably".
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.truncation_error == 0.0
    }
}

/// Runs the alternating MPO check with the given bond cap, polling the
/// budget between gate applications and before every two-site split.
///
/// # Errors
///
/// Returns [`DdCheckAbort::Timeout`] when the budget runs out. (Unlike
/// the DD check there is no node-limit failure mode: the bond cap *is*
/// the resource bound, enforced by truncation rather than abortion.)
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ or are zero, or if
/// `chi_max == 0`.
///
/// # Examples
///
/// ```
/// use qdd::Budget;
/// use qmpo::check_equivalence_alternating;
///
/// let g = qcirc::generators::qft(4, true);
/// let opt = qcirc::optimize::optimize(&g);
/// let v = check_equivalence_alternating(&g, &opt, 32, &Budget::new(None)).unwrap();
/// assert!(v.is_equivalent());
/// assert!(v.is_exact());
/// ```
pub fn check_equivalence_alternating(
    g: &Circuit,
    g_prime: &Circuit,
    chi_max: usize,
    budget: &Budget,
) -> Result<MpoVerdict, DdCheckAbort> {
    assert_eq!(
        g.n_qubits(),
        g_prime.n_qubits(),
        "circuits must have equal qubit counts"
    );
    let n = g.n_qubits();
    let mut e = Mps::identity_operator(n);

    // Consume both circuits back-to-front (identical to the DD loop):
    //   from G:  E ← E · U_i      (right multiplication, i = m−1 … 0)
    //   from G': E ← U'†_j · E    (left multiplication, j = m'−1 … 0)
    // yielding E = U'† · U up to the per-site 1/√2 normalization.
    let g_gates = g.gates();
    let gp_gates = g_prime.gates();
    let (m, mp) = (g_gates.len(), gp_gates.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < m || j < mp {
        budget.check()?;
        if next_from_g(i, j, m, mp) {
            let gate = &g_gates[m - 1 - i];
            e.apply_operator_gate(gate, OperatorSide::Right, chi_max, budget)?;
            i += 1;
        } else {
            let gate = gp_gates[mp - 1 - j].inverse();
            e.apply_operator_gate(&gate, OperatorSide::Left, chi_max, budget)?;
            j += 1;
        }
    }
    Ok(classify(&e))
}

/// Classifies an intermediary MPO `E ≈ U′†·U` by its normalized trace
/// against the identity.
fn classify(e: &Mps) -> MpoVerdict {
    let id = Mps::identity_operator(e.n_sites());
    let norm = e.norm();
    let t = if norm > 0.0 {
        id.inner_product(e) / norm
    } else {
        qnum::Complex::ZERO
    };
    let truncation_error = e.truncation_error();
    let window = DEFAULT_TOLERANCE + TRUNCATION_SLACK * truncation_error;
    let infidelity = (1.0 - t.norm_sqr()).max(0.0);
    let equivalence = if infidelity > window {
        DdEquivalence::NotEquivalent
    } else if (t - qnum::Complex::ONE).norm_sqr() <= window {
        DdEquivalence::Equivalent
    } else {
        DdEquivalence::EquivalentUpToGlobalPhase {
            phase: t.conj().arg(),
        }
    };
    MpoVerdict {
        equivalence,
        truncation_error,
        peak_bond: e.peak_bond(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;
    use std::time::{Duration, Instant};

    const CHI: usize = 64;

    /// The unbounded alternating check.
    fn alternating(a: &Circuit, b: &Circuit, chi: usize) -> MpoVerdict {
        check_equivalence_alternating(a, b, chi, &Budget::new(None)).unwrap()
    }

    #[test]
    fn identical_circuits_are_equivalent_and_exact() {
        let g = generators::qft(4, true);
        let v = alternating(&g, &g, CHI);
        assert_eq!(v.equivalence, DdEquivalence::Equivalent);
        assert!(v.is_exact());
    }

    #[test]
    fn optimized_pairs_are_equivalent() {
        let g = generators::random_clifford_t(4, 50, 11);
        let opt = qcirc::optimize::optimize(&g);
        let v = alternating(&g, &opt, CHI);
        assert!(v.is_equivalent());
        assert!(v.is_exact());
    }

    #[test]
    fn single_gate_errors_are_convicted() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(1);
        let v = alternating(&g, &buggy, CHI);
        assert_eq!(v.equivalence, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn global_phase_is_detected_with_its_angle() {
        // (Z·X)² = −𝕀: a pure global phase of π against the empty circuit.
        let empty = qcirc::Circuit::new(2);
        let mut phased = qcirc::Circuit::new(2);
        phased.x(0).z(0).x(0).z(0);
        let v = alternating(&empty, &phased, CHI);
        match v.equivalence {
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase.abs() - std::f64::consts::PI).abs() < 1e-9, "{phase}");
            }
            other => panic!("expected global phase, got {other:?}"),
        }
    }

    #[test]
    fn global_phase_has_the_dd_sign() {
        // Rz(1)·P(−1) = e^{−i/2}·𝕀, so U′ = e^{iφ}·U with φ = −1/2.
        let g = generators::ghz(2);
        let mut phased = g.clone();
        phased.rz(1.0, 0).p(-1.0, 0);
        match alternating(&g, &phased, CHI).equivalence {
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase + 0.5).abs() < 1e-9, "{phase}");
            }
            other => panic!("expected global phase, got {other:?}"),
        }
    }

    #[test]
    fn agrees_with_the_dd_check() {
        let budget = Budget::new(None);
        for seed in 0..3u64 {
            let g = generators::random_clifford_t(4, 40, seed);
            let opt = qcirc::optimize::optimize(&g);
            let mut buggy = g.clone();
            buggy.t((seed % 4) as usize);
            for (label, a, b) in [("optimized", &g, &opt), ("buggy", &g, &buggy)] {
                let mut p = qdd::Package::new(4);
                let dd = qdd::check_equivalence_alternating(&mut p, a, b, &budget).unwrap();
                let v = alternating(a, b, CHI);
                assert!(v.is_exact(), "seed {seed} {label}");
                assert_eq!(v.is_equivalent(), dd.is_equivalent(), "seed {seed} {label}");
            }
        }
    }

    /// The dense unitaries are the reference, on pairs up to six qubits.
    #[test]
    fn agrees_with_the_dense_unitary() {
        for (n, seed) in [(3, 1u64), (5, 2), (6, 3)] {
            let g = generators::random_clifford_t(n, 30, seed);
            let opt = qcirc::optimize::optimize(&g);
            let mut buggy = g.clone();
            buggy.z(1);
            let u = qcirc::dense::unitary(&g);
            for (label, other) in [("optimized", &opt), ("buggy", &buggy)] {
                let dense = u.approx_eq_up_to_phase(&qcirc::dense::unitary(other));
                let v = alternating(&g, other, CHI);
                assert!(v.is_exact(), "n {n} {label}");
                assert_eq!(v.is_equivalent(), dense, "n {n} {label}");
            }
        }
    }

    #[test]
    fn truncated_runs_report_their_error() {
        // A volume-law circuit against the empty circuit at a tiny bond
        // cap: the check builds the circuit's whole operator, which does
        // not fit, so the run truncates and says so.
        let g = generators::supremacy_2d(2, 3, 8, 5);
        let empty = Circuit::new(g.n_qubits());
        let v = alternating(&g, &empty, 2);
        assert!(v.truncation_error > 0.0);
        assert!(v.peak_bond <= 2);
    }

    /// A six-controlled X lowers to 1,723 elementary gates, thousands of
    /// two-site splits that take over a second even in a release build;
    /// the budget is polled before each split, so a 10 ms deadline stops
    /// the check inside the gate.
    #[test]
    fn a_deadline_interrupts_one_costly_gate() {
        let mut g = Circuit::new(7);
        g.mcx((0..6).collect(), 6);
        let empty = Circuit::new(7);
        let start = Instant::now();
        let budget = Budget::new(Some(Duration::from_millis(10)));
        let err = check_equivalence_alternating(&g, &empty, CHI, &budget).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, DdCheckAbort::Timeout { .. }));
        assert!(elapsed < Duration::from_millis(300), "took {elapsed:?}");
    }

    #[test]
    fn zero_deadline_times_out() {
        let g = generators::qft(5, true);
        let budget = Budget::new(Some(Duration::ZERO));
        let err = check_equivalence_alternating(&g, &g, CHI, &budget).unwrap_err();
        assert!(matches!(err, DdCheckAbort::Timeout { .. }));
    }
}

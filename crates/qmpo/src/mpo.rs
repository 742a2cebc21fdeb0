//! The complete equivalence check on a matrix-product operator.
//!
//! Mirrors the decision-diagram alternating check (`G → 𝕀 ← G′`): an
//! intermediary MPO `E` starts at the identity and converges to
//! `U′† · U` as gates of `G` multiply onto the right and inverted gates of
//! `G′` onto the left, with the side-selection delegated to the exact same
//! [`qdd::ApplicationScheme`] policies via [`qdd::SchemeCursor`]. The
//! difference is the resource cap: instead of an exact DD that may blow up
//! (`DdLimitError`), the MPO's bond dimension is truncated at `χ_max` and
//! the discarded weight is *reported*, trading a possible exact answer for
//! a guaranteed bounded-memory one. Both checks share the DD checks'
//! vocabulary: they run within a [`qdd::Budget`], classify into
//! [`qdd::DdEquivalence`] and abort with [`qdd::DdCheckAbort`] (never its
//! `NodeLimit`: the bond cap truncates instead of failing).
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
use qdd::{ApplicationScheme, Budget, DdCheckAbort, DdEquivalence, SchemeCursor};

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
    /// phase of [`DdEquivalence::EquivalentUpToGlobalPhase`] is the
    /// argument of the normalized trace.
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

/// Runs the alternating MPO check with the given bond cap and
/// interleaving scheme, polling the budget between gate applications.
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
/// use qdd::{ApplicationScheme, Budget};
/// use qmpo::check_equivalence_alternating;
///
/// let g = qcirc::generators::qft(4, true);
/// let opt = qcirc::optimize::optimize(&g);
/// let budget = Budget::new(None);
/// let v = check_equivalence_alternating(&g, &opt, 32, &budget, ApplicationScheme::Proportional)
///     .unwrap();
/// assert!(v.is_equivalent());
/// assert!(v.is_exact());
/// ```
pub fn check_equivalence_alternating(
    g: &Circuit,
    g_prime: &Circuit,
    chi_max: usize,
    budget: &Budget,
    scheme: ApplicationScheme,
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
    let cursor = SchemeCursor::new(scheme, g_gates, gp_gates);
    let (mut i, mut j) = (0usize, 0usize);
    while !cursor.done(i, j) {
        budget.check()?;
        if cursor.advance_g(i, j) {
            e.apply_operator_gate(&g_gates[m - 1 - i], OperatorSide::Right, chi_max);
            i += 1;
        } else {
            e.apply_operator_gate(&gp_gates[mp - 1 - j].inverse(), OperatorSide::Left, chi_max);
            j += 1;
        }
    }
    Ok(classify(&e))
}

/// The naive "construct both, compare" reference check: builds each
/// circuit's full operator as its own MPO and compares them directly via
/// their Hilbert–Schmidt inner product. Peak bond dimension is that of
/// the *full* unitaries, so this exists as the baseline the alternating
/// scheme is measured against — mirroring `qdd`'s
/// `check_equivalence_construct`.
///
/// # Errors
///
/// Returns [`DdCheckAbort::Timeout`] when the budget runs out.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ or are zero, or if
/// `chi_max == 0`.
pub fn check_equivalence_construct(
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
    let build = |circuit: &Circuit| -> Result<Mps, DdCheckAbort> {
        let mut op = Mps::identity_operator(n);
        for gate in circuit.gates().iter().rev() {
            budget.check()?;
            op.apply_operator_gate(gate, OperatorSide::Right, chi_max);
        }
        Ok(op)
    };
    let u = build(g)?;
    let u_prime = build(g_prime)?;
    // t = ⟨U′, U⟩ / (‖U′‖·‖U‖) = Tr(U′† U) / 2ⁿ for exact unitaries.
    let norm = u.norm() * u_prime.norm();
    let t = if norm > 0.0 {
        u_prime.inner_product(&u) / norm
    } else {
        qnum::Complex::ZERO
    };
    let truncation_error = u.truncation_error() + u_prime.truncation_error();
    Ok(verdict_from_trace(
        t,
        truncation_error,
        u.peak_bond().max(u_prime.peak_bond()),
    ))
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
    verdict_from_trace(t, e.truncation_error(), e.peak_bond())
}

fn verdict_from_trace(t: qnum::Complex, truncation_error: f64, peak_bond: usize) -> MpoVerdict {
    let window = DEFAULT_TOLERANCE + TRUNCATION_SLACK * truncation_error;
    let infidelity = (1.0 - t.norm_sqr()).max(0.0);
    let equivalence = if infidelity > window {
        DdEquivalence::NotEquivalent
    } else if (t - qnum::Complex::ONE).norm_sqr() <= window {
        DdEquivalence::Equivalent
    } else {
        DdEquivalence::EquivalentUpToGlobalPhase { phase: t.arg() }
    };
    MpoVerdict {
        equivalence,
        truncation_error,
        peak_bond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;
    use std::time::Duration;

    const CHI: usize = 64;

    /// The unbounded alternating check.
    fn alternating(a: &Circuit, b: &Circuit, chi: usize, scheme: ApplicationScheme) -> MpoVerdict {
        check_equivalence_alternating(a, b, chi, &Budget::new(None), scheme).unwrap()
    }

    #[test]
    fn identical_circuits_are_equivalent_and_exact() {
        let g = generators::qft(4, true);
        let v = alternating(&g, &g, CHI, ApplicationScheme::Proportional);
        assert_eq!(v.equivalence, DdEquivalence::Equivalent);
        assert!(v.is_exact());
    }

    #[test]
    fn optimized_pairs_are_equivalent() {
        let g = generators::random_clifford_t(4, 50, 11);
        let opt = qcirc::optimize::optimize(&g);
        let v = alternating(&g, &opt, CHI, ApplicationScheme::Proportional);
        assert!(v.is_equivalent());
        assert!(v.is_exact());
    }

    #[test]
    fn single_gate_errors_are_convicted() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(1);
        let v = alternating(&g, &buggy, CHI, ApplicationScheme::Proportional);
        assert_eq!(v.equivalence, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn global_phase_is_detected_with_its_angle() {
        // (Z·X)² = −𝕀: a pure global phase of π against the empty circuit.
        let empty = qcirc::Circuit::new(2);
        let mut phased = qcirc::Circuit::new(2);
        phased.x(0).z(0).x(0).z(0);
        let v = alternating(&empty, &phased, CHI, ApplicationScheme::Proportional);
        match v.equivalence {
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase.abs() - std::f64::consts::PI).abs() < 1e-9, "{phase}");
            }
            other => panic!("expected global phase, got {other:?}"),
        }
    }

    #[test]
    fn all_schemes_agree_with_the_dd_check() {
        let budget = Budget::new(None);
        for seed in 0..3u64 {
            let g = generators::random_clifford_t(4, 40, seed);
            let opt = qcirc::optimize::optimize(&g);
            let mut buggy = g.clone();
            buggy.t((seed % 4) as usize);
            for (label, a, b) in [("optimized", &g, &opt), ("buggy", &g, &buggy)] {
                let mut p = qdd::Package::new(4);
                let scheme = ApplicationScheme::default();
                let dd = qdd::check_equivalence_alternating(&mut p, a, b, &budget, scheme).unwrap();
                for scheme in ApplicationScheme::ALL {
                    let v = alternating(a, b, CHI, scheme);
                    assert!(v.is_exact(), "seed {seed} {label} {scheme}");
                    assert_eq!(
                        v.is_equivalent(),
                        dd.is_equivalent(),
                        "seed {seed} {label} {scheme}"
                    );
                }
            }
        }
    }

    #[test]
    fn construct_agrees_with_alternating() {
        let g = generators::ghz(3);
        let opt = qcirc::optimize::optimize(&g);
        let mut buggy = g.clone();
        buggy.z(1);
        let budget = Budget::new(None);
        let a = check_equivalence_construct(&g, &opt, CHI, &budget).unwrap();
        assert!(a.is_equivalent() && a.is_exact());
        let b = check_equivalence_construct(&g, &buggy, CHI, &budget).unwrap();
        assert_eq!(b.equivalence, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn truncated_runs_report_their_error() {
        // Identical volume-law circuits at a tiny bond cap: the class
        // stays equivalent (slack window) but the run is not exact.
        let g = generators::supremacy_2d(2, 3, 8, 5);
        let v = alternating(&g, &g, 2, ApplicationScheme::Sequential);
        assert!(v.truncation_error > 0.0);
        assert!(v.peak_bond <= 2);
    }

    #[test]
    fn zero_deadline_times_out() {
        let g = generators::qft(5, true);
        let budget = Budget::new(Some(Duration::ZERO));
        let scheme = ApplicationScheme::Proportional;
        let err = check_equivalence_alternating(&g, &g, CHI, &budget, scheme).unwrap_err();
        assert!(matches!(err, DdCheckAbort::Timeout { .. }));
    }
}

//! The vocabulary of the complete check — the "state-of-the-art routine"
//! the paper's flow falls back to after its simulation runs (\[18\]–\[22\],
//! \[26\]): its verdict, its abort reasons and its budget, plus the
//! drift-robust comparison the alternating check ends in.

use std::fmt;
use std::time::{Duration, Instant};

use qnum::Complex;

use crate::package::{DdLimitError, Package};

/// The verdict of a complete (DD-based) equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DdEquivalence {
    /// The system matrices are identical.
    Equivalent,
    /// The system matrices differ by exactly one global phase factor.
    EquivalentUpToGlobalPhase {
        /// The phase `φ` with `U' = e^{iφ} U`.
        phase: f64,
    },
    /// The system matrices differ.
    NotEquivalent,
}

impl DdEquivalence {
    /// Returns `true` for both flavours of equivalence.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        !matches!(self, DdEquivalence::NotEquivalent)
    }
}

impl fmt::Display for DdEquivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdEquivalence::Equivalent => write!(f, "equivalent"),
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                write!(f, "equivalent up to global phase {phase}")
            }
            DdEquivalence::NotEquivalent => write!(f, "not equivalent"),
        }
    }
}

/// Why a complete check could not reach a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdCheckAbort {
    /// The wall-clock deadline elapsed (the paper's `> 3600 s` rows).
    Timeout {
        /// The configured deadline.
        deadline: Duration,
    },
    /// The DD node limit was exceeded (memory analogue of a timeout).
    NodeLimit(DdLimitError),
}

impl fmt::Display for DdCheckAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdCheckAbort::Timeout { deadline } => {
                write!(f, "equivalence check timed out after {deadline:?}")
            }
            DdCheckAbort::NodeLimit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DdCheckAbort {}

impl From<DdLimitError> for DdCheckAbort {
    fn from(e: DdLimitError) -> Self {
        DdCheckAbort::NodeLimit(e)
    }
}

/// The bound on one complete check: an optional wall-clock deadline,
/// counted from the budget's creation. Both complete checks, DD and MPO,
/// poll it between gate applications; the MPO check also polls it before
/// every two-site split.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qdd::{Budget, DdCheckAbort};
///
/// assert_eq!(Budget::new(None).check(), Ok(()));
/// let spent = Budget::new(Some(Duration::ZERO));
/// std::thread::sleep(Duration::from_millis(1));
/// assert!(matches!(spent.check(), Err(DdCheckAbort::Timeout { .. })));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    deadline: Option<Duration>,
}

impl Budget {
    /// A budget of `deadline` from now (`None` is unbounded).
    #[must_use]
    pub fn new(deadline: Option<Duration>) -> Self {
        Budget {
            start: Instant::now(),
            deadline,
        }
    }

    /// Polls the budget.
    ///
    /// # Errors
    ///
    /// Returns [`DdCheckAbort::Timeout`] once the deadline has elapsed.
    pub fn check(&self) -> Result<(), DdCheckAbort> {
        match self.deadline {
            Some(deadline) if self.start.elapsed() > deadline => {
                Err(DdCheckAbort::Timeout { deadline })
            }
            _ => Ok(()),
        }
    }
}

/// Tolerance for the drift-robust entry-wise comparison (well above the
/// interning tolerance, well below any real gate difference).
const CLOSENESS_TOLERANCE: f64 = 1e-9;

/// Classifies the complete check's final matrix `u` against `u_prime`
/// (the identity): pointer equality first, then equality up to a phase,
/// then an entry-wise comparison that absorbs interning drift.
pub(crate) fn compare_roots(
    package: &mut Package,
    u: crate::edge::MEdge,
    u_prime: crate::edge::MEdge,
) -> DdEquivalence {
    // Fast path: canonical (pointer) equality.
    if u == u_prime {
        return DdEquivalence::Equivalent;
    }
    if package.medges_equal_up_to_phase(u, u_prime) {
        let wu = package.weight_value(u.weight);
        let wp = package.weight_value(u_prime.weight);
        let ratio: Complex = wp / wu;
        // A "phase" within tolerance of 1 is plain (drift-level) equality.
        if ratio.approx_one() {
            return DdEquivalence::Equivalent;
        }
        return DdEquivalence::EquivalentUpToGlobalPhase { phase: ratio.arg() };
    }
    // Drift-robust path: accumulated interning rounding on very deep
    // circuits can defeat pointer equality; bound the actual entry-wise
    // difference instead. A node-limit abort here simply yields the
    // (conservative) NotEquivalent of the fast path.
    if let Ok(true) = package.medges_close(u, u_prime, CLOSENESS_TOLERANCE) {
        return DdEquivalence::Equivalent;
    }
    // Up-to-phase: estimate the phase from the first column-0 entries.
    if let (Some((ra, va)), Some((rb, vb))) = (
        package.first_entry_in_column0(u),
        package.first_entry_in_column0(u_prime),
    ) {
        if ra == rb && !va.approx_zero() && !vb.approx_zero() {
            let ratio = vb / va;
            if (ratio.abs() - 1.0).abs() < CLOSENESS_TOLERANCE {
                let scaled = package.scale_medge(u, ratio);
                if let Ok(true) = package.medges_close(scaled, u_prime, CLOSENESS_TOLERANCE) {
                    return DdEquivalence::EquivalentUpToGlobalPhase { phase: ratio.arg() };
                }
            }
        }
    }
    DdEquivalence::NotEquivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_equivalence_alternating;
    use qcirc::mapping::{route, CouplingMap, RouterOptions};
    use qcirc::{generators, Circuit};

    /// The unbounded complete check.
    fn check(p: &mut Package, a: &Circuit, b: &Circuit) -> Result<DdEquivalence, DdCheckAbort> {
        check_equivalence_alternating(p, a, b, &Budget::new(None))
    }

    #[test]
    fn identical_circuits_are_equivalent() {
        let g = generators::qft(4, true);
        let mut p = Package::new(4);
        let v = check(&mut p, &g, &g).unwrap();
        assert_eq!(v, DdEquivalence::Equivalent);
        assert!(v.is_equivalent());
    }

    #[test]
    fn mapped_circuit_is_equivalent_to_original() {
        let g = generators::qft(5, true);
        let routed = route(&g, &CouplingMap::linear(5), RouterOptions::default()).unwrap();
        let mut p = Package::new(5);
        let v = check(&mut p, &g, &routed.circuit).unwrap();
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    #[test]
    fn decomposed_circuit_is_equivalent_possibly_up_to_phase() {
        let g = generators::grover(4, 0b0110, 2);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
        let mut p = Package::new(4);
        let v = check(&mut p, &g, &lowered).unwrap();
        assert!(v.is_equivalent(), "got {v}");
    }

    #[test]
    fn misplaced_cx_is_detected() {
        let g = generators::ghz(4);
        let mut buggy = g.clone();
        let old = buggy.replace(2, qcirc::Gate::controlled(qcirc::GateKind::X, vec![0], 2));
        assert_eq!(old.to_string(), "cx q[1], q[2]");
        let mut p = Package::new(4);
        let v = check(&mut p, &g, &buggy).unwrap();
        assert_eq!(v, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn global_phase_is_classified() {
        let mut a = qcirc::Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = a.clone();
        // Rz(2π) = −I contributes a global phase of π.
        b.rz(2.0 * std::f64::consts::PI, 0);
        let mut p = Package::new(2);
        let v = check(&mut p, &a, &b).unwrap();
        match v {
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase.abs() - std::f64::consts::PI).abs() < 1e-9);
            }
            other => panic!("expected phase equivalence, got {other}"),
        }
    }

    #[test]
    fn drift_robust_comparison_absorbs_tiny_perturbations() {
        // A root weight perturbed above the interning tolerance (1e−13) but
        // below the closeness tolerance (1e−9) defeats pointer equality but
        // must still classify as equivalent.
        let g = generators::qft(5, true);
        let mut p = Package::new(5);
        let u = p.circuit_medge(&g, &Budget::new(None)).unwrap();
        let drifted = p.scale_medge(u, qnum::Complex::real(1.0 + 1e-11));
        assert_ne!(u, drifted);
        assert!(p.medges_close(u, drifted, 1e-9).unwrap());
        let verdict = compare_roots(&mut p, u, drifted);
        assert_eq!(verdict, DdEquivalence::Equivalent);
        // A genuinely phased copy classifies as phase-equivalent.
        let phased = p.scale_medge(u, qnum::Complex::cis(0.7));
        match compare_roots(&mut p, u, phased) {
            DdEquivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase - 0.7).abs() < 1e-6);
            }
            other => panic!("expected phase equivalence, got {other}"),
        }
        // And a real difference stays a difference.
        let mut buggy = g.clone();
        buggy.x(2);
        let ub = p.circuit_medge(&buggy, &Budget::new(None)).unwrap();
        assert_eq!(compare_roots(&mut p, u, ub), DdEquivalence::NotEquivalent);
    }

    #[test]
    fn max_abs_of_unitaries() {
        let mut p = Package::new(3);
        let id = p.identity_medge();
        assert!((p.max_abs(id) - 1.0).abs() < 1e-12);
        let u = p
            .circuit_medge(&generators::ghz(3), &Budget::new(None))
            .unwrap();
        // Largest amplitude of the GHZ unitary is 1/√2.
        assert!((p.max_abs(u) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        let sum = p.add(id, id).unwrap();
        assert!((p.max_abs(sum) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn first_column_entry_walks_correctly() {
        let mut p = Package::new(2);
        // X on qubit 1: column 0 has its 1 at row 2.
        let mut c = qcirc::Circuit::new(2);
        c.x(1);
        let u = p.circuit_medge(&c, &Budget::new(None)).unwrap();
        let (row, value) = p.first_entry_in_column0(u).unwrap();
        assert_eq!(row, 2);
        assert!(value.approx_one());
    }

    #[test]
    fn zero_deadline_times_out() {
        let g = generators::supremacy_2d(3, 3, 10, 1);
        let mut p = Package::new(9);
        let budget = Budget::new(Some(Duration::ZERO));
        let e = check_equivalence_alternating(&mut p, &g, &g, &budget).unwrap_err();
        assert!(matches!(e, DdCheckAbort::Timeout { .. }));
        assert!(e.to_string().contains("timed out"));
    }

    #[test]
    fn node_limit_aborts_check() {
        // Against the empty circuit the check builds `g`'s whole system
        // matrix.
        let g = generators::supremacy_2d(3, 4, 10, 2);
        let mut p = Package::with_node_limit(12, 200);
        let e = check(&mut p, &g, &Circuit::new(12)).unwrap_err();
        assert!(matches!(e, DdCheckAbort::NodeLimit(_)));
    }
}

//! The complete (functional) check stage — one body over both complete
//! checkers: the DD routines of `qdd` and, under [`BackendKind::Mps`], the
//! MPO routines of `qmpo`, which share `qdd`'s budget, verdict and abort
//! vocabulary.

use qcirc::Circuit;
use qdd::{Budget, DdCheckAbort, DdEquivalence, Package};

use crate::config::{BackendKind, Config, Criterion, Fallback};
use crate::outcome::AbortReason;

/// Result of the functional stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FunctionalVerdict {
    /// Matrices identical.
    Equivalent,
    /// Matrices identical up to one global phase.
    EquivalentUpToGlobalPhase {
        /// The phase `φ`.
        phase: f64,
    },
    /// Matrices differ.
    NotEquivalent,
    /// The check could not finish.
    Aborted(AbortReason),
}

/// Runs the configured complete equivalence check within
/// `config.deadline`.
///
/// With [`Criterion::Strict`], matrices that agree only up to a global
/// phase are classified as [`FunctionalVerdict::NotEquivalent`]; with the
/// default physical criterion they are reported as the phase variant.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
#[must_use]
pub fn run_functional_check(g: &Circuit, g_prime: &Circuit, config: &Config) -> FunctionalVerdict {
    let alternating = match config.fallback {
        Fallback::None => return FunctionalVerdict::Aborted(AbortReason::FallbackDisabled),
        Fallback::Alternating => true,
        Fallback::ConstructAndCompare => false,
    };
    let budget = Budget::new(config.deadline);
    let result = if config.backend == BackendKind::Mps {
        let chi = config.chi_max;
        let run = if alternating {
            qmpo::check_equivalence_alternating(g, g_prime, chi, &budget, config.scheme)
        } else {
            qmpo::check_equivalence_construct(g, g_prime, chi, &budget)
        };
        match run {
            // A truncated run can still disprove equivalence — the engine's
            // decision window already absorbs the accumulated error — but
            // its "no difference found" is evidence, not proof.
            Ok(v) if v.is_equivalent() && !v.is_exact() => {
                let error = v.truncation_error;
                return FunctionalVerdict::Aborted(AbortReason::Truncation { error });
            }
            run => run.map(|v| v.equivalence),
        }
    } else {
        let mut package = Package::with_node_limit(g.n_qubits(), config.dd_node_limit);
        if alternating {
            qdd::check_equivalence_alternating(&mut package, g, g_prime, &budget, config.scheme)
        } else {
            qdd::check_equivalence_construct(&mut package, g, g_prime, &budget)
        }
    };
    match result {
        Ok(DdEquivalence::Equivalent) => FunctionalVerdict::Equivalent,
        // Under the strict notion a global phase is a difference.
        Ok(DdEquivalence::EquivalentUpToGlobalPhase { .. })
            if config.criterion == Criterion::Strict =>
        {
            FunctionalVerdict::NotEquivalent
        }
        Ok(DdEquivalence::EquivalentUpToGlobalPhase { phase }) => {
            FunctionalVerdict::EquivalentUpToGlobalPhase { phase }
        }
        Ok(DdEquivalence::NotEquivalent) => FunctionalVerdict::NotEquivalent,
        Err(DdCheckAbort::Timeout { .. }) => FunctionalVerdict::Aborted(AbortReason::Timeout),
        Err(DdCheckAbort::NodeLimit(_)) => FunctionalVerdict::Aborted(AbortReason::NodeLimit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;
    use std::time::Duration;

    #[test]
    fn equivalent_mapped_circuit() {
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let v = run_functional_check(&g, &routed.circuit, &Config::default());
        assert_eq!(v, FunctionalVerdict::Equivalent);
    }

    #[test]
    fn strict_criterion_rejects_global_phase() {
        let mut a = qcirc::Circuit::new(2);
        a.h(0);
        let mut b = a.clone();
        b.rz(2.0 * std::f64::consts::PI, 0);
        for backend in [BackendKind::Statevector, BackendKind::Mps] {
            for fb in [Fallback::Alternating, Fallback::ConstructAndCompare] {
                let relaxed = Config::default().with_backend(backend).with_fallback(fb);
                let strict = relaxed.clone().with_criterion(Criterion::Strict);
                assert_eq!(
                    run_functional_check(&a, &b, &strict),
                    FunctionalVerdict::NotEquivalent,
                    "{backend:?} {fb:?}"
                );
                assert!(
                    matches!(
                        run_functional_check(&a, &b, &relaxed),
                        FunctionalVerdict::EquivalentUpToGlobalPhase { .. }
                    ),
                    "{backend:?} {fb:?}"
                );
            }
        }
    }

    #[test]
    fn disabled_fallback_aborts() {
        let g = generators::ghz(2);
        let config = Config::default().with_fallback(Fallback::None);
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::FallbackDisabled)
        );
    }

    #[test]
    fn timeout_aborts() {
        let g = generators::supremacy_2d(3, 3, 12, 2);
        let config = Config::default().with_deadline(Some(Duration::ZERO));
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::Timeout)
        );
    }

    #[test]
    fn node_limit_aborts() {
        let g = generators::supremacy_2d(3, 4, 10, 3);
        let config = Config::default()
            .with_dd_node_limit(100)
            .with_fallback(Fallback::ConstructAndCompare);
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::NodeLimit)
        );
    }

    #[test]
    fn both_fallbacks_detect_errors() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        for fb in [Fallback::Alternating, Fallback::ConstructAndCompare] {
            let config = Config::default().with_fallback(fb);
            assert_eq!(
                run_functional_check(&g, &buggy, &config),
                FunctionalVerdict::NotEquivalent,
                "{fb:?}"
            );
        }
    }

    #[test]
    fn mps_backend_proves_and_refutes_exactly() {
        // n = 4 caps the MPO bond dimension at 4² = 16 < chi_max, so the
        // run is exact and the verdict keeps its class.
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let mut buggy = g.clone();
        buggy.t(2);
        for fb in [Fallback::Alternating, Fallback::ConstructAndCompare] {
            let config = Config::default()
                .with_backend(BackendKind::Mps)
                .with_fallback(fb);
            assert_eq!(
                run_functional_check(&g, &routed.circuit, &config),
                FunctionalVerdict::Equivalent,
                "{fb:?}"
            );
            assert_eq!(
                run_functional_check(&g, &buggy, &config),
                FunctionalVerdict::NotEquivalent,
                "{fb:?}"
            );
        }
    }

    #[test]
    fn mps_truncated_runs_never_claim_equivalence() {
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let config = Config::default()
            .with_backend(BackendKind::Mps)
            .with_chi_max(1);
        let v = run_functional_check(&g, &routed.circuit, &config);
        assert!(
            matches!(
                v,
                FunctionalVerdict::NotEquivalent
                    | FunctionalVerdict::Aborted(AbortReason::Truncation { .. })
            ),
            "χ = 1 forces truncation, so the verdict must not be a proof: {v:?}"
        );
    }

    #[test]
    fn mps_timeout_aborts() {
        let g = generators::supremacy_2d(3, 3, 12, 2);
        let config = Config::default()
            .with_backend(BackendKind::Mps)
            .with_deadline(Some(Duration::ZERO));
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::Timeout)
        );
    }
}

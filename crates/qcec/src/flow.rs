//! The proposed equivalence checking flow (paper Fig. 3).

use std::borrow::Cow;
use std::fmt;

use qcirc::Circuit;

use crate::backend::auto_backend;
use crate::config::{BackendKind, Config};
use crate::outcome::FlowResult;
use crate::scheduler::{run_scheduled, RunEvent};

/// Error returned when the inputs cannot be compared at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The circuits act on different numbers of qubits. Widen the smaller
    /// one ([`Circuit::widened`]) if the extra qubits are intentional
    /// ancillas.
    QubitCountMismatch {
        /// Qubits of `G`.
        left: usize,
        /// Qubits of `G'`.
        right: usize,
    },
    /// The decision-diagram simulation backend exceeded its node limit (the
    /// statevector backend never fails).
    SimulationOverflow {
        /// The configured node limit.
        node_limit: usize,
    },
    /// The engine would probe a register wider than dense buffers can
    /// hold ([`qsim::StateVector::MAX_QUBITS`]): the statevector backend
    /// always probes densely, the stab backend on its dense fallback. The
    /// check stops before any stage starts.
    RegisterTooWide {
        /// Qubits of the circuits.
        n_qubits: usize,
        /// The widest register dense probes support.
        max_qubits: usize,
        /// The engine that would have probed densely.
        backend: BackendKind,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::QubitCountMismatch { left, right } => write!(
                f,
                "circuits act on different registers ({left} vs {right} qubits); widen the smaller circuit if ancillas are intended"
            ),
            FlowError::SimulationOverflow { node_limit } => write!(
                f,
                "decision-diagram simulation exceeded the node limit of {node_limit}; raise it or use the statevector backend"
            ),
            FlowError::RegisterTooWide {
                n_qubits,
                max_qubits,
                backend: BackendKind::Stab,
            } => write!(
                f,
                "the stab backend's dense fallback (taken for non-Clifford gates, product stimuli and the strict criterion) supports at most {max_qubits} qubits, but the circuits act on {n_qubits}; use the dd or mps backend"
            ),
            FlowError::RegisterTooWide {
                n_qubits,
                max_qubits,
                ..
            } => write!(
                f,
                "the statevector backend supports at most {max_qubits} qubits, but the circuits act on {n_qubits}; use the dd, stab, mps or auto backend"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

/// Checks the equivalence of two circuits with the paper's flow:
///
/// 1. **Simulate** `r ≪ 2ⁿ` random computational basis states through both
///    circuits, comparing the outputs. Any disagreement proves
///    non-equivalence with a concrete counterexample — in practice this
///    fires on the *first* run for realistic errors (Section IV-A).
/// 2. **Fall back** to a complete DD-based equivalence check under the
///    configured deadline/node budget.
/// 3. If the complete check cannot finish, report **probably equivalent**:
///    unlike the state of the art's bare timeout, the `r` agreeing
///    simulations make an actual error very unlikely.
///
/// The flow runs on the [`scheduler`](crate::scheduler): the stimuli fan
/// out across `config.threads` workers, the calling thread being one of
/// them, and the complete check then runs on the calling thread. The
/// verdict is deterministic per seed at any thread count.
///
/// # Errors
///
/// Returns [`FlowError`] if the circuits have different qubit counts, if
/// the statevector backend or the stab backend's dense fallback would
/// probe a register wider than [`qsim::StateVector::MAX_QUBITS`], or if
/// the decision-diagram *simulation* backend overflows its node budget.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qcec::FlowError> {
/// use qcec::{check_equivalence, Config};
///
/// let g = qcirc::generators::qft(4, true);
/// let mapped = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
/// let result = qcec::check_equivalence(&g, &mapped.circuit, &Config::default())?;
/// assert!(result.outcome.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<FlowResult, FlowError> {
    if g.n_qubits() != g_prime.n_qubits() {
        return Err(FlowError::QubitCountMismatch {
            left: g.n_qubits(),
            right: g_prime.n_qubits(),
        });
    }
    // Resolve the selector once, up front and on the pair as given, so
    // every stage below — simulations, workers, the complete check — sees
    // one concrete engine, and the choice is visible in the event stream.
    let config = resolve_auto(g, g_prime, config);
    if config.peel {
        // Strip the shared Clifford rim once, then run the whole flow —
        // simulations and complete check alike — on the residual pair
        // (sound under both criteria; see the `peel` module docs).
        let peeled = crate::peel::peel(g, g_prime);
        if peeled.stripped() > 0 {
            return run_scheduled(&peeled.g, &peeled.g_prime, &config);
        }
    }
    run_scheduled(g, g_prime, &config)
}

/// `config` with [`BackendKind::Auto`] replaced by the engine
/// [`auto_backend`] picks for the pair, the pick reported to the event
/// sink as [`RunEvent::BackendSelected`]; a concrete backend passes
/// through untouched (and unreported). The one place `Auto` is resolved.
pub(crate) fn resolve_auto<'c>(
    g: &Circuit,
    g_prime: &Circuit,
    config: &'c Config,
) -> Cow<'c, Config> {
    if config.backend != BackendKind::Auto {
        return Cow::Borrowed(config);
    }
    let backend = auto_backend(g, g_prime);
    if let Some(sink) = &config.event_sink {
        sink.record(RunEvent::BackendSelected { backend });
    }
    Cow::Owned(config.clone().with_backend(backend))
}

/// Convenience wrapper with the default configuration.
///
/// # Errors
///
/// See [`check_equivalence`].
pub fn check_equivalence_default(g: &Circuit, g_prime: &Circuit) -> Result<FlowResult, FlowError> {
    check_equivalence(g, g_prime, &Config::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fallback;
    use crate::outcome::{AbortReason, Outcome};
    use qcirc::generators;
    use qfault::{GuardCache, GuardOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    #[test]
    fn equivalent_design_flow_outputs() {
        // Original → decomposed → mapped → optimized: all equivalent.
        let g = generators::qft(5, true);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
        let mapped =
            qcirc::mapping::route_or_panic(&lowered, &qcirc::mapping::CouplingMap::linear(5));
        let optimized = qcirc::optimize::optimize(&mapped.circuit);
        let result = check_equivalence_default(&g, &optimized).unwrap();
        assert!(result.outcome.is_equivalent(), "{}", result.outcome);
        assert_eq!(result.stats.simulations_run, 10);
    }

    #[test]
    fn injected_errors_are_found_by_simulation() {
        let g = generators::grover(5, 17, 3);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
        let guard = GuardCache::new(&lowered, &GuardOptions::default());
        let mut rng = StdRng::seed_from_u64(11);
        for mutator in qfault::registry(0.1) {
            let (buggy, record) = mutator.apply(&lowered, &mut rng).unwrap();
            let result = check_equivalence_default(&lowered, &buggy).unwrap();
            if guard.classify(&buggy).is_benign() {
                assert!(result.outcome.is_equivalent(), "benign '{record}' flagged");
                continue;
            }
            match &result.outcome {
                Outcome::NotEquivalent {
                    counterexample: Some(ce),
                } => {
                    assert!(ce.run <= 10, "error '{record}' needed more than r runs");
                }
                other => panic!("error '{record}' not detected: {other}"),
            }
        }
    }

    #[test]
    fn most_errors_fall_to_the_first_simulation() {
        // The paper's headline observation: #sims = 1 in almost every row.
        let g = generators::trotter_heisenberg(2, 4, 2, 0.13, 0.7);
        let guard = GuardCache::new(&g, &GuardOptions::default());
        let mutators = qfault::registry(0.1);
        let total = 20;
        let mut faults = 0;
        let mut first_run_hits = 0;
        for seed in 0..total {
            let mut rng = StdRng::seed_from_u64(seed);
            let mutator = &mutators[seed as usize % mutators.len()];
            let (buggy, _) = mutator.apply(&g, &mut rng).unwrap();
            if !guard.classify(&buggy).is_fault() {
                continue;
            }
            faults += 1;
            let result = check_equivalence_default(&g, &buggy).unwrap();
            if let Outcome::NotEquivalent {
                counterexample: Some(ce),
            } = &result.outcome
            {
                if ce.run == 1 {
                    first_run_hits += 1;
                }
            }
        }
        assert!(
            first_run_hits >= total * 7 / 10,
            "only {first_run_hits}/{total} errors ({faults} guard-confirmed) caught on run 1"
        );
    }

    #[test]
    fn timeout_yields_probably_equivalent() {
        let g = generators::supremacy_2d(3, 3, 8, 5);
        let config = Config::default()
            .with_deadline(Some(Duration::ZERO))
            .with_simulations(3);
        let result = check_equivalence(&g, &g, &config).unwrap();
        match result.outcome {
            Outcome::ProbablyEquivalent {
                passed_simulations,
                abort,
            } => {
                assert_eq!(passed_simulations, 3);
                assert_eq!(abort, AbortReason::Timeout);
            }
            other => panic!("expected probably-equivalent, got {other}"),
        }
    }

    #[test]
    fn fallback_none_reports_probably_equivalent() {
        let g = generators::ghz(4);
        let config = Config::default().with_fallback(Fallback::None);
        let result = check_equivalence(&g, &g, &config).unwrap();
        assert!(matches!(
            result.outcome,
            Outcome::ProbablyEquivalent {
                abort: AbortReason::FallbackDisabled,
                ..
            }
        ));
    }

    #[test]
    fn qubit_mismatch_is_an_error() {
        let a = generators::ghz(3);
        let b = generators::ghz(4);
        let e = check_equivalence_default(&a, &b).unwrap_err();
        assert!(matches!(
            e,
            FlowError::QubitCountMismatch { left: 3, right: 4 }
        ));
        assert!(e.to_string().contains("different registers"));
    }

    #[test]
    fn ancilla_decomposition_checks_after_widening() {
        let g = generators::grover(5, 9, 1);
        let lowered = qcirc::decompose::decompose_with_dirty_ancillas(&g);
        assert!(lowered.n_qubits() > g.n_qubits());
        let widened = g.widened(lowered.n_qubits());
        let result = check_equivalence_default(&widened, &lowered).unwrap();
        assert!(result.outcome.is_equivalent(), "{}", result.outcome);
    }

    #[test]
    fn stats_record_early_exit() {
        let g = generators::qft(6, true);
        let mut buggy = g.clone();
        buggy.x(0);
        let result = check_equivalence_default(&g, &buggy).unwrap();
        assert_eq!(result.stats.simulations_run, 1);
        assert_eq!(result.stats.functional_time, Duration::ZERO);
        assert!(result.to_string().contains("not equivalent"));
    }

    #[test]
    fn auto_backend_is_resolved_once_and_logged() {
        use crate::scheduler::{CollectingSink, RunEvent};
        use std::sync::Arc;
        let sink = Arc::new(CollectingSink::new());
        let config = Config::default()
            .with_backend(BackendKind::Auto)
            .with_event_sink(sink.clone());
        let g = generators::qft(4, true);
        let opt = qcirc::optimize::optimize(&g);
        let result = check_equivalence(&g, &opt, &config).unwrap();
        assert!(result.outcome.is_equivalent());
        let selected: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::BackendSelected { backend } => Some(*backend),
                _ => None,
            })
            .collect();
        assert_eq!(
            selected,
            vec![BackendKind::Statevector],
            "n = 4 non-Clifford resolves to the dense engine, exactly once"
        );
    }

    #[test]
    fn mps_flow_checks_equivalence_end_to_end() {
        let g = generators::qft(4, true);
        let mapped = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let config = Config::default().with_backend(BackendKind::Mps);
        let result = check_equivalence(&g, &mapped.circuit, &config).unwrap();
        assert!(result.outcome.is_equivalent(), "{}", result.outcome);
        let mut buggy = g.clone();
        buggy.s(2);
        let result = check_equivalence(&g, &buggy, &config).unwrap();
        assert!(result.outcome.is_not_equivalent(), "{}", result.outcome);
    }

    #[test]
    fn truncated_simulations_surface_as_truncation_abort() {
        // χ = 1 forces truncation inside every probe of an entangling
        // pair; with no complete check configured the flow must report the
        // accumulated error, never plain equivalence (and never the bare
        // "no fallback" notice that would hide the truncation). GHZ, not
        // QFT: a QFT probe from a basis state stays a product state.
        let g = generators::ghz(6);
        let config = Config::default()
            .with_backend(BackendKind::Mps)
            .with_chi_max(1)
            .with_fallback(Fallback::None);
        let result = check_equivalence(&g, &g, &config).unwrap();
        match result.outcome {
            Outcome::ProbablyEquivalent {
                abort: AbortReason::Truncation { error },
                ..
            } => assert!(error > 0.0),
            Outcome::NotEquivalent { .. } => {}
            other => panic!("truncated run must not claim equivalence: {other}"),
        }
    }
}

//! The simulation stage of the flow: `r` random stimuli, early exit on
//! the first counterexample. The stage itself runs in the
//! [`scheduler`](crate::scheduler); this module holds its public entry
//! points, the stimulus draw and the judge.

use qcirc::Circuit;
use qnum::Complex;
use qstim::{
    BasisSource, ProductSource, SequentialSource, StabilizerSource, Stimulus, StimulusSource,
};

use crate::backend::{with_engine, EngineTask, SimBackend};
use crate::config::{Config, Criterion, StimulusStrategy};
use crate::flow::resolve_auto;
use crate::outcome::Counterexample;

/// Outcome of the simulation stage.
#[derive(Debug, Clone, PartialEq)]
pub enum SimVerdict {
    /// A differing stimulus was found — non-equivalence is proven.
    CounterexampleFound(Counterexample),
    /// All runs agreed.
    AllAgreed {
        /// The number of runs performed.
        runs: usize,
        /// The truncation error accumulated across all probes — `0.0`
        /// (the exactness certificate) on every backend except a
        /// bond-limited MPS run. When non-zero, "all agreed" was judged
        /// against a tolerance widened by the accumulated error and the
        /// agreement is evidence, not proof.
        truncation_error: f64,
    },
}

/// Runs up to `config.simulations` random stimulus simulations of both
/// circuits on the engine `config.backend` names, comparing outputs per
/// the configured criterion — the flow's simulation stage without the
/// complete check, on `config.threads` workers.
///
/// Under the default [`StimulusStrategy::Random`] the stimuli are distinct
/// uniformly random basis states; for small registers (`2ⁿ ≤ r`) every
/// basis state is enumerated instead, making the stage a *complete* check
/// by itself. [`StimulusStrategy::Product`] and
/// [`StimulusStrategy::Stabilizer`] instead prepare non-classical input
/// states through a seeded prefix circuit applied to both `G` and `G'`.
///
/// # Errors
///
/// Returns [`qdd::DdLimitError`] only with the decision-diagram backend,
/// when a simulation exceeds the node limit.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
pub fn run_simulations(
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<SimVerdict, qdd::DdLimitError> {
    with_engine(Simulations, g, g_prime, &resolve_auto(g, g_prime, config))
}

/// [`run_simulations_on`] as an [`EngineTask`].
struct Simulations;

impl EngineTask for Simulations {
    type Output = Result<SimVerdict, qdd::DdLimitError>;

    fn run<B: SimBackend>(
        self,
        backend: &B,
        g: &Circuit,
        g_prime: &Circuit,
        config: &Config,
    ) -> Self::Output {
        run_simulations_on(backend, g, g_prime, config)
    }
}

/// The backend-generic body of [`run_simulations`]: the flow's simulation
/// stage with the probe engine injected as any [`SimBackend`] — one
/// workspace per worker, one judge reading the overlaps in stimulus
/// order. Emits the stage's [`RunEvent`](crate::scheduler::RunEvent)s to
/// `config.event_sink`.
///
/// # Errors
///
/// Returns [`qdd::DdLimitError`] if the backend exhausts its node budget
/// before any stimulus proves non-equivalence.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
pub fn run_simulations_on<B: SimBackend>(
    backend: &B,
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<SimVerdict, qdd::DdLimitError> {
    assert_eq!(
        g.n_qubits(),
        g_prime.n_qubits(),
        "circuits must have equal qubit counts"
    );
    crate::scheduler::simulate(backend, g, g_prime, config)
}

/// Draws the full stimulus list for one flow invocation: the seeded
/// stimulus stream depends only on the configuration, never on scheduling
/// — the simulation stage pre-draws through this same function, which is
/// what keeps parallel verdicts deterministic.
///
/// This is the crate's single dispatch point from
/// [`StimulusStrategy`] onto the [`qstim`] generators, exposed so external
/// tools (campaign runners, fixture audits) can reproduce exactly the
/// stimuli a flow invocation will use.
///
/// # Examples
///
/// ```
/// use qcec::{Config, StimulusStrategy};
///
/// let config = Config::new().with_seed(7).with_simulations(4);
/// let basis = qcec::draw_stimuli(5, &config);
/// assert_eq!(basis.len(), 4);
/// let stab = qcec::draw_stimuli(
///     5,
///     &config.with_stimuli(StimulusStrategy::Stabilizer),
/// );
/// assert!(stab.iter().all(|s| s.kind() == "stabilizer"));
/// ```
#[must_use]
pub fn draw_stimuli(n_qubits: usize, config: &Config) -> Vec<Stimulus> {
    let source: &dyn StimulusSource = match config.stimuli {
        StimulusStrategy::Random => &BasisSource,
        StimulusStrategy::Sequential => &SequentialSource,
        StimulusStrategy::Product => &ProductSource,
        StimulusStrategy::Stabilizer => &StabilizerSource,
    };
    source.draw(n_qubits, config.seed, config.simulations)
}

/// Stateful per-run comparison.
///
/// Under [`Criterion::UpToGlobalPhase`] a single run only checks
/// `|⟨u|u′⟩| = 1`; a diagonal error that leaves each *basis* input in a
/// pure phase would slip through every run individually. Soundness comes
/// from the cross-run condition: `U' = e^{iφ}U` forces the *same* overlap
/// phase on every column, so the judge records the first run's phase and
/// flags any later run that disagrees
/// ([`Mismatch::PhaseInconsistency`](crate::Mismatch)).
pub(crate) struct Judge<'a> {
    config: &'a Config,
    expected_phase: Option<Complex>,
    truncation: f64,
}

/// How many units of accumulated truncation error widen the judge's
/// tolerance. Matches the engine-side window in `qmpo`: a bond-limited
/// probe can move each overlap by O(ε) in the worst case, so agreement is
/// only judged outside that slack.
pub(crate) const TRUNCATION_SLACK: f64 = 8.0;

impl<'a> Judge<'a> {
    pub(crate) fn new(config: &'a Config) -> Self {
        Judge {
            config,
            expected_phase: None,
            truncation: 0.0,
        }
    }

    /// The truncation error accumulated over all observed runs, in
    /// stimulus order (which keeps parallel verdicts deterministic — the
    /// scheduler's workers feed the judge in that same order).
    pub(crate) fn truncation_error(&self) -> f64 {
        self.truncation
    }

    /// The per-run half of [`Judge::observe`]: whether `overlap` alone
    /// fails `criterion` at `tolerance`. Scheduler workers of exact engines
    /// apply it the moment a probe returns; cross-run phase consistency
    /// needs the whole prefix and is left to the judge.
    pub(crate) fn output_mismatch(criterion: Criterion, overlap: Complex, tolerance: f64) -> bool {
        match criterion {
            // ⟨u|u′⟩ = 1 exactly (within tolerance).
            Criterion::Strict => beyond((overlap - Complex::ONE).norm_sqr(), tolerance),
            Criterion::UpToGlobalPhase => beyond((overlap.norm_sqr() - 1.0).abs(), tolerance),
        }
    }

    pub(crate) fn observe(
        &mut self,
        overlap: Complex,
        truncation_error: f64,
        stimulus: &Stimulus,
        run: usize,
    ) -> Option<Counterexample> {
        use crate::outcome::Mismatch;
        self.truncation += truncation_error;
        let tolerance = self.config.fidelity_tolerance + TRUNCATION_SLACK * self.truncation;
        let ce = |mismatch: Mismatch| Counterexample {
            stimulus: stimulus.clone(),
            overlap,
            fidelity: overlap.norm_sqr(),
            run,
            mismatch,
        };
        if Self::output_mismatch(self.config.criterion, overlap, tolerance) {
            return Some(ce(Mismatch::Output));
        }
        if self.config.criterion == Criterion::UpToGlobalPhase {
            match self.expected_phase {
                None => self.expected_phase = Some(overlap),
                Some(expected) => {
                    if beyond((overlap - expected).norm_sqr(), tolerance) {
                        return Some(ce(Mismatch::PhaseInconsistency {
                            expected: expected.arg(),
                            found: overlap.arg(),
                        }));
                    }
                }
            }
        }
        None
    }
}

/// Whether `deviation` fails to lie within `tolerance`. Written as a
/// negated `<=` so that a NaN deviation (say, from a non-finite gate angle)
/// is a mismatch: no comparison with NaN holds, so it can never pass for
/// agreement.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn beyond(deviation: f64, tolerance: f64) -> bool {
    !(deviation <= tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendKind;
    use qcirc::generators;

    #[test]
    fn equivalent_circuits_pass_all_runs() {
        let g = generators::qft(4, true);
        let opt = qcirc::optimize::optimize(&g);
        let v = run_simulations(&g, &opt, &Config::default()).unwrap();
        assert_eq!(
            v,
            SimVerdict::AllAgreed {
                runs: 10,
                truncation_error: 0.0
            }
        );
    }

    #[test]
    fn single_qubit_error_is_caught_first_run() {
        let g = generators::qft(5, true);
        let mut buggy = g.clone();
        buggy.x(3);
        let v = run_simulations(&g, &buggy, &Config::default()).unwrap();
        match v {
            SimVerdict::CounterexampleFound(ce) => {
                assert_eq!(ce.run, 1, "a 1q error affects every column");
                assert!(ce.fidelity < 1.0 - 1e-6);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn small_registers_enumerate_every_basis_state() {
        let mut a = qcirc::Circuit::new(2);
        a.h(0);
        // b differs only on the |11⟩-ish column: a CZ.
        let mut b = a.clone();
        b.cz(0, 1);
        let v = run_simulations(&a, &b, &Config::default().with_simulations(10)).unwrap();
        // 2² = 4 ≤ 10 → full enumeration must find the difference.
        assert!(matches!(v, SimVerdict::CounterexampleFound(_)));
    }

    #[test]
    fn global_phase_handling_differs_by_criterion() {
        let mut a = qcirc::Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = a.clone();
        b.rz(2.0 * std::f64::consts::PI, 1); // global −1
        let strict = Config::default().with_criterion(Criterion::Strict);
        let v = run_simulations(&a, &b, &strict).unwrap();
        assert!(matches!(v, SimVerdict::CounterexampleFound(_)));
        let phased = Config::default().with_criterion(Criterion::UpToGlobalPhase);
        let v = run_simulations(&a, &b, &phased).unwrap();
        assert!(matches!(v, SimVerdict::AllAgreed { .. }));
    }

    #[test]
    fn non_finite_overlaps_never_count_as_agreement() {
        let mut g = qcirc::Circuit::new(2);
        g.h(0).cx(0, 1);
        let mut nan = g.clone();
        nan.rz(f64::NAN, 0);
        for backend in [BackendKind::Statevector, BackendKind::Stab] {
            for criterion in [Criterion::Strict, Criterion::UpToGlobalPhase] {
                let config = Config::default()
                    .with_backend(backend)
                    .with_criterion(criterion)
                    .with_fallback(crate::Fallback::None);
                let result = crate::check_equivalence(&g, &nan, &config).unwrap();
                assert!(
                    result.outcome.is_not_equivalent(),
                    "{backend:?} {criterion:?}: {}",
                    result.outcome
                );
            }
        }
    }

    #[test]
    fn dd_backend_agrees_with_statevector() {
        let g = generators::grover(4, 3, 2);
        let mut buggy = g.clone();
        buggy.s(1);
        for backend in BackendKind::ALL {
            let config = Config::default().with_backend(backend).with_seed(5);
            let v = run_simulations(&g, &buggy, &config).unwrap();
            assert!(
                matches!(v, SimVerdict::CounterexampleFound(_)),
                "backend {backend:?}"
            );
            let v = run_simulations(&g, &g, &config).unwrap();
            assert!(matches!(v, SimVerdict::AllAgreed { .. }));
        }
    }

    #[test]
    fn dd_backend_agrees_with_statevector_on_nonclassical_stimuli() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        for strategy in [StimulusStrategy::Product, StimulusStrategy::Stabilizer] {
            let config = Config::default().with_stimuli(strategy).with_seed(11);
            let sv = run_simulations(&g, &buggy, &config).unwrap();
            let dd = run_simulations(
                &g,
                &buggy,
                &config.clone().with_backend(BackendKind::DecisionDiagram),
            )
            .unwrap();
            // Both backends judge the same pre-drawn stimuli, so the
            // decisive run (and the witnessing stimulus) must match.
            match (&sv, &dd) {
                (SimVerdict::CounterexampleFound(a), SimVerdict::CounterexampleFound(b)) => {
                    assert_eq!(a.run, b.run, "strategy {strategy:?}");
                    assert_eq!(a.stimulus, b.stimulus, "strategy {strategy:?}");
                    assert!((a.fidelity - b.fidelity).abs() < 1e-9);
                }
                other => panic!("expected matching counterexamples, got {other:?}"),
            }
        }
    }

    #[test]
    fn basis_dependent_phases_are_caught_by_consistency_tracking() {
        // An S gate on a qubit that stays classical turns every basis input
        // into a pure phase (i^b): each run individually looks like "equal
        // up to global phase", but the phases differ across runs.
        let a = qcirc::Circuit::new(2);
        let mut b = qcirc::Circuit::new(2);
        b.s(0);
        let config = Config::default().with_simulations(4);
        let v = run_simulations(&a, &b, &config).unwrap();
        match v {
            SimVerdict::CounterexampleFound(ce) => {
                assert!(matches!(
                    ce.mismatch,
                    crate::outcome::Mismatch::PhaseInconsistency { .. }
                ));
                assert!((ce.fidelity - 1.0).abs() < 1e-9);
            }
            other => panic!("diagonal error slipped through: {other:?}"),
        }
        // The same pair on the DD backend.
        let config = config.with_backend(BackendKind::DecisionDiagram);
        let v = run_simulations(&a, &b, &config).unwrap();
        assert!(matches!(v, SimVerdict::CounterexampleFound(_)));
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let g = generators::supremacy_2d(2, 3, 6, 1);
        let mut buggy = g.clone();
        buggy.z(4);
        let config = Config::default().with_seed(42);
        let a = run_simulations(&g, &buggy, &config).unwrap();
        let b = run_simulations(&g, &buggy, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_simulations_always_agree() {
        let g = generators::ghz(3);
        let mut buggy = g.clone();
        buggy.x(0);
        let config = Config::default().with_simulations(0);
        let v = run_simulations(&g, &buggy, &config).unwrap();
        assert_eq!(
            v,
            SimVerdict::AllAgreed {
                runs: 0,
                truncation_error: 0.0
            }
        );
    }

    #[test]
    fn sequential_strategy_misses_high_controlled_errors() {
        // An error gated on the top qubits being |1⟩ lives in the highest
        // columns; sequential stimuli |0⟩, |1⟩, … never reach them, while
        // random stimuli have a fair chance. This is the ablation that
        // justifies the paper's *random* choice.
        let n = 10;
        let g = qcirc::Circuit::new(n);
        let mut buggy = qcirc::Circuit::new(n);
        buggy.mcz((0..n - 1).collect(), n - 1);
        let sequential = Config::default()
            .with_stimuli(StimulusStrategy::Sequential)
            .with_simulations(16);
        let v = run_simulations(&g, &buggy, &sequential).unwrap();
        assert!(
            matches!(v, SimVerdict::AllAgreed { .. }),
            "sequential stimuli cannot reach the corrupted columns"
        );
        // Random stimuli find it eventually (with enough runs).
        let random = Config::default().with_simulations(1000).with_seed(3);
        let v = run_simulations(&g, &buggy, &random).unwrap();
        assert!(matches!(v, SimVerdict::CounterexampleFound(_)));
    }

    #[test]
    fn nonclassical_stimuli_catch_what_basis_stimuli_miss() {
        // The same highly-controlled fault as above: basis stimuli hit the
        // corrupted column with probability 2^{1-n} per run, while product
        // and stabilizer states overlap many columns at once, so the
        // fidelity deficit shows up within a handful of runs (a product
        // state sees every column; a stabilizer state may have zero
        // support on the one corrupted column, but not ten times in a row).
        let n = 10;
        let g = qcirc::Circuit::new(n);
        let mut buggy = qcirc::Circuit::new(n);
        buggy.mcz((0..n - 1).collect(), n - 1);
        let basis = Config::default().with_simulations(10).with_seed(0);
        let v = run_simulations(&g, &buggy, &basis).unwrap();
        assert!(
            matches!(v, SimVerdict::AllAgreed { .. }),
            "10 random basis states should miss a 9-controlled fault"
        );
        for strategy in [StimulusStrategy::Product, StimulusStrategy::Stabilizer] {
            let config = Config::default()
                .with_stimuli(strategy)
                .with_simulations(10)
                .with_seed(0);
            let v = run_simulations(&g, &buggy, &config).unwrap();
            match v {
                SimVerdict::CounterexampleFound(ce) => {
                    assert!(ce.run <= 10, "strategy {strategy:?} took {} runs", ce.run);
                }
                other => panic!("strategy {strategy:?} missed the fault: {other:?}"),
            }
        }
    }

    #[test]
    fn drawn_stimuli_match_their_strategy() {
        let config = Config::default().with_simulations(6).with_seed(9);
        for (strategy, kind) in [
            (StimulusStrategy::Random, "basis"),
            (StimulusStrategy::Sequential, "basis"),
            (StimulusStrategy::Product, "product"),
            (StimulusStrategy::Stabilizer, "stabilizer"),
        ] {
            let stimuli = draw_stimuli(8, &config.clone().with_stimuli(strategy));
            assert_eq!(stimuli.len(), 6, "{strategy}");
            assert!(stimuli.iter().all(|s| s.kind() == kind), "{strategy}");
        }
    }

    #[test]
    fn chosen_bases_are_distinct() {
        let config = Config::default().with_simulations(50).with_seed(1);
        let stimuli = draw_stimuli(20, &config);
        let mut bases: Vec<u64> = stimuli.iter().map(Stimulus::basis_state).collect();
        assert_eq!(bases.len(), 50);
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 50);
    }
}

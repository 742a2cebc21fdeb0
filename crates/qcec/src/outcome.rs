//! Results of the equivalence checking flow.

use std::fmt;
use std::time::Duration;

use qnum::Complex;
use qstim::Stimulus;

/// How a simulation run witnessed non-equivalence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mismatch {
    /// The output states differ in magnitude of overlap: `|⟨uᵢ|uᵢ′⟩| ≠ 1`.
    Output,
    /// Each run's outputs agreed up to a phase, but the phases of two runs
    /// differ — no *single* global phase `e^{iφ}` relates `U` and `U'`
    /// (this catches diagonal errors that look like a global phase on every
    /// individual basis state).
    PhaseInconsistency {
        /// The overlap phase established by an earlier run.
        expected: f64,
        /// The conflicting phase of this run.
        found: f64,
    },
}

/// A witness of non-equivalence found by simulation: a stimulus (basis,
/// product or stabilizer input state) on which the two circuits produce
/// different outputs (or an inconsistent output phase).
///
/// The witness is engine-independent: whichever
/// [`SimBackend`](crate::backend::SimBackend) found it, replaying the
/// stimulus on *any* backend reproduces the disagreement (see
/// [`diagnose::explain_for`](crate::diagnose::explain_for)).
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The input stimulus that exposed the difference. For the classical
    /// strategies this is [`Stimulus::Basis`]; the non-classical
    /// strategies carry the preparation recipe (angles or Clifford
    /// prefix), so the witness stays replayable.
    pub stimulus: Stimulus,
    /// The overlap `⟨uᵢ|uᵢ′⟩` of the two outputs.
    pub overlap: Complex,
    /// The fidelity `|⟨uᵢ|uᵢ′⟩|²`.
    pub fidelity: f64,
    /// Which simulation run (1-based) found it — the paper's `#sims`.
    pub run: usize,
    /// What kind of disagreement was observed.
    pub mismatch: Mismatch,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mismatch {
            Mismatch::Output => write!(
                f,
                "stimulus {} yields fidelity {:.6} (run {})",
                self.stimulus, self.fidelity, self.run
            ),
            Mismatch::PhaseInconsistency { expected, found } => write!(
                f,
                "stimulus {} yields phase {:.4} where earlier runs gave {:.4} (run {})",
                self.stimulus, found, expected, self.run
            ),
        }
    }
}

/// Why the complete check did not finish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbortReason {
    /// The wall-clock deadline elapsed.
    Timeout,
    /// The decision-diagram node limit was exceeded.
    NodeLimit,
    /// The configuration requested no complete check
    /// ([`Fallback::None`](crate::Fallback::None)).
    FallbackDisabled,
    /// The tensor-network engine truncated bond dimensions along the way
    /// (`χ` exceeded [`Config::chi_max`](crate::Config::chi_max)), so "no
    /// difference found" is evidence, not proof — the flow never claims
    /// plain equivalence from a truncated run.
    Truncation {
        /// The accumulated truncation error (sum of discarded
        /// squared-singular-value weight fractions).
        error: f64,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Timeout => write!(f, "timeout"),
            AbortReason::NodeLimit => write!(f, "node limit"),
            AbortReason::FallbackDisabled => write!(f, "no fallback configured"),
            AbortReason::Truncation { error } => {
                write!(f, "bond truncation (accumulated error {error:.3e})")
            }
        }
    }
}

/// The verdict of the flow — the three outcomes of the paper's Fig. 3, with
/// the global-phase flavour reported separately.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Proven equivalent (complete check finished, matrices identical).
    Equivalent,
    /// Proven equivalent up to a single global phase factor.
    EquivalentUpToGlobalPhase {
        /// The phase `φ` with `U' = e^{iφ}·U`.
        phase: f64,
    },
    /// Proven non-equivalent — almost always with a simulation
    /// counterexample (`None` only when the complete check found the
    /// difference after all simulations agreed).
    NotEquivalent {
        /// The witnessing basis state, if simulation found one.
        counterexample: Option<Counterexample>,
    },
    /// All simulations agreed but the complete check did not finish: a
    /// highly probable (yet unproven) equivalence — the paper's improved
    /// "timeout" outcome.
    ProbablyEquivalent {
        /// How many agreeing simulations back the estimate.
        passed_simulations: usize,
        /// Why the complete check stopped.
        abort: AbortReason,
    },
}

impl Outcome {
    /// Returns `true` for proven equivalence (either flavour).
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        matches!(
            self,
            Outcome::Equivalent | Outcome::EquivalentUpToGlobalPhase { .. }
        )
    }

    /// Returns `true` for proven non-equivalence.
    #[must_use]
    pub fn is_not_equivalent(&self) -> bool {
        matches!(self, Outcome::NotEquivalent { .. })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Equivalent => write!(f, "equivalent"),
            Outcome::EquivalentUpToGlobalPhase { phase } => {
                write!(f, "equivalent up to global phase {phase:.6}")
            }
            Outcome::NotEquivalent {
                counterexample: Some(ce),
            } => write!(f, "not equivalent: {ce}"),
            Outcome::NotEquivalent {
                counterexample: None,
            } => write!(f, "not equivalent (found by the complete check)"),
            Outcome::ProbablyEquivalent {
                passed_simulations,
                abort,
            } => write!(
                f,
                "probably equivalent ({passed_simulations} agreeing simulations; complete check aborted: {abort})"
            ),
        }
    }
}

/// Timing and effort statistics of one flow invocation — the quantities of
/// the paper's Table I (`#sims`, `t_sim`, `t_ec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Simulation runs actually performed.
    pub simulations_run: usize,
    /// Wall-clock time spent simulating (`t_sim`).
    pub simulation_time: Duration,
    /// Wall-clock time spent in the complete check (`t_ec`).
    pub functional_time: Duration,
}

/// The complete result: verdict plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// The verdict.
    pub outcome: Outcome,
    /// Effort breakdown.
    pub stats: FlowStats,
}

impl fmt::Display for FlowResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} sims, t_sim {:?}, t_ec {:?}]",
            self.outcome,
            self.stats.simulations_run,
            self.stats.simulation_time,
            self.stats.functional_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Equivalent.is_equivalent());
        assert!(Outcome::EquivalentUpToGlobalPhase { phase: 0.5 }.is_equivalent());
        assert!(!Outcome::Equivalent.is_not_equivalent());
        let ne = Outcome::NotEquivalent {
            counterexample: None,
        };
        assert!(ne.is_not_equivalent());
        assert!(!ne.is_equivalent());
        let pe = Outcome::ProbablyEquivalent {
            passed_simulations: 10,
            abort: AbortReason::Timeout,
        };
        assert!(!pe.is_equivalent());
        assert!(!pe.is_not_equivalent());
    }

    #[test]
    fn display_is_informative() {
        let ce = Counterexample {
            stimulus: Stimulus::Basis(5),
            overlap: Complex::ZERO,
            fidelity: 0.0,
            run: 1,
            mismatch: Mismatch::Output,
        };
        let o = Outcome::NotEquivalent {
            counterexample: Some(ce),
        };
        let s = o.to_string();
        assert!(s.contains("not equivalent"));
        assert!(s.contains("|5⟩"));
        let p = Outcome::ProbablyEquivalent {
            passed_simulations: 10,
            abort: AbortReason::NodeLimit,
        }
        .to_string();
        assert!(p.contains("probably equivalent"));
        assert!(p.contains("node limit"));
    }
}

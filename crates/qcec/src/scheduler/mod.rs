//! The one flow path: the simulation stage on a pool of worker threads,
//! then the complete check on the calling thread.
//!
//! The paper's flow is embarrassingly parallel in its first stage: the `r`
//! random basis-state simulations are independent, and the *first*
//! counterexample ends the whole run. Every check runs through this
//! module — [`check_equivalence`](crate::check_equivalence) and
//! [`run_simulations`](crate::run_simulations) alike. The pre-drawn
//! stimuli fan out across [`Config::threads`](crate::Config::threads)
//! workers: the calling thread always runs worker 0 and `threads − 1` more
//! are spawned, so `threads == 1` spawns nothing. Only when every
//! simulation agreed does the complete check run, inline, as in the
//! paper's Fig. 3.
//!
//! # Determinism
//!
//! For a fixed seed the verdict (and any simulation counterexample) is
//! deterministic regardless of worker count:
//!
//! * stimuli are **pre-drawn** before any thread starts, so the RNG stream
//!   never depends on scheduling;
//! * workers claim stimulus indices **in order** from a shared counter,
//!   and the failure watermark only abandons runs *above* the lowest
//!   failing index — every run up to the decisive one always completes;
//! * the flow's judge observes the overlaps **in stimulus order** as they
//!   land, and the first counterexample it reaches sets the watermark, so
//!   the reported counterexample is always the earliest failing stimulus;
//! * a decision-diagram node-budget overflow decides the stage only when
//!   no stimulus before it fails: a counterexample at a lower index wins.
//!
//! What *is* scheduling-dependent is how many superseded runs were already
//! in flight when the counterexample appeared — visible only through the
//! [`EventSink`].

mod events;
mod worker;

pub use events::{CollectingSink, EventSink, NullSink, RunEvent, Stage};

use std::sync::Arc;
use std::time::{Duration, Instant};

use qcirc::Circuit;

use crate::backend::{probes_densely, with_engine, EngineTask, SimBackend};
use crate::config::Config;
use crate::flow::{resolve_auto, FlowError};
use crate::functional::{run_functional_check, FunctionalVerdict};
use crate::outcome::{AbortReason, FlowResult, FlowStats, Outcome};
use crate::sim_check::{draw_stimuli, SimVerdict};

/// Runs the full flow (simulate, then complete check) on the engine
/// `config.backend` names, resolving
/// [`BackendKind::Auto`](crate::BackendKind::Auto) first.
///
/// [`check_equivalence`](crate::check_equivalence) calls this after
/// resolving `Auto` and peeling; calling it directly skips peeling.
///
/// # Errors
///
/// Returns [`FlowError`] if the circuits' qubit counts differ, if the
/// statevector backend or the stab backend's dense fallback would probe a
/// register wider than [`qsim::StateVector::MAX_QUBITS`], or if the
/// decision-diagram *simulation* backend overflows its node budget.
pub fn run_scheduled(
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<FlowResult, FlowError> {
    with_engine(Scheduled, g, g_prime, &resolve_auto(g, g_prime, config))
}

/// [`run_scheduled_on`] as an [`EngineTask`].
struct Scheduled;

impl EngineTask for Scheduled {
    type Output = Result<FlowResult, FlowError>;

    fn run<B: SimBackend>(
        self,
        backend: &B,
        g: &Circuit,
        g_prime: &Circuit,
        config: &Config,
    ) -> Self::Output {
        run_scheduled_on(backend, g, g_prime, config)
    }
}

/// The backend-generic body of [`run_scheduled`]: the simulation stage on
/// `config.threads` workers (worker 0 on the calling thread) with the
/// probe engine injected as any [`SimBackend`], then — if every
/// simulation agreed — the complete check on the calling thread. Emits
/// [`RunEvent`]s for both stages to `config.event_sink`.
///
/// # Errors
///
/// Returns [`FlowError`] if the circuits' qubit counts differ, if the
/// backend is the statevector engine, or the stab engine about to take its
/// dense fallback, and the register is wider than
/// [`qsim::StateVector::MAX_QUBITS`], or if the backend overflows its node
/// budget before any stimulus proves non-equivalence.
pub fn run_scheduled_on<B: SimBackend>(
    backend: &B,
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
    let max_qubits = qsim::StateVector::MAX_QUBITS;
    if g.n_qubits() > max_qubits && probes_densely(backend.kind(), g, g_prime, config) {
        return Err(FlowError::RegisterTooWide {
            n_qubits: g.n_qubits(),
            max_qubits,
            backend: backend.kind(),
        });
    }

    let sim_start = Instant::now();
    let simulated = simulate(backend, g, g_prime, config);
    let simulation_time = sim_start.elapsed();
    let simulated = simulated.map_err(|e| FlowError::SimulationOverflow {
        node_limit: e.node_limit,
    })?;
    let (runs, truncation_error) = match simulated {
        SimVerdict::CounterexampleFound(ce) => {
            let decisive_run = ce.run;
            return Ok(FlowResult {
                outcome: Outcome::NotEquivalent {
                    counterexample: Some(ce),
                },
                stats: FlowStats {
                    simulations_run: decisive_run,
                    simulation_time,
                    functional_time: Duration::ZERO,
                },
            });
        }
        SimVerdict::AllAgreed {
            runs,
            truncation_error,
        } => (runs, truncation_error),
    };

    // All completed simulations agreed: the complete check decides.
    let sink = event_sink(config);
    sink.record(RunEvent::StageStarted {
        stage: Stage::Functional,
    });
    let functional_start = Instant::now();
    let verdict = run_functional_check(g, g_prime, config);
    let functional_time = functional_start.elapsed();
    sink.record(RunEvent::StageFinished {
        stage: Stage::Functional,
        wall_time: functional_time,
    });

    let outcome = match verdict {
        // An exact complete check is a proof regardless of how the
        // simulations were judged: it never saw their truncated overlaps.
        FunctionalVerdict::Equivalent => Outcome::Equivalent,
        FunctionalVerdict::EquivalentUpToGlobalPhase { phase } => {
            Outcome::EquivalentUpToGlobalPhase { phase }
        }
        FunctionalVerdict::NotEquivalent => Outcome::NotEquivalent {
            counterexample: None,
        },
        // With no complete check configured, truncated simulations are the
        // *only* evidence — surface the accumulated error instead of the
        // bare "no fallback" notice.
        FunctionalVerdict::Aborted(AbortReason::FallbackDisabled) if truncation_error > 0.0 => {
            Outcome::ProbablyEquivalent {
                passed_simulations: runs,
                abort: AbortReason::Truncation {
                    error: truncation_error,
                },
            }
        }
        FunctionalVerdict::Aborted(abort) => Outcome::ProbablyEquivalent {
            passed_simulations: runs,
            abort,
        },
    };
    Ok(FlowResult {
        outcome,
        stats: FlowStats {
            simulations_run: runs,
            simulation_time,
            functional_time,
        },
    })
}

/// The sink events go to: the configured one, or a [`NullSink`].
fn event_sink(config: &Config) -> Arc<dyn EventSink> {
    config
        .event_sink
        .clone()
        .unwrap_or_else(|| Arc::new(NullSink))
}

/// The flow's simulation stage: draws the stimuli, probes them on
/// `config.threads` workers — worker 0 on the calling thread — and returns
/// the in-order judge's verdict.
///
/// Every worker has returned before the stage records its `Cancelled`
/// event (drain-then-count), so a sink sees every finished or aborted
/// simulation ahead of the cancellation marker.
///
/// # Errors
///
/// Returns [`qdd::DdLimitError`] if the backend overflows its node budget
/// and no stimulus before the overflow proves non-equivalence.
pub(crate) fn simulate<B: SimBackend>(
    backend: &B,
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<SimVerdict, qdd::DdLimitError> {
    let sink = event_sink(config);
    let sink = sink.as_ref();
    sink.record(RunEvent::StageStarted {
        stage: Stage::Simulation,
    });
    let start = Instant::now();
    let stimuli = draw_stimuli(g.n_qubits(), config);
    let ctx = worker::SchedulerContext::new(g, g_prime, config, backend, &stimuli, sink);
    let pool = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..config.threads)
            .map(|_| scope.spawn(|| worker::run_worker(&ctx)))
            .collect();
        let inline = worker::run_worker(&ctx);
        spawned.into_iter().fold(inline, |pool, worker| {
            pool.and(worker.join().expect("simulation worker panicked"))
        })
    });
    let verdict = ctx.into_verdict();
    if matches!(verdict, SimVerdict::CounterexampleFound(_)) {
        sink.record(RunEvent::Cancelled);
    }
    sink.record(RunEvent::StageFinished {
        stage: Stage::Simulation,
        wall_time: start.elapsed(),
    });
    match (verdict, pool) {
        // The judge never passes an overflowed slot, so an overflow only
        // loses to a counterexample at a lower index.
        (SimVerdict::AllAgreed { .. }, Err(e)) => Err(e),
        (verdict, _) => Ok(verdict),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_equivalence;
    use qcirc::generators;

    #[test]
    fn scheduled_equivalent_pair_matches_sequential_verdict() {
        let g = generators::qft(5, true);
        let opt = qcirc::optimize::optimize(&g);
        let sequential = check_equivalence(&g, &opt, &Config::default()).unwrap();
        let scheduled = run_scheduled(&g, &opt, &Config::default().with_threads(4)).unwrap();
        assert_eq!(sequential.outcome, scheduled.outcome);
        assert_eq!(
            sequential.stats.simulations_run,
            scheduled.stats.simulations_run
        );
    }

    #[test]
    fn scheduled_counterexample_matches_sequential_counterexample() {
        let g = generators::grover(5, 11, 2);
        let mut buggy = g.clone();
        buggy.x(1);
        let sequential = check_equivalence(&g, &buggy, &Config::default()).unwrap();
        let scheduled = run_scheduled(&g, &buggy, &Config::default().with_threads(4)).unwrap();
        // Same witness, bit for bit: basis, overlap, fidelity, run index.
        assert_eq!(sequential.outcome, scheduled.outcome);
    }

    #[test]
    fn qubit_mismatch_is_reported() {
        let a = generators::ghz(3);
        let b = generators::ghz(4);
        let config = Config::default().with_threads(2);
        let e = run_scheduled(&a, &b, &config).unwrap_err();
        assert!(matches!(
            e,
            FlowError::QubitCountMismatch { left: 3, right: 4 }
        ));
    }

    #[test]
    fn dd_simulation_overflow_is_reported() {
        let g = generators::supremacy_2d(3, 4, 12, 1);
        let config = Config::default()
            .with_backend(crate::BackendKind::DecisionDiagram)
            .with_dd_node_limit(50)
            .with_threads(2);
        let e = run_scheduled(&g, &g, &config).unwrap_err();
        assert!(matches!(
            e,
            FlowError::SimulationOverflow { node_limit: 50 }
        ));
    }

    #[test]
    fn cancellation_lands_after_every_simulation_event() {
        // Drain-then-count: every stimulus index a worker claimed must
        // have reported (finished or aborted) before the `Cancelled`
        // marker appears — counters derived from the stream are
        // deterministic even though the finished/aborted split is not.
        // The faulty pair's leading X makes every basis stimulus a
        // counterexample (orthogonal outputs), so the stage is always
        // cancelled and the marker must appear.
        let g = generators::qft(6, true);
        let mut faulty = g.clone();
        faulty.insert(0, qcirc::Gate::single(qcirc::GateKind::X, 3));
        for trial in 0..5 {
            let sink = Arc::new(CollectingSink::new());
            let config = Config::default()
                .with_threads(4)
                .with_simulations(24)
                .with_seed(trial)
                .with_event_sink(sink.clone());
            let result = run_scheduled(&g, &faulty, &config).unwrap();
            assert!(result.outcome.is_not_equivalent(), "{}", result.outcome);
            let events = sink.events();
            let cancelled = events
                .iter()
                .position(|e| matches!(e, RunEvent::Cancelled))
                .expect("a refutation cancels");
            assert!(
                events[cancelled..].iter().all(|e| !matches!(
                    e,
                    RunEvent::SimulationFinished { .. } | RunEvent::SimulationAborted { .. }
                )),
                "simulation events may not trail the cancellation marker"
            );
        }
    }

    #[test]
    fn scheduled_stab_backend_matches_sequential_verdict() {
        let g = generators::clifford_adder(6);
        let mut buggy = g.clone();
        buggy.z(5);
        let base = Config::default().with_backend(crate::BackendKind::Stab);
        let sequential = check_equivalence(&g, &buggy, &base).unwrap();
        let scheduled = run_scheduled(&g, &buggy, &base.clone().with_threads(4)).unwrap();
        assert_eq!(sequential.outcome, scheduled.outcome);
    }

    #[test]
    fn scheduled_mps_backend_matches_sequential_verdict() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.s(1);
        let base = Config::default().with_backend(crate::BackendKind::Mps);
        let sequential = check_equivalence(&g, &buggy, &base).unwrap();
        let scheduled = run_scheduled(&g, &buggy, &base.clone().with_threads(4)).unwrap();
        assert_eq!(sequential.outcome, scheduled.outcome);
        let opt = qcirc::optimize::optimize(&g);
        let sequential = check_equivalence(&g, &opt, &base).unwrap();
        let scheduled = run_scheduled(&g, &opt, &base.clone().with_threads(4)).unwrap();
        assert_eq!(sequential.outcome, scheduled.outcome);
    }

    #[test]
    fn scheduled_auto_backend_resolves_and_logs() {
        let g = generators::qft(4, true);
        let opt = qcirc::optimize::optimize(&g);
        let sink = Arc::new(CollectingSink::new());
        let config = Config::default()
            .with_backend(crate::BackendKind::Auto)
            .with_threads(2)
            .with_event_sink(sink.clone());
        let result = run_scheduled(&g, &opt, &config).unwrap();
        assert!(result.outcome.is_equivalent(), "{}", result.outcome);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            RunEvent::BackendSelected {
                backend: crate::BackendKind::Statevector
            }
        )));
    }
}

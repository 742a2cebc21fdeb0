//! Structured instrumentation of a scheduled run.
//!
//! The scheduler reports what it does — stage boundaries, every finished
//! or abandoned simulation, cancellations — through a pluggable
//! [`EventSink`]. The default sink ([`NullSink`]) drops everything;
//! [`CollectingSink`] records everything for tests, benchmarks and
//! reports. Install a sink with
//! [`Config::with_event_sink`](crate::Config::with_event_sink).
//!
//! Events from concurrent workers arrive in completion order, not
//! stimulus order; only *counts* and per-event payloads are meaningful,
//! not inter-worker ordering.

use std::sync::Mutex;
use std::time::Duration;

use crate::config::BackendKind;

/// A stage of the equivalence checking flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The random basis-state simulation pool.
    Simulation,
    /// The complete decision-diagram check.
    Functional,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Simulation => write!(f, "simulation"),
            Stage::Functional => write!(f, "functional"),
        }
    }
}

/// One observation emitted by the scheduler (or the pipeline driver).
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A stage began.
    StageStarted {
        /// Which stage.
        stage: Stage,
    },
    /// A stage ended.
    StageFinished {
        /// Which stage.
        stage: Stage,
        /// Wall-clock duration of the stage.
        wall_time: Duration,
    },
    /// One simulation ran to completion.
    ///
    /// The stimulus itself is identified by `index`: stimuli are pre-drawn
    /// as a pure function of the configuration, so
    /// [`draw_stimuli`](crate::draw_stimuli) reproduces the full list —
    /// events stay allocation-free even for stabilizer stimuli that carry
    /// whole prefix circuits.
    SimulationFinished {
        /// Stimulus index into the pre-drawn list (0-based).
        index: usize,
        /// Wall-clock duration of this simulation.
        wall_time: Duration,
        /// The measured fidelity `|⟨uᵢ|uᵢ′⟩|²`.
        fidelity: f64,
        /// Which probe engine ran this simulation — lets timing consumers
        /// bucket probe time per backend.
        backend: BackendKind,
    },
    /// One simulation was abandoned (superseded by a counterexample at a
    /// lower stimulus index) — either skipped outright or cancelled
    /// mid-circuit.
    SimulationAborted {
        /// Stimulus index into the pre-drawn list (0-based).
        index: usize,
    },
    /// A simulation counterexample ended the simulation stage: every run
    /// above it was abandoned. Recorded once per stage, after every
    /// worker has returned.
    Cancelled,
    /// [`BackendKind::Auto`] was resolved to a concrete engine, before any
    /// stage ran — emitted at most once per flow invocation (the paper's
    /// flow never switches engines mid-run).
    BackendSelected {
        /// The engine the selector chose from the register width and gate
        /// mix; never [`BackendKind::Auto`] itself.
        backend: BackendKind,
    },
    /// The pipeline driver finished checking one design-flow stage.
    PipelineStageChecked {
        /// Name of the checked artifact.
        name: String,
        /// Wall-clock duration of the whole check for this stage.
        wall_time: Duration,
    },
}

/// A consumer of [`RunEvent`]s.
///
/// Implementations must be thread-safe: concurrent workers record events
/// without coordination. They should also be *cheap* — `record` sits on
/// the per-simulation hot path.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Records one event.
    fn record(&self, event: RunEvent);
}

/// The default sink: discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: RunEvent) {}
}

/// A sink that stores every event in memory, for tests, benchmarks and
/// report generation.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qcec::scheduler::{CollectingSink, EventSink};
/// use qcec::Config;
///
/// let sink = Arc::new(CollectingSink::new());
/// let config = Config::default()
///     .with_threads(2)
///     .with_event_sink(sink.clone());
/// let g = qcirc::generators::ghz(3);
/// qcec::check_equivalence(&g, &g, &config).unwrap();
/// assert!(sink.simulations_finished() > 0);
/// ```
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<RunEvent>>,
}

impl CollectingSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// A snapshot of all events recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn events(&self) -> Vec<RunEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of simulations that ran to completion.
    #[must_use]
    pub fn simulations_finished(&self) -> usize {
        self.count(|e| matches!(e, RunEvent::SimulationFinished { .. }))
    }

    /// Number of simulations abandoned before completion.
    #[must_use]
    pub fn simulations_aborted(&self) -> usize {
        self.count(|e| matches!(e, RunEvent::SimulationAborted { .. }))
    }

    /// Number of recorded cancellations.
    #[must_use]
    pub fn cancellations(&self) -> usize {
        self.count(|e| matches!(e, RunEvent::Cancelled))
    }

    fn count(&self, pred: impl Fn(&RunEvent) -> bool) -> usize {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| pred(e))
            .count()
    }
}

impl EventSink for CollectingSink {
    fn record(&self, event: RunEvent) {
        self.events.lock().unwrap().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_counts_by_kind() {
        let sink = CollectingSink::new();
        sink.record(RunEvent::StageStarted {
            stage: Stage::Simulation,
        });
        sink.record(RunEvent::SimulationFinished {
            index: 0,
            wall_time: Duration::from_micros(5),
            fidelity: 1.0,
            backend: BackendKind::Statevector,
        });
        sink.record(RunEvent::SimulationAborted { index: 1 });
        sink.record(RunEvent::Cancelled);
        assert_eq!(sink.simulations_finished(), 1);
        assert_eq!(sink.simulations_aborted(), 1);
        assert_eq!(sink.cancellations(), 1);
        assert_eq!(sink.events().len(), 4);
    }

    #[test]
    fn null_sink_is_silent() {
        // Just exercise the impl; nothing observable.
        NullSink.record(RunEvent::StageStarted {
            stage: Stage::Functional,
        });
    }

    #[test]
    fn stage_displays() {
        assert_eq!(Stage::Simulation.to_string(), "simulation");
        assert_eq!(Stage::Functional.to_string(), "functional");
    }
}

//! The traced re-drive: the flow of `qcec::check_equivalence` at
//! `threads == 1`, rebuilt from each layer's public function so every
//! call can be timed from outside the library.
//!
//! `auto_backend` → `peel::peel` → `draw_stimuli` → probes (through
//! [`Timed`], a [`SimBackend`] wrapper around the flow's own engine) →
//! `run_functional_check`. Spans (pair id, layer, start, end, parent) and
//! counters are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qcec::backend::dd_for_flow;
use qcec::{
    AbortReason, BackendKind, Config, FlowError, FlowResult, FlowStats, FunctionalVerdict,
    MpsBackend, Outcome, ProbeOutcome, SimBackend, SimVerdict, StabBackend, StatevectorBackend,
    Stimulus,
};
use qcirc::Circuit;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub pair: usize,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    pair: usize,
    counters: BTreeMap<&'static str, f64>,
}

/// Span and counter store for one round. Interior mutability (a mutex,
/// uncontended on the traced path) lets [`Timed`] satisfy `SimBackend`'s
/// `Sync` bound.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    /// Sets the pair id stamped on the spans that follow.
    pub fn set_pair(&self, pair: usize) {
        self.lock().pair = pair;
    }

    /// Runs `f` inside a span named `layer`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut state = self.lock();
            let index = state.spans.len();
            let span = Span {
                pair: state.pair,
                layer,
                start: self.origin.elapsed(),
                end: Duration::ZERO,
                parent: state.open.last().copied(),
            };
            state.spans.push(span);
            state.open.push(index);
            index
        };
        let out = f();
        let mut state = self.lock();
        state.spans[index].end = self.origin.elapsed();
        state.open.pop();
        out
    }

    /// Adds `value` to a counter.
    pub fn add(&self, counter: &'static str, value: f64) {
        *self.lock().counters.entry(counter).or_default() += value;
    }

    /// Raises a counter to at least `value`.
    pub fn max(&self, counter: &'static str, value: f64) {
        let mut state = self.lock();
        let slot = state.counters.entry(counter).or_default();
        *slot = slot.max(value);
    }

    /// Counters plus per-layer totals: `<layer>.calls` (spans recorded),
    /// `<layer>.ms` (wall time in the layer's spans) and `<layer>.self_ms`
    /// (minus the time its child spans cover).
    pub fn totals(&self) -> BTreeMap<String, f64> {
        let state = self.lock();
        let mut child_time = vec![Duration::ZERO; state.spans.len()];
        for span in &state.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<String, f64> = state
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        for (span, children) in state.spans.iter().zip(&child_time) {
            let wall = span.end - span.start;
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            *totals.entry(format!("{}.calls", span.layer)).or_default() += 1.0;
            *totals.entry(format!("{}.ms", span.layer)).or_default() += ms(wall);
            *totals.entry(format!("{}.self_ms", span.layer)).or_default() +=
                ms(wall.saturating_sub(*children));
        }
        totals
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for (id, s) in state.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"pair\":{},\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.pair,
                s.layer,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// The layer name of an engine's probes.
fn probe_layer(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Statevector => "qsim.probe",
        BackendKind::DecisionDiagram => "qdd.probe",
        BackendKind::Stab => "qstab.probe",
        BackendKind::Mps => "qmpo.probe",
        BackendKind::Auto => "auto.probe",
    }
}

/// The counter of an `Auto` pick.
pub fn pick_counter(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Statevector => "qcec.auto.pick.sv",
        BackendKind::DecisionDiagram => "qcec.auto.pick.dd",
        BackendKind::Stab => "qcec.auto.pick.stab",
        BackendKind::Mps | BackendKind::Auto => "qcec.auto.pick.mps",
    }
}

/// A [`SimBackend`] that forwards to `inner` and records one span per
/// probe call, plus the engine's effort counters.
#[derive(Debug)]
pub struct Timed<'t, B> {
    inner: B,
    tracer: &'t Tracer,
}

impl<'t, B: SimBackend> Timed<'t, B> {
    pub fn new(inner: B, tracer: &'t Tracer) -> Self {
        Timed { inner, tracer }
    }

    fn record(&self, outcome: &ProbeOutcome) {
        let metrics = outcome.metrics;
        match self.inner.kind() {
            BackendKind::DecisionDiagram => {
                self.tracer
                    .max("qdd.probe.peak_nodes_max", metrics.peak_nodes as f64);
            }
            BackendKind::Mps => {
                self.tracer
                    .max("qmpo.probe.peak_bond_max", metrics.peak_nodes as f64);
                self.tracer
                    .add("qmpo.probe.truncation_error_sum", metrics.truncation_error);
            }
            _ => {}
        }
    }
}

impl<B: SimBackend> SimBackend for Timed<'_, B> {
    type Workspace = B::Workspace;

    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn can_truncate(&self) -> bool {
        self.inner.can_truncate()
    }

    fn workspace(&self, n_qubits: usize) -> Self::Workspace {
        self.inner.workspace(n_qubits)
    }

    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut Self::Workspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError> {
        let out = self.tracer.span(probe_layer(self.kind()), || {
            self.inner
                .probe_while(g, g_prime, stimulus, workspace, keep_going)
        });
        if let Ok(Some(outcome)) = &out {
            self.record(outcome);
        }
        out
    }

    fn probe_batch_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimuli: &[Stimulus],
        workspace: &mut Self::Workspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<Vec<ProbeOutcome>>, qdd::DdLimitError> {
        let out = self.tracer.span(probe_layer(self.kind()), || {
            self.inner
                .probe_batch_while(g, g_prime, stimuli, workspace, keep_going)
        });
        if let Ok(Some(outcomes)) = &out {
            outcomes.iter().for_each(|o| self.record(o));
        }
        out
    }

    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut Self::Workspace,
    ) -> Result<(Vec<qnum::Complex>, Vec<qnum::Complex>), qdd::DdLimitError> {
        self.inner.replay(g, g_prime, stimulus, workspace)
    }
}

/// `run_simulations_on` through the timing wrapper, on the engine the flow
/// derives from `config` (which must name a concrete engine).
pub fn simulate(
    tracer: &Tracer,
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> Result<SimVerdict, qdd::DdLimitError> {
    match config.backend {
        BackendKind::Statevector => {
            let timed = Timed::new(StatevectorBackend::for_flow(config), tracer);
            qcec::run_simulations_on(&timed, g, g_prime, config)
        }
        BackendKind::DecisionDiagram => {
            let timed = Timed::new(dd_for_flow(config), tracer);
            qcec::run_simulations_on(&timed, g, g_prime, config)
        }
        BackendKind::Stab => {
            let timed = Timed::new(StabBackend::for_flow(config), tracer);
            qcec::run_simulations_on(&timed, g, g_prime, config)
        }
        BackendKind::Mps => {
            let timed = Timed::new(MpsBackend::for_flow(config), tracer);
            qcec::run_simulations_on(&timed, g, g_prime, config)
        }
        BackendKind::Auto => unreachable!("Auto is resolved before simulation"),
    }
}

/// The flow of `qcec::check_equivalence` for `config.threads == 1`, one
/// traced layer call at a time. Verdicts are identical to the library's:
/// every step calls the same public function with the same arguments.
///
/// # Errors
///
/// As `qcec::check_equivalence`.
pub fn check_equivalence(
    tracer: &Tracer,
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
    assert_eq!(
        config.threads, 1,
        "the traced flow mirrors the sequential path"
    );
    if config.backend == BackendKind::Auto {
        let resolved = tracer.span("qcec.auto", || qcec::auto_backend(g, g_prime));
        tracer.add(pick_counter(resolved), 1.0);
        return check_equivalence(tracer, g, g_prime, &config.clone().with_backend(resolved));
    }
    if config.peel {
        let peeled = tracer.span("qcec.peel", || qcec::peel::peel(g, g_prime));
        let stripped = g.len() + g_prime.len() - peeled.g.len() - peeled.g_prime.len();
        tracer.add("qcec.peel.gates_stripped", stripped as f64);
        if peeled.stripped() > 0 {
            let inner = config.clone().with_peel(false);
            return check_equivalence(tracer, &peeled.g, &peeled.g_prime, &inner);
        }
    }

    let sim_start = Instant::now();
    let sim_verdict = tracer
        .span("qcec.sim_check", || {
            // `run_simulations_on` draws the same stimuli again inside;
            // this separate call is what times the draw, and its cost
            // shows up in `trace.overhead_frac`.
            let stimuli = tracer.span("qstim.draw", || qcec::draw_stimuli(g.n_qubits(), config));
            tracer.add("qstim.draw.stimuli", stimuli.len() as f64);
            simulate(tracer, g, g_prime, config)
        })
        .map_err(|e| FlowError::SimulationOverflow {
            node_limit: e.node_limit,
        })?;
    let simulation_time = sim_start.elapsed();

    match sim_verdict {
        SimVerdict::CounterexampleFound(ce) => {
            tracer.add("qcec.sim_check.probes", ce.run as f64);
            tracer.add("qcec.sim_check.useful", 1.0);
            tracer.add("qcec.sim_check.convicted", 1.0);
            tracer.add("qcec.sim_check.decisive_runs", ce.run as f64);
            let simulations_run = ce.run;
            Ok(FlowResult {
                outcome: Outcome::NotEquivalent {
                    counterexample: Some(ce),
                },
                stats: FlowStats {
                    simulations_run,
                    simulation_time,
                    functional_time: Duration::ZERO,
                },
            })
        }
        SimVerdict::AllAgreed {
            runs,
            truncation_error,
        } => {
            tracer.add("qcec.sim_check.probes", runs as f64);
            tracer.add("qcec.sim_check.useful", runs as f64);
            let check_layer = if config.backend == BackendKind::Mps {
                "qmpo.check"
            } else {
                "qdd.check"
            };
            let ec_start = Instant::now();
            let verdict = tracer.span("qcec.functional", || {
                tracer.span(check_layer, || {
                    qcec::run_functional_check(g, g_prime, config)
                })
            });
            let functional_time = ec_start.elapsed();
            let outcome = match verdict {
                FunctionalVerdict::Equivalent => Outcome::Equivalent,
                FunctionalVerdict::EquivalentUpToGlobalPhase { phase } => {
                    Outcome::EquivalentUpToGlobalPhase { phase }
                }
                FunctionalVerdict::NotEquivalent => Outcome::NotEquivalent {
                    counterexample: None,
                },
                FunctionalVerdict::Aborted(kind) => {
                    let abort = match AbortReason::from(kind) {
                        AbortReason::FallbackDisabled if truncation_error > 0.0 => {
                            AbortReason::Truncation {
                                error: truncation_error,
                            }
                        }
                        other => other,
                    };
                    Outcome::ProbablyEquivalent {
                        passed_simulations: runs,
                        abort,
                    }
                }
            };
            let decided = !matches!(outcome, Outcome::ProbablyEquivalent { .. });
            tracer.add(
                if decided {
                    "qcec.functional.proven"
                } else {
                    "qcec.functional.aborted"
                },
                1.0,
            );
            Ok(FlowResult {
                outcome,
                stats: FlowStats {
                    simulations_run: runs,
                    simulation_time,
                    functional_time,
                },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    /// Pairs on a circuit the engine supports: a bit-flip fault and a
    /// phase fault (counterexamples to reproduce) and the golden pair (all
    /// runs agree).
    fn pairs_for(kind: BackendKind) -> Vec<(Circuit, Circuit)> {
        let g = match kind {
            BackendKind::Stab => generators::ghz(12),
            BackendKind::Mps => generators::qft(8, true),
            _ => generators::qft(6, true),
        };
        let mut faulty = g.clone();
        faulty.x(2);
        let mut phase = g.clone();
        phase.s(1);
        vec![(g.clone(), faulty), (g.clone(), phase), (g.clone(), g)]
    }

    #[test]
    fn wrapped_engines_return_the_unwrapped_verdicts() {
        for kind in [
            BackendKind::Statevector,
            BackendKind::DecisionDiagram,
            BackendKind::Stab,
            BackendKind::Mps,
        ] {
            let config = Config::default().with_backend(kind).with_seed(3);
            for (g, g_prime) in pairs_for(kind) {
                let tracer = Tracer::default();
                let wrapped = simulate(&tracer, &g, &g_prime, &config).unwrap();
                let plain = qcec::run_simulations(&g, &g_prime, &config).unwrap();
                assert_eq!(wrapped, plain, "{kind:?}");
                let calls = tracer.totals()[&format!("{}.calls", probe_layer(kind))];
                let runs = match &plain {
                    SimVerdict::CounterexampleFound(ce) => ce.run,
                    SimVerdict::AllAgreed { runs, .. } => *runs,
                };
                assert_eq!(calls, runs as f64, "{kind:?}: one span per probe");
            }
        }
    }

    #[test]
    fn traced_flow_matches_the_library_flow() {
        let auto = Config::default()
            .with_backend(BackendKind::Auto)
            .with_peel(true);
        for config in [Config::default(), auto] {
            for kind in [
                BackendKind::Statevector,
                BackendKind::Stab,
                BackendKind::Mps,
            ] {
                for (g, g_prime) in pairs_for(kind) {
                    let traced = check_equivalence(&Tracer::default(), &g, &g_prime, &config);
                    let library = qcec::check_equivalence(&g, &g_prime, &config);
                    let outcome = |r: Result<FlowResult, FlowError>| r.map(|r| r.outcome);
                    assert_eq!(outcome(traced), outcome(library));
                }
            }
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::default();
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(5)));
        });
        let totals = tracer.totals();
        assert_eq!(totals["outer.calls"], 1.0);
        assert!(totals["outer.ms"] >= totals["inner.ms"]);
        assert!(totals["outer.self_ms"] < totals["inner.ms"]);
        assert!(tracer.spans_jsonl().contains("\"parent\":0"));
    }
}

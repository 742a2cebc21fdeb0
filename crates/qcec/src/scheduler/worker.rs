//! The simulation worker: claims stimuli in index order, probes them, and
//! judges the completed prefix as results land.
//!
//! Workers share an atomic claim counter, so every stimulus index is
//! processed by exactly one worker and claiming follows stimulus order.
//! After each probe the worker publishes its overlap and walks the flow's
//! [`Judge`] over the newly completed prefix, in stimulus order, under the
//! results lock; the first counterexample the judge reaches lowers the
//! failure watermark — the lowest failing stimulus index, one atomic in
//! the [`SchedulerContext`]. A run is only abandoned for indices *above*
//! the watermark, so every stimulus up to and including the decisive one
//! completes and the judge reaches the verdict a single worker reaches, at
//! any worker count.
//!
//! Two watermarks are set before the judge gets there, and both only
//! prune work the judge would never read: on exact engines a worker lowers
//! the watermark the moment a probe fails the judge's per-run predicate
//! (see [`SimBackend::can_truncate`]), and a worker whose probe overflows
//! the node budget lowers it at that index before returning the error.
//!
//! Workers are backend-agnostic: the probe engine is injected through the
//! [`SchedulerContext`] as any [`SimBackend`], and each worker builds its
//! own [`SimBackend::Workspace`] once at startup. Cancellation granularity
//! is the backend's own (`keep_going` is polled gate-granularly by the
//! statevector engine, between probe halves by the decision-diagram one).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qcirc::Circuit;
use qnum::Complex;
use qstim::Stimulus;

use crate::backend::{ProbeOutcome, SimBackend};
use crate::config::Config;
use crate::outcome::Counterexample;
use crate::scheduler::events::{EventSink, RunEvent};
use crate::sim_check::{Judge, SimVerdict};

/// Everything a worker needs, shared by reference across the pool:
/// the circuit pair, the injected probe backend, and the claim/result
/// state the pool coordinates through.
pub(super) struct SchedulerContext<'a, B: SimBackend> {
    /// The left circuit `G`.
    pub g: &'a Circuit,
    /// The right circuit `G'`.
    pub g_prime: &'a Circuit,
    /// The flow configuration.
    pub config: &'a Config,
    /// The injected probe engine, shared by every worker.
    pub backend: &'a B,
    /// The pre-drawn stimuli, in judging order.
    pub stimuli: &'a [Stimulus],
    /// Next stimulus index to claim.
    pub next: AtomicUsize,
    /// The failure watermark: the lowest stimulus index known to fail
    /// (`usize::MAX` = none). Only ever lowered, with `fetch_min`. Relaxed
    /// is enough: it only tells workers which runs are moot, and results
    /// travel under the `results` lock.
    lowest_failure: AtomicUsize,
    /// `(overlap, truncation_error)` per stimulus index; `None` = not
    /// (fully) simulated. The truncation rides along so the judge can
    /// widen its tolerance by the error accumulated in stimulus order.
    pub results: Mutex<Vec<Option<(Complex, f64)>>>,
    /// The in-order judge; locked only while `results` is held.
    judged: Mutex<Judged<'a>>,
    /// Event sink.
    pub sink: &'a dyn EventSink,
}

/// Why a results or judge lock can be poisoned: a worker panicked while
/// publishing, and the stage re-raises that panic when it joins.
const POISONED: &str = "a simulation worker panicked while publishing results";

/// The in-order judge and how far it has read the result slots.
struct Judged<'a> {
    judge: Judge<'a>,
    /// Leading slots the judge has observed.
    prefix: usize,
    /// The first counterexample in stimulus order, once reached.
    counterexample: Option<Counterexample>,
}

impl<'a, B: SimBackend> SchedulerContext<'a, B> {
    pub(super) fn new(
        g: &'a Circuit,
        g_prime: &'a Circuit,
        config: &'a Config,
        backend: &'a B,
        stimuli: &'a [Stimulus],
        sink: &'a dyn EventSink,
    ) -> Self {
        SchedulerContext {
            g,
            g_prime,
            config,
            backend,
            stimuli,
            next: AtomicUsize::new(0),
            lowest_failure: AtomicUsize::new(usize::MAX),
            results: Mutex::new(vec![None; stimuli.len()]),
            judged: Mutex::new(Judged {
                judge: Judge::new(config),
                prefix: 0,
                counterexample: None,
            }),
            sink,
        }
    }

    /// Records that the run at `index` decides the stage: lowers the
    /// failure watermark to it (never raises it).
    fn record_failure(&self, index: usize) {
        self.lowest_failure.fetch_min(index, Ordering::Relaxed);
    }

    /// Returns `true` if the run at `index` is no longer worth running or
    /// finishing: a failure at a lower index already decides the stage.
    /// Runs at or below the lowest failure are never superseded, which is
    /// the invariant behind deterministic counterexamples.
    fn superseded(&self, index: usize) -> bool {
        index > self.lowest_failure.load(Ordering::Relaxed)
    }

    /// Stores the outcome of the run at `index`, then judges the newly
    /// completed prefix in stimulus order. Reaching a counterexample lowers
    /// the watermark to its index.
    fn publish(&self, index: usize, outcome: &ProbeOutcome) {
        let mut results = self.results.lock().expect(POISONED);
        results[index] = Some((outcome.overlap, outcome.metrics.truncation_error));
        let judged = &mut *self.judged.lock().expect(POISONED);
        while judged.counterexample.is_none() {
            let index = judged.prefix;
            let Some(&Some((overlap, truncation))) = results.get(index) else {
                break;
            };
            judged.prefix += 1;
            judged.counterexample =
                judged
                    .judge
                    .observe(overlap, truncation, &self.stimuli[index], index + 1);
            if judged.counterexample.is_some() {
                self.record_failure(index);
            }
        }
    }

    /// The judge's verdict once every worker has returned: the first
    /// counterexample in stimulus order, or agreement over every completed
    /// stimulus.
    pub(super) fn into_verdict(self) -> SimVerdict {
        let judged = self.judged.into_inner().expect(POISONED);
        if let Some(ce) = judged.counterexample {
            return SimVerdict::CounterexampleFound(ce);
        }
        let results = self.results.into_inner().expect(POISONED);
        SimVerdict::AllAgreed {
            runs: results.iter().flatten().count(),
            truncation_error: judged.judge.truncation_error(),
        }
    }
}

/// One worker's claim loop: one stimulus index per `fetch_add`. Returns
/// early only on a decision-diagram node-limit overflow, after lowering the
/// watermark to the overflowing index.
pub(super) fn run_worker<B: SimBackend>(
    ctx: &SchedulerContext<'_, B>,
) -> Result<(), qdd::DdLimitError> {
    let mut workspace = ctx.backend.workspace(ctx.g.n_qubits());
    loop {
        let index = ctx.next.fetch_add(1, Ordering::Relaxed);
        if index >= ctx.stimuli.len() {
            return Ok(());
        }
        if ctx.superseded(index) {
            ctx.sink.record(RunEvent::SimulationAborted { index });
            continue;
        }
        let start = Instant::now();
        let probe = ctx.backend.probe_while(
            ctx.g,
            ctx.g_prime,
            &ctx.stimuli[index],
            &mut workspace,
            &|| !ctx.superseded(index),
        );
        let outcome = match probe {
            Ok(Some(outcome)) => outcome,
            Ok(None) => {
                ctx.sink.record(RunEvent::SimulationAborted { index });
                continue;
            }
            Err(e) => {
                // Unless the judge finds a counterexample below `index`,
                // this overflow ends the stage: everything above is moot.
                ctx.record_failure(index);
                return Err(e);
            }
        };
        let wall_time = start.elapsed();
        // Publish the watermarks — this run's failure, then the judge's —
        // before the event, so observers of the sink never see a finished
        // failing run without a watermark. Truncating engines skip the
        // per-run check (see `SimBackend::can_truncate`).
        if !ctx.backend.can_truncate()
            && Judge::output_mismatch(
                ctx.config.criterion,
                outcome.overlap,
                ctx.config.fidelity_tolerance,
            )
        {
            ctx.record_failure(index);
        }
        ctx.publish(index, &outcome);
        ctx.sink.record(RunEvent::SimulationFinished {
            index,
            wall_time,
            fidelity: outcome.overlap.norm_sqr(),
            backend: ctx.backend.kind(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StatevectorBackend;
    use crate::scheduler::events::NullSink;

    #[test]
    fn single_worker_fills_all_slots_in_order() {
        let g = qcirc::generators::ghz(3);
        let opt = qcirc::optimize::optimize(&g);
        let config = Config::default();
        let backend = StatevectorBackend::new();
        let stimuli: Vec<Stimulus> = [0u64, 3, 5, 7].map(Stimulus::Basis).to_vec();
        let ctx = SchedulerContext::new(&g, &opt, &config, &backend, &stimuli, &NullSink);
        run_worker(&ctx).unwrap();
        let results = ctx.results.lock().unwrap();
        assert!(results.iter().all(Option::is_some));
        // Equivalent circuits: every overlap has unit fidelity.
        for (overlap, truncation) in results.iter().flatten() {
            assert!((overlap.norm_sqr() - 1.0).abs() < 1e-9);
            assert_eq!(*truncation, 0.0, "the dense engine is always exact");
        }
        assert!(!ctx.superseded(usize::MAX - 1), "no run failed");
    }

    #[test]
    fn worker_records_failure_watermark() {
        let g = qcirc::generators::ghz(3);
        let mut buggy = g.clone();
        buggy.x(0);
        let config = Config::default();
        let backend = StatevectorBackend::new();
        let stimuli: Vec<Stimulus> = (0u64..8).map(Stimulus::Basis).collect();
        let ctx = SchedulerContext::new(&g, &buggy, &config, &backend, &stimuli, &NullSink);
        run_worker(&ctx).unwrap();
        // An X on a GHZ input corrupts every column: index 0 fails.
        assert!(!ctx.superseded(0) && ctx.superseded(1));
        // All later indices were superseded and skipped.
        let results = ctx.results.lock().unwrap();
        assert!(results[0].is_some());
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn failure_watermark_supersedes_higher_indices_only() {
        let g = qcirc::generators::ghz(2);
        let config = Config::default();
        let backend = StatevectorBackend::new();
        let ctx = SchedulerContext::new(&g, &g, &config, &backend, &[], &NullSink);
        assert!(!ctx.superseded(0) && !ctx.superseded(usize::MAX - 1));
        ctx.record_failure(5);
        assert!(!ctx.superseded(3), "runs below the watermark must finish");
        assert!(!ctx.superseded(5), "the failing run itself must finish");
        assert!(ctx.superseded(6));
        // A later, lower failure lowers the watermark.
        ctx.record_failure(2);
        assert!(ctx.superseded(5) && ctx.superseded(3));
        assert!(!ctx.superseded(2) && !ctx.superseded(1));
        // A later, higher failure does not raise it back.
        ctx.record_failure(4);
        assert!(ctx.superseded(3) && !ctx.superseded(2));
    }

    #[test]
    fn dd_backend_agrees_with_statevector_backend() {
        let g = qcirc::generators::qft(4, true);
        let opt = qcirc::optimize::optimize(&g);
        let config = Config::default();
        let stimuli: Vec<Stimulus> = [0u64, 5, 9, 15].map(Stimulus::Basis).to_vec();
        let sv = StatevectorBackend::new();
        let dd = qdd::DdBackend::new();
        let ctx = SchedulerContext::new(&g, &opt, &config, &sv, &stimuli, &NullSink);
        run_worker(&ctx).unwrap();
        let sv_results: Vec<_> = ctx.results.lock().unwrap().clone();
        let ctx = SchedulerContext::new(&g, &opt, &config, &dd, &stimuli, &NullSink);
        run_worker(&ctx).unwrap();
        let dd_results: Vec<_> = ctx.results.lock().unwrap().clone();
        for (s, d) in sv_results.iter().zip(&dd_results) {
            let ((s, _), (d, _)) = (s.unwrap(), d.unwrap());
            assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
            assert!((d.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }
}

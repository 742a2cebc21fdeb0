//! The cancellation token shared by the simulation worker pool and the
//! racing functional checker.
//!
//! Cancellation is *cooperative* and deliberately asymmetric, because the
//! two sides of the portfolio stop for different reasons:
//!
//! * The functional (DD) racer stops the moment **any** simulation proves
//!   non-equivalence — its verdict can no longer come first.
//! * Simulation workers stop claiming (and abandon in-flight runs) for
//!   stimulus **indices above the lowest failing index** only. Runs below
//!   it always complete, which is what makes the reported counterexample
//!   deterministic: the judge later replays the overlaps in stimulus
//!   order, so the winner is always the *earliest* failing stimulus of
//!   the pre-drawn list, never whichever worker happened to finish first.
//! * A definitive functional verdict halts the whole simulation pool
//!   (`halt_simulations`) — every remaining run is moot.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Why in-flight work was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// A simulation run proved non-equivalence; remaining simulations and
    /// the functional racer were stopped.
    SimulationCounterexample,
    /// The racing functional check reached a definitive verdict first;
    /// the simulation pool was stopped.
    FunctionalVerdict,
}

impl std::fmt::Display for CancelCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelCause::SimulationCounterexample => write!(f, "simulation counterexample"),
            CancelCause::FunctionalVerdict => write!(f, "functional verdict"),
        }
    }
}

/// Shared cancellation state for one scheduled run.
///
/// All operations are lock-free; workers poll the token between gate
/// applications, so a cancellation propagates within one gate's worth of
/// work.
#[derive(Debug, Default)]
pub struct CancelToken {
    /// Raised when the functional racer should stop.
    functional_cancel: AtomicBool,
    /// Raised when the simulation pool should stop entirely.
    sim_halt: AtomicBool,
    /// Lowest stimulus index observed to fail so far (`usize::MAX` =
    /// none). Workers abandon indices strictly above this watermark.
    lowest_failure: AtomicUsize,
}

impl CancelToken {
    /// A fresh token with nothing cancelled.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            functional_cancel: AtomicBool::new(false),
            sim_halt: AtomicBool::new(false),
            lowest_failure: AtomicUsize::new(usize::MAX),
        }
    }

    /// Records that the simulation at stimulus `index` proved
    /// non-equivalence: lowers the failure watermark and stops the
    /// functional racer.
    pub fn record_sim_failure(&self, index: usize) {
        self.lowest_failure.fetch_min(index, Ordering::Relaxed);
        self.functional_cancel.store(true, Ordering::Relaxed);
    }

    /// Stops the whole simulation pool (a definitive functional verdict
    /// makes the remaining runs moot).
    pub fn halt_simulations(&self) {
        self.sim_halt.store(true, Ordering::Relaxed);
    }

    /// The lowest failing stimulus index recorded so far.
    #[must_use]
    pub fn lowest_failure(&self) -> Option<usize> {
        match self.lowest_failure.load(Ordering::Relaxed) {
            usize::MAX => None,
            index => Some(index),
        }
    }

    /// Returns `true` if the simulation at `index` is no longer worth
    /// running or finishing: the pool is halted, or a failure at a lower
    /// (or equal) index already decides the verdict.
    ///
    /// Indices *below* every recorded failure are never superseded, which
    /// is the invariant behind deterministic counterexamples.
    #[must_use]
    pub fn superseded(&self, index: usize) -> bool {
        self.sim_halt.load(Ordering::Relaxed) || index > self.lowest_failure.load(Ordering::Relaxed)
    }

    /// Returns `true` if the simulation pool was halted wholesale.
    #[must_use]
    pub fn simulations_halted(&self) -> bool {
        self.sim_halt.load(Ordering::Relaxed)
    }

    /// Returns `true` if the functional racer was told to stop.
    #[must_use]
    pub fn functional_cancelled(&self) -> bool {
        self.functional_cancel.load(Ordering::Relaxed)
    }

    /// The raw flag the functional racer's [`qdd::Budget`] polls.
    pub(crate) fn functional_flag(&self) -> &AtomicBool {
        &self.functional_cancel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_cancels_nothing() {
        let token = CancelToken::new();
        assert!(!token.superseded(0));
        assert!(!token.superseded(usize::MAX - 1));
        assert!(!token.simulations_halted());
        assert!(!token.functional_cancelled());
        assert_eq!(token.lowest_failure(), None);
    }

    #[test]
    fn failure_watermark_supersedes_higher_indices_only() {
        let token = CancelToken::new();
        token.record_sim_failure(5);
        assert_eq!(token.lowest_failure(), Some(5));
        assert!(!token.superseded(3), "runs below the watermark must finish");
        assert!(!token.superseded(5), "the failing run itself must finish");
        assert!(token.superseded(6));
        assert!(
            token.functional_cancelled(),
            "a counterexample is definitive"
        );
        // A later, lower failure lowers the watermark.
        token.record_sim_failure(2);
        assert_eq!(token.lowest_failure(), Some(2));
        assert!(token.superseded(5));
        assert!(!token.superseded(1));
        // A later, higher failure does not raise it back.
        token.record_sim_failure(4);
        assert_eq!(token.lowest_failure(), Some(2));
    }

    #[test]
    fn halting_supersedes_everything() {
        let token = CancelToken::new();
        token.halt_simulations();
        assert!(token.superseded(0));
        assert!(token.simulations_halted());
        assert!(!token.functional_cancelled());
    }
}

//! Simulation-driven equivalence checking of quantum circuits.
//!
//! This crate implements the contribution of Burgholzer & Wille, *The Power
//! of Simulation for Equivalence Checking in Quantum Computing* (DAC 2020):
//! before (or instead of) constructing the complete `2ⁿ×2ⁿ` functionality
//! of two circuits, simulate both on `r ≪ 2ⁿ` random computational basis
//! states and compare the outputs.
//!
//! Because quantum operations are reversible, design-flow errors are rarely
//! masked: a difference gate with `c` controls corrupts `2^{n−c}` of the
//! `2ⁿ` unitary columns ([`theory`]), so realistic errors (altered
//! single-qubit gates, misplaced CX) are detected with probability ≈ 1 *per
//! simulation*. The resulting flow ([`check_equivalence`], paper Fig. 3):
//!
//! 1. `r` random basis-state simulations (default `r = 10`) — disagreement
//!    yields a proven [`Outcome::NotEquivalent`] with a counterexample;
//! 2. otherwise a complete DD-based check (`qdd`) under a deadline —
//!    [`Outcome::Equivalent`] / [`Outcome::EquivalentUpToGlobalPhase`];
//! 3. on timeout, [`Outcome::ProbablyEquivalent`] — a *usable* answer where
//!    the state of the art reports nothing.
//!
//! # Examples
//!
//! Verify a mapped circuit and catch an injected bug:
//!
//! ```
//! use qcec::{check_equivalence_default, Outcome};
//!
//! # fn main() -> Result<(), qcec::FlowError> {
//! let g = qcirc::generators::ghz(4);
//! let mapped = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
//! let ok = check_equivalence_default(&g, &mapped.circuit)?;
//! assert!(ok.outcome.is_equivalent());
//!
//! let mut buggy = mapped.circuit.clone();
//! buggy.x(2);
//! let bad = check_equivalence_default(&g, &buggy)?;
//! assert!(bad.outcome.is_not_equivalent());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod campaign;
mod config;
pub mod diagnose;
mod flow;
mod functional;
mod outcome;
pub mod peel;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod scheduler;
pub mod service;
mod sim_check;
pub mod theory;

pub use backend::{
    auto_backend, MpsBackend, ProbeMetrics, ProbeOutcome, SimBackend, StabBackend,
    StatevectorBackend,
};
pub use config::{ApplicationScheme, BackendKind, Config, Criterion, Fallback, StimulusStrategy};
pub use flow::{check_equivalence, check_equivalence_default, FlowError};
pub use functional::{run_functional_check, FunctionalVerdict};
pub use outcome::{AbortReason, Counterexample, FlowResult, FlowStats, Mismatch, Outcome};
pub use service::{
    CachedVerdict, CircuitId, ConfigDigest, EquivalenceCheckingManager, JobKey, VerdictCache,
};
pub use sim_check::{draw_stimuli, run_simulations, run_simulations_on, SimVerdict};
// The stimulus vocabulary types, so downstream code can match on
// counterexamples and replay stimuli without naming `qstim` directly.
pub use qstim::{ProductAngles, Stimulus, StimulusSource};
// The DD probe engine, which implements [`SimBackend`] here (the trait is
// local, the type lives with the decision-diagram package it drives).
pub use qdd::DdBackend;

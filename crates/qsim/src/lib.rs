//! A dense statevector simulator for quantum circuits.
//!
//! This crate is the workspace's implementation of the simulation engine the
//! paper plugs into its flow (reference \[25\]): simulating a circuit on a
//! computational basis state `|i⟩` produces the `i`-th *column* of the
//! circuit unitary with `O(m·2ⁿ)` work — exponentially cheaper than the
//! `O(m·4ⁿ)` matrix-matrix construction that full equivalence checking
//! performs.
//!
//! * [`StateVector`] — dense `2ⁿ` amplitudes, inner products and fidelity,
//! * [`Simulator`] — gate application and one-stimulus equivalence probes
//!   ([`Simulator::probe_stimulus_while`] over a reusable
//!   [`ProbeWorkspace`]); kernels run on the calling thread (a checker
//!   parallelises across stimuli instead),
//! * [`measure`] — single-qubit outcome probabilities,
//! * [`kernels`] — the gate kernels: one walk over contiguous amplitude
//!   runs, vectorized (AVX-512/AVX2) once a run fills a register, with the
//!   same bits on every path.
//!
//! # Examples
//!
//! Detect a mapping bug with a single simulation, as in the paper's
//! Example 6:
//!
//! ```
//! use qsim::Simulator;
//!
//! let g = qcirc::generators::ghz(3);
//! let mut buggy = g.clone();
//! buggy.x(1); // a stray X — the circuits are no longer equivalent
//!
//! let sim = Simulator::new();
//! let overlap = sim.probe_basis(&g, &buggy, 0);
//! assert!(!overlap.approx_one()); // one run suffices to expose the bug
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kernels;
pub mod measure;
mod simulator;
mod state;

pub use simulator::{ProbeWorkspace, Simulator};
pub use state::{StateError, StateVector};

//! Quantum circuit infrastructure: IR, parsers, generators and the design
//! flow steps whose correctness the equivalence checker verifies.
//!
//! This crate models the *inputs* of the DAC'20 paper "The Power of
//! Simulation for Equivalence Checking in Quantum Computing":
//!
//! * [`Circuit`] / [`Gate`] / [`GateKind`] — the gate-level IR (qubit 0 is
//!   the least significant basis-index bit),
//! * [`qasm`] — OpenQASM 2.0 parsing and writing,
//! * [`real`] — RevLib `.real` parsing (the paper's \[27\] benchmark format),
//! * [`generators`] — the benchmark families of the paper's Table I,
//! * [`decompose`] — lowering to the device basis `{1q, CX}` (\[2\]–\[5\]),
//! * [`mapping`] — coupling maps and SWAP-insertion routing (\[6\]–\[10\]),
//! * [`optimize`] — exact, unitary-preserving optimization passes
//!   (\[11\], \[12\]),
//! * [`dense`] — reference dense unitaries for ground-truth checks.
//!
//! # Examples
//!
//! Build, decompose, map and optimize a circuit — the full design flow the
//! paper checks:
//!
//! ```
//! use qcirc::mapping::{route, CouplingMap, RouterOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = qcirc::generators::qft(4, true);
//! let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&original);
//! let routed = route(&lowered, &CouplingMap::linear(4), RouterOptions::default())?;
//! let optimized = qcirc::optimize::optimize(&routed.circuit);
//! assert!(optimized.len() <= routed.circuit.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canon;
mod circuit;
pub mod decompose;
pub mod dense;
mod gate;
pub mod generators;
pub mod mapping;
pub mod optimize;
pub mod qasm;
pub mod real;

pub use circuit::{Circuit, GateFitError};
pub use gate::{Gate, GateKind};

//! A QMDD-style decision diagram package for quantum functionality.
//!
//! This crate reimplements, from the published algorithms, the two JKU
//! engines the paper builds on:
//!
//! * the DD *simulator* of reference \[25\] — [`Package::apply_to_basis`]
//!   simulates a circuit on a basis state entirely in decision-diagram
//!   form, and [`DdBackend::probe_in`] runs one stimulus through both
//!   circuits of a pair in a pooled, reset package;
//! * the DD *equivalence checker* of references \[21\], \[22\], \[26\] —
//!   [`check_equivalence_alternating`] keeps a single difference DD near
//!   the identity (`G → 𝕀 ← G'`), taking gates from the two sides in the
//!   ratio of their lengths ([`next_from_g`]). It runs within a [`Budget`]
//!   (an optional deadline) and answers with a [`DdEquivalence`] or a
//!   [`DdCheckAbort`] — the vocabulary, and the interleave, that `qmpo`'s
//!   MPO check shares. [`Package::circuit_medge`] builds one circuit's
//!   whole system matrix.
//!
//! States and operators are one diagram type at two arities ([`Edge`] and
//! [`Node`] with `K = 2` and `K = 4` children), so node making, garbage
//! collection and addition exist once for both. Canonicity (normalized,
//! hash-consed nodes with tolerance-interned edge weights via
//! [`ComplexTable`]) makes semantic equality a pointer comparison, which is
//! what makes the complete check possible at all — and its exponential
//! blow-up on unstructured circuits (node limits, timeouts) is exactly the
//! weakness the paper's simulation-first flow exploits.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), qdd::DdCheckAbort> {
//! use qdd::{check_equivalence_alternating, Budget, Package};
//!
//! let g = qcirc::generators::ghz(3);
//! let optimized = qcirc::optimize::optimize(&g);
//! let mut package = Package::new(3);
//! let verdict = check_equivalence_alternating(&mut package, &g, &optimized, &Budget::new(None))?;
//! assert!(verdict.is_equivalent());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alternating;
mod check;
mod complex_table;
mod edge;
mod package;
mod probe;

pub use alternating::{check_equivalence_alternating, next_from_g};
pub use check::{Budget, DdCheckAbort, DdEquivalence};
pub use complex_table::{ComplexTable, Cx};
pub use edge::{Edge, MEdge, MNode, Node, NodeId, VEdge, VNode};
pub use package::{DdLimitError, Package, PackageStats};
pub use probe::{DdBackend, DdProbeRun};

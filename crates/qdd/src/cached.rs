//! A reusable decision-diagram handle: build a circuit's system matrix DD
//! once, check many candidate circuits against it.
//!
//! Fault-injection campaigns check hundreds of mutants of the *same*
//! golden circuit `G'`. The plain checkers ([`check_equivalence_construct`],
//! [`check_equivalence_alternating`]) rebuild `G'`'s DD from scratch on
//! every call, which dominates the guard cost of a campaign. A
//! [`CachedDd`] amortizes that: the golden DD is constructed exactly once
//! and kept live across [`CachedDd::check`] calls, so each check only pays
//! for the candidate's DD (plus a pointer comparison of the roots).
//!
//! The handle owns its [`Package`], so it is `Send` but not `Sync`.
//!
//! [`check_equivalence_construct`]: crate::check_equivalence_construct
//! [`check_equivalence_alternating`]: crate::check_equivalence_alternating
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), qdd::DdCheckAbort> {
//! use qdd::{CachedDd, DdEquivalence};
//!
//! let golden = qcirc::generators::ghz(4);
//! let mut cache = CachedDd::build(&golden, qdd::Package::DEFAULT_NODE_LIMIT, None)?;
//! // Same circuit: equivalent, without rebuilding the golden DD.
//! assert!(cache.check(&golden, None)?.is_equivalent());
//! let mut buggy = golden.clone();
//! buggy.x(2);
//! assert_eq!(cache.check(&buggy, None)?, DdEquivalence::NotEquivalent);
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use qcirc::Circuit;

use crate::check::{compare_roots, Budget, DdCheckAbort, DdEquivalence};
use crate::edge::MEdge;
use crate::package::Package;

/// A memoized system-matrix DD of one golden circuit, reusable across
/// many equivalence checks against candidate circuits.
#[derive(Debug)]
pub struct CachedDd {
    package: Package,
    root: MEdge,
}

impl CachedDd {
    /// Builds the golden circuit's DD once, under the given node limit and
    /// optional wall-clock deadline.
    ///
    /// # Errors
    ///
    /// Returns [`DdCheckAbort`] if the build times out or exhausts the
    /// node limit — the golden circuit itself is too large to cache.
    pub fn build(
        golden: &Circuit,
        node_limit: usize,
        deadline: Option<Duration>,
    ) -> Result<Self, DdCheckAbort> {
        let mut package = Package::with_node_limit(golden.n_qubits(), node_limit);
        let root = package.circuit_medge(golden, &Budget::new(deadline), &mut [])?;
        // Compact down to the live golden DD, then size the GC threshold to
        // it: a handle that serves many checks must collect every few
        // candidates, or the arena and hash tables balloon across checks
        // and each operation slows down — the package default (tuned for
        // one-shot checks) is far too lax for this access pattern.
        let (roots, _) = package.compact(&[root], &[]);
        let root = roots[0];
        let live = package.stats().matrix_nodes;
        package.set_gc_threshold(live * 16 + 4_096);
        Ok(CachedDd { package, root })
    }

    /// The register size of the cached circuit.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.package.n_qubits()
    }

    /// Checks `candidate` against the cached golden DD: builds the
    /// candidate's DD in the shared package (the golden root is protected
    /// from garbage collection) and compares the two roots.
    ///
    /// The verdict is identical to
    /// [`check_equivalence_construct`](crate::check_equivalence_construct)
    /// on `(golden, candidate)` — canonicity makes the comparison
    /// order-independent.
    ///
    /// # Errors
    ///
    /// Returns [`DdCheckAbort`] on timeout or node-limit exhaustion; the
    /// cached golden DD stays valid and later checks may still succeed.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` acts on a different register size than the
    /// cached circuit.
    pub fn check(
        &mut self,
        candidate: &Circuit,
        deadline: Option<Duration>,
    ) -> Result<DdEquivalence, DdCheckAbort> {
        // `keep` remaps `self.root` in place across any internal GC, so the
        // golden root stays valid even when the candidate build aborts.
        let built = self.package.circuit_medge(
            candidate,
            &Budget::new(deadline),
            std::slice::from_mut(&mut self.root),
        );
        let verdict = match built {
            Ok(candidate_root) => Ok(compare_roots(&mut self.package, self.root, candidate_root)),
            Err(abort) => Err(abort),
        };
        // Candidate nodes (and, after an abort, half-built garbage) pile up
        // in the arena across checks; compact down to the golden root
        // before they threaten the node budget.
        if self.package.wants_gc() {
            let (roots, _) = self.package.compact(&[self.root], &[]);
            self.root = roots[0];
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    #[test]
    fn cached_verdicts_match_fresh_construct_checks() {
        let golden = generators::qft(4, true);
        let mut cache = CachedDd::build(&golden, Package::DEFAULT_NODE_LIMIT, None).unwrap();
        let candidates = [
            golden.clone(),
            qcirc::optimize::optimize(&golden),
            {
                let mut b = golden.clone();
                b.x(1);
                b
            },
            {
                let mut b = golden.clone();
                b.rz(2.0 * std::f64::consts::PI, 0);
                b
            },
        ];
        for candidate in &candidates {
            let cached = cache.check(candidate, None).unwrap();
            let mut p = Package::new(4);
            let budget = Budget::new(None);
            let fresh =
                crate::check_equivalence_construct(&mut p, &golden, candidate, &budget).unwrap();
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn golden_root_survives_gc_across_many_checks() {
        let golden = generators::qft(5, true);
        let mut cache = CachedDd::build(&golden, Package::DEFAULT_NODE_LIMIT, None).unwrap();
        // Force frequent compaction so the keep-root path is exercised.
        cache.package.set_gc_threshold(1024);
        let mut buggy = golden.clone();
        buggy.x(0);
        for i in 0..50 {
            let candidate = if i % 2 == 0 { &golden } else { &buggy };
            let v = cache.check(candidate, None).unwrap();
            assert_eq!(v.is_equivalent(), i % 2 == 0, "check {i}");
        }
        // Compaction kept the arena bounded: dead candidate DDs were
        // collected rather than accumulating across all 50 checks.
        let stats = cache.package.stats();
        assert!(
            stats.matrix_nodes < 10_000,
            "arena grew unbounded: {stats:?}"
        );
    }

    #[test]
    fn aborted_check_leaves_the_cache_usable() {
        let golden = generators::qft(5, true);
        let mut cache = CachedDd::build(&golden, Package::DEFAULT_NODE_LIMIT, None).unwrap();
        let e = cache
            .check(&generators::supremacy_2d(5, 1, 20, 1), Some(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(e, DdCheckAbort::Timeout { .. }));
        assert!(cache.check(&golden, None).unwrap().is_equivalent());
    }

    #[test]
    fn abort_after_internal_gc_leaves_the_golden_root_valid() {
        // Regression: an internal GC remaps the kept golden root; a later
        // abort in the same build must not lose that remap, or every
        // subsequent check reads a stale root id into a rebuilt arena.
        let golden = generators::qft(6, true);
        let mut cache = CachedDd::build(&golden, 3_000, None).unwrap();
        cache.package.set_gc_threshold(1024);
        let e = cache
            .check(&generators::supremacy_2d(6, 1, 120, 1), None)
            .unwrap_err();
        assert!(matches!(e, DdCheckAbort::NodeLimit { .. }), "{e:?}");
        assert!(cache.check(&golden, None).unwrap().is_equivalent());
        let mut buggy = golden.clone();
        buggy.x(0);
        assert_eq!(
            cache.check(&buggy, None).unwrap(),
            DdEquivalence::NotEquivalent
        );
    }

    #[test]
    fn register_mismatch_panics() {
        let golden = generators::ghz(3);
        let mut cache = CachedDd::build(&golden, Package::DEFAULT_NODE_LIMIT, None).unwrap();
        let wide = generators::ghz(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.check(&wide, None);
        }));
        assert!(r.is_err());
    }
}

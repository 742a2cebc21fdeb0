//! Decision-diagram stimulus probes: the DD analogue of `qsim`'s
//! statevector equivalence probe.
//!
//! One probe pushes a stimulus through both circuits as two vector-edge
//! passes ([`Package::apply_to_vedge`]) in a caller-pooled package and
//! compares the two output edges. The package is [`reset`](Package::reset)
//! first, which makes it observationally identical to a fresh one, so a
//! probe is a pure function of `(circuits, stimulus)`: without the reset,
//! interned edge weights — and thus bitwise overlap values — would depend
//! on which stimuli were probed before, scheduling-dependent numerics that
//! a deterministic worker pool cannot afford. Garbage collection still
//! happens *within* a run whenever live nodes cross the threshold; the
//! edges the run still needs (the prepared stimulus across both passes,
//! `G`'s output across the second) ride along as keep roots.

use qcirc::Circuit;
use qnum::Complex;

use crate::edge::VEdge;
use crate::package::{DdLimitError, Package};

/// The decision-diagram probe engine.
///
/// Stateless apart from its node limit, which sizes the packages callers
/// pool (one per worker thread); every probe resets the package it runs
/// in, so one engine may be shared freely across worker threads.
///
/// # Examples
///
/// ```
/// use qdd::{DdBackend, Package};
///
/// let g = qcirc::generators::ghz(4);
/// let opt = qcirc::optimize::optimize(&g);
/// let engine = DdBackend::new();
/// let mut package = Package::with_node_limit(4, engine.node_limit());
/// let run = engine
///     .probe_in(&mut package, &g, &opt, None, 0, &|| true)
///     .unwrap()
///     .expect("never cancelled");
/// assert!((run.overlap.norm_sqr() - 1.0).abs() < 1e-12);
/// assert!(run.peak_nodes > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DdBackend {
    node_limit: usize,
}

impl Default for DdBackend {
    fn default() -> Self {
        DdBackend::new()
    }
}

/// What one completed DD probe hands back: the overlap and the two output
/// states, plus node-count instrumentation sampled at the run's three
/// boundaries (stimulus prepared, `G` applied, `G'` applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdProbeRun {
    /// The overlap `⟨u|u′⟩` of the two output states.
    pub overlap: Complex,
    /// The output states `[u, u′]`, valid in the probe's package until its
    /// next reset or compaction.
    pub outputs: [VEdge; 2],
    /// Peak live nodes (matrix + vector) observed across the boundary
    /// samples — the run's working-set size, directly comparable to the
    /// dense backend's fixed `2·2ⁿ` amplitudes.
    pub peak_nodes: usize,
    /// Distinct complex values interned by the end of the run.
    pub complex_values: usize,
}

impl DdBackend {
    /// Creates an engine with the default node limit
    /// ([`Package::DEFAULT_NODE_LIMIT`]).
    #[must_use]
    pub fn new() -> Self {
        DdBackend {
            node_limit: Package::DEFAULT_NODE_LIMIT,
        }
    }

    /// Creates an engine whose packages abort beyond `node_limit` live
    /// nodes.
    #[must_use]
    pub fn with_node_limit(node_limit: usize) -> Self {
        DdBackend { node_limit }
    }

    /// The node budget of the packages this engine's probes run in.
    #[must_use]
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Probes one stimulus in `package`: resets it, prepares `|basis⟩`
    /// (running the optional `prefix` preparation circuit on top), pushes
    /// the prepared edge through `G` and then through `G′`, and returns the
    /// overlap of the outputs together with the outputs themselves.
    ///
    /// `keep_going` is polled once, between the two passes — DD passes are
    /// not gate-granular cancellable, as intermediate edges are only valid
    /// states at pass boundaries — and a `false` poll returns `None`.
    ///
    /// Equal canonical edges short-circuit to an exact overlap of `1`:
    /// hash-consing makes semantic equality a pointer comparison, so
    /// equivalent circuits never pay for an inner product.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if a pass exceeds the package's node
    /// limit.
    ///
    /// # Panics
    ///
    /// Panics if a circuit's qubit count differs from the package's.
    pub fn probe_in(
        &self,
        package: &mut Package,
        g: &Circuit,
        g_prime: &Circuit,
        prefix: Option<&Circuit>,
        basis: u64,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<DdProbeRun>, DdLimitError> {
        package.reset();
        let mut input = package.basis_vedge(basis)?;
        if let Some(prefix) = prefix {
            input = package.apply_to_vedge(prefix, input, &mut [])?;
        }
        let mut peak_nodes = package.allocated();
        // `input` feeds the second pass and `a` must survive it: both ride
        // along as GC keep roots, or a mid-pass compaction would leave them
        // dangling in the old arena.
        let mut kept_input = [input];
        let a = package.apply_to_vedge(g, input, &mut kept_input)?;
        peak_nodes = peak_nodes.max(package.allocated());
        if !keep_going() {
            return Ok(None);
        }
        let mut kept_a = [a];
        let b = package.apply_to_vedge(g_prime, kept_input[0], &mut kept_a)?;
        let a = kept_a[0];
        peak_nodes = peak_nodes.max(package.allocated());
        let overlap = if a == b {
            Complex::ONE
        } else {
            package.inner_product(a, b)
        };
        Ok(Some(DdProbeRun {
            overlap,
            outputs: [a, b],
            peak_nodes,
            complex_values: package.stats().complex_values,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    /// One probe in a fresh package sized by the engine.
    fn probe(
        engine: DdBackend,
        g: &Circuit,
        g_prime: &Circuit,
        prefix: Option<&Circuit>,
        basis: u64,
    ) -> Result<DdProbeRun, DdLimitError> {
        let mut package = Package::with_node_limit(g.n_qubits(), engine.node_limit());
        Ok(engine
            .probe_in(&mut package, g, g_prime, prefix, basis, &|| true)?
            .expect("unconditional probe cannot be cancelled"))
    }

    #[test]
    fn probe_matches_explicit_package_passes() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        let run = probe(DdBackend::new(), &g, &buggy, None, 5).unwrap();
        let mut package = Package::new(4);
        let input = package.basis_vedge(5).unwrap();
        let a = package.apply_to_vedge(&g, input, &mut []).unwrap();
        let b = package.apply_to_vedge(&buggy, input, &mut []).unwrap();
        let expected = package.inner_product(a, b);
        assert_eq!(run.overlap, expected, "the probe is bitwise");
        assert_eq!(run.outputs, [a, b]);
    }

    #[test]
    fn probe_is_a_pure_function_of_its_inputs() {
        let g = generators::grover(4, 3, 2);
        let mut buggy = g.clone();
        buggy.s(1);
        let engine = DdBackend::new();
        let mut pool = Package::new(4);
        let mut run = |basis| {
            engine
                .probe_in(&mut pool, &g, &buggy, None, basis, &|| true)
                .unwrap()
                .unwrap()
        };
        // Probing other stimuli in between through the same package must
        // not change a run's bits — the property the reset exists for.
        let first = run(9);
        for basis in [0u64, 3, 11, 7] {
            run(basis);
        }
        assert_eq!(first, run(9));
    }

    /// Satellite contract of the pooled workspace: probing through one
    /// reused, reset package yields results *byte-identical* to the
    /// fresh-package path — including interned-value counts, which would
    /// differ immediately if any table state leaked between runs.
    #[test]
    fn pooled_package_probes_are_bitwise_identical_to_fresh_ones() {
        let g = generators::grover(4, 3, 2);
        let mut buggy = g.clone();
        buggy.s(1);
        let engine = DdBackend::new();
        let mut pool = Package::new(4);
        for basis in [9u64, 0, 3, 11, 7, 9] {
            let fresh = probe(engine, &g, &buggy, None, basis).unwrap();
            let pooled = engine
                .probe_in(&mut pool, &g, &buggy, None, basis, &|| true)
                .unwrap()
                .unwrap();
            assert_eq!(fresh, pooled, "basis {basis}");
        }
    }

    #[test]
    fn reset_restores_the_freshly_constructed_stats() {
        let g = generators::qft(4, true);
        let mut p = Package::new(4);
        let fresh_stats = p.stats();
        let input = p.basis_vedge(3).unwrap();
        p.apply_to_vedge(&g, input, &mut []).unwrap();
        assert!(p.stats().complex_values > fresh_stats.complex_values);
        p.reset();
        assert_eq!(p.stats(), fresh_stats, "reset must drop interned state");
    }

    #[test]
    fn equal_edges_short_circuit_to_exact_one() {
        let g = generators::ghz(5);
        let run = probe(DdBackend::new(), &g, &g, None, 3).unwrap();
        assert_eq!(run.overlap, Complex::ONE);
    }

    #[test]
    fn prefix_prepares_the_input_for_both_sides() {
        // A prefix mapping |0⟩ to |+..+⟩; probing identity-vs-Z then shows
        // a fidelity deficit that basis |0⟩ alone would miss entirely.
        let n = 3;
        let mut prefix = Circuit::new(n);
        for q in 0..n {
            prefix.h(q);
        }
        let id = Circuit::new(n);
        let mut z = Circuit::new(n);
        z.z(0);
        let run = probe(DdBackend::new(), &id, &z, Some(&prefix), 0).unwrap();
        assert!(run.overlap.norm_sqr() < 1.0 - 1e-6);
    }

    #[test]
    fn cancellation_between_halves_returns_none() {
        use std::cell::Cell;
        let g = generators::qft(4, true);
        let polls = Cell::new(0usize);
        let keep_going = || {
            polls.set(polls.get() + 1);
            false
        };
        let out = DdBackend::new()
            .probe_in(&mut Package::new(4), &g, &g, None, 0, &keep_going)
            .unwrap();
        assert_eq!(out, None);
        assert_eq!(polls.get(), 1, "polled exactly once, between the halves");
    }

    /// Pins the interning tolerance (EXPERIMENTS.md, honest deviation 4).
    /// This is the fifth stimulus of the benchmark suite's "QFT 48" pair
    /// (`G′` = optimized `G` plus `H·H` on every qubit) at seed 1; with a
    /// looser 1e-10 interning tolerance, rounding drift made it read
    /// fidelity 0.9989 — a false counterexample. It must stay within the
    /// flow's default fidelity tolerance (1e-8) of 1.
    #[test]
    fn qft48_probe_stays_within_the_flow_tolerance() {
        let g = generators::qft(48, false);
        let mut alt = qcirc::optimize::optimize(&g);
        for q in 0..48 {
            alt.h(q).h(q);
        }
        let run = probe(DdBackend::new(), &g, &alt, None, 26_712_651_362_212).unwrap();
        let fidelity = run.overlap.norm_sqr();
        assert!((fidelity - 1.0).abs() <= 1e-8, "fidelity {fidelity}");
    }

    /// Pins one probe's bits — the overlap, the interned-value count and
    /// the peak node count. Every unique-table, compute-table and
    /// interning lookup is exact, so no change to how the tables hash may
    /// move any of them: a different number here means some lookup
    /// returned a different entry.
    #[test]
    fn probe_bits_are_pinned() {
        let g = generators::qft(12, false);
        let mut buggy = g.clone();
        buggy.t(5);
        let run = probe(DdBackend::new(), &g, &buggy, None, 0b1011_0110_1001).unwrap();
        assert_eq!(
            (
                run.overlap.re.to_bits(),
                run.overlap.im.to_bits(),
                run.complex_values,
                run.peak_nodes
            ),
            (0x3feb_504f_333f_9dec, 0x3fd6_a09e_667f_3bd1, 50, 911),
            "overlap {:?}",
            run.overlap
        );
    }

    #[test]
    fn node_limit_is_enforced_per_probe() {
        let g = generators::supremacy_2d(3, 4, 12, 1);
        let e = probe(DdBackend::with_node_limit(50), &g, &g, None, 0).unwrap_err();
        assert_eq!(e.node_limit, 50);
    }

    /// Huge diagrams must surface [`DdLimitError`], never panic: the
    /// 32-qubit Clifford adder under a random-state stimulus prefix — the
    /// package-growth input recorded in the ROADMAP audit — outgrows any
    /// moderate node budget and must fail with the budget error.
    #[test]
    fn huge_diagrams_error_cleanly_instead_of_panicking() {
        let adder = generators::clifford_adder(15); // 2·15 + 2 = 32 qubits
        let prefix = generators::random_clifford_t(32, 400, 11);
        let limit = 40_000;
        match probe(
            DdBackend::with_node_limit(limit),
            &adder,
            &adder,
            Some(&prefix),
            0,
        ) {
            Err(e) => assert_eq!(e.node_limit, limit),
            Ok(run) => assert!(run.peak_nodes <= limit, "survived within budget"),
        }
    }

    /// Regression for the carried `vnode` index-out-of-bounds panic: a
    /// probe whose first pass garbage-collects used to dangle the
    /// caller-held edges (`input` between the passes, `a` across the
    /// second) when `apply_to_vedge` compacted the arena — the stale
    /// `NodeId` then indexed out of bounds in `vnode`. A shrinking first
    /// pass (the prefix's own inverse) forces exactly that: the arena
    /// compacts below the ids of the held edges. With the keep-root
    /// threading the probe survives and — both sides being the same
    /// circuit — short-circuits to an exact overlap of 1.
    #[test]
    fn gc_during_a_pass_keeps_caller_edges_valid() {
        let prefix = generators::random_clifford_t(12, 300, 11);
        let g = prefix.inverse();
        let run = probe(DdBackend::with_node_limit(8_000), &g, &g, Some(&prefix), 0)
            .expect("probe must survive mid-pass GC");
        assert_eq!(run.overlap, Complex::ONE);
    }

    /// The package-level contract behind the fix: edges passed as keep
    /// roots to [`Package::apply_to_vedge`] are remapped through
    /// every internal compaction and stay semantically intact.
    #[test]
    fn keep_roots_survive_compaction_semantically() {
        let n = 12;
        let prefix = generators::random_clifford_t(n, 300, 11);
        let mut p = Package::new(n);
        p.set_gc_threshold(1200);
        let b = p.basis_vedge(0).unwrap();
        let input = p.apply_to_vedge(&prefix, b, &mut []).unwrap();
        let mut keep = [input];
        let back = p
            .apply_to_vedge(&prefix.inverse(), input, &mut keep)
            .unwrap();
        // The shrinking pass returns to |0⟩ …
        assert_eq!(p.amplitude(back, 0), Complex::ONE);
        // … and the kept `input` is still the prepared state, not a stale id.
        let expected = p.inner_product(keep[0], back);
        let direct = p.amplitude(keep[0], 0).conj();
        assert!(
            expected.approx_eq(direct),
            "kept edge must still denote P|0⟩: {expected:?} vs {direct:?}"
        );
    }

    #[test]
    fn instrumentation_reflects_structure() {
        // A GHZ output is a 2-path DD: peak nodes stay linear in n even
        // though the dense state has 2ⁿ amplitudes.
        let n = 12;
        let g = generators::ghz(n);
        let run = probe(DdBackend::new(), &g, &g, None, 0).unwrap();
        assert!(run.peak_nodes > 0);
        assert!(
            run.peak_nodes < 1 << n,
            "structured probe must stay sub-dense: {} nodes",
            run.peak_nodes
        );
        assert!(run.complex_values >= 2);
    }
}

//! Decision-diagram stimulus probes: the DD analogue of `qsim`'s
//! statevector equivalence probe.
//!
//! One probe pushes a stimulus through both circuits as two vector-edge
//! passes in a caller-pooled package and compares the two output edges.
//! The passes take the circuits' gate DDs from the package's per-pair
//! checkpoint: the first probe of a pair resets the package and builds the
//! gate DDs of `G` and then of `G′` once, and every probe starts from that
//! checkpoint, rolling the package back to it. A probe is therefore a pure
//! function of `(circuits, stimulus)`: it starts from a state that depends
//! on the pair's gates alone, never on which stimuli were probed before —
//! without that, interned edge weights, and thus bitwise overlap values,
//! would be scheduling-dependent numerics that a deterministic worker pool
//! cannot afford. Garbage collection still happens *within* a run whenever
//! live nodes cross the threshold; the edges the run still needs (the
//! stored gate DDs, the prepared stimulus across both passes, `G`'s output
//! across the second) ride along as keep roots, and the next probe builds
//! the checkpoint anew.

use qcirc::Circuit;
use qnum::Complex;

use crate::edge::VEdge;
use crate::package::{DdLimitError, Package};

/// The decision-diagram probe engine.
///
/// Stateless apart from its node limit, which sizes the packages callers
/// pool (one per worker thread). Every probe starts its package from the
/// pair's checkpoint (see [`DdBackend::probe_in`]), so one engine may be
/// shared freely across worker threads.
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
    /// next probe, reset or compaction.
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

    /// Probes one stimulus in `package`: starts from the pair's checkpoint,
    /// prepares `|basis⟩` (running the optional `prefix` preparation
    /// circuit on top), pushes the prepared edge through `G` and then
    /// through `G′`, and returns the overlap of the outputs together with
    /// the outputs themselves.
    ///
    /// The checkpoint holds the gate DDs of `G` and `G′`. The first probe
    /// of a pair resets the package and builds them, in circuit order,
    /// while the arena stays within half the GC threshold; later probes of
    /// the same pair (equal gates, compared by content) roll the package back
    /// to it. Gates past that bound, and the prefix's, are built during
    /// each probe. A pass that garbage-collects keeps the stored gate DDs
    /// alive for the rest of the run and drops the checkpoint, so the next
    /// probe builds it again; the result never depends on which probes came
    /// before.
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
        let mut checkpoint = package.enter_pair(g, g_prime)?;
        let stored = &mut checkpoint.edges;
        let mut input = package.basis_vedge(basis)?;
        if let Some(prefix) = prefix {
            input = package.pass(prefix, stored, None, input, &mut [])?;
        }
        let mut peak_nodes = package.allocated();
        // `input` feeds the second pass and `a` must survive it: both ride
        // along as GC keep roots, or a mid-pass compaction would leave them
        // dangling in the old arena.
        let mut kept_input = [input];
        let a = package.pass(g, stored, Some(0), input, &mut kept_input)?;
        peak_nodes = peak_nodes.max(package.allocated());
        if !keep_going() {
            package.keep_checkpoint(checkpoint);
            return Ok(None);
        }
        let mut kept_a = [a];
        let b = package.pass(g_prime, stored, Some(g.len()), kept_input[0], &mut kept_a)?;
        let a = kept_a[0];
        peak_nodes = peak_nodes.max(package.allocated());
        let overlap = if a == b {
            Complex::ONE
        } else {
            package.inner_product(a, b)
        };
        let run = DdProbeRun {
            overlap,
            outputs: [a, b],
            peak_nodes,
            complex_values: package.stats().complex_values,
        };
        package.keep_checkpoint(checkpoint);
        Ok(Some(run))
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

    /// The bit pattern of a run: overlap bits, outputs, interned values and
    /// peak nodes.
    fn bits(run: &DdProbeRun) -> (u64, u64, [VEdge; 2], usize, usize) {
        (
            run.overlap.re.to_bits(),
            run.overlap.im.to_bits(),
            run.outputs,
            run.complex_values,
            run.peak_nodes,
        )
    }

    /// The probe computed lazily in a fresh package: `basis_vedge`, then
    /// `apply_to_vedge` for the prefix, `G` and `G′`, then `inner_product`
    /// — every gate DD built when its pass reaches it.
    fn lazy_overlap(
        g: &Circuit,
        g_prime: &Circuit,
        prefix: Option<&Circuit>,
        basis: u64,
    ) -> Complex {
        let mut package = Package::new(g.n_qubits());
        let mut input = package.basis_vedge(basis).unwrap();
        if let Some(prefix) = prefix {
            input = package.apply_to_vedge(prefix, input, &mut []).unwrap();
        }
        let a = package.apply_to_vedge(g, input, &mut []).unwrap();
        let b = package.apply_to_vedge(g_prime, input, &mut []).unwrap();
        package.inner_product(a, b)
    }

    /// The pairs whose probe bits the checkpoint may move: each with a
    /// wrong `G′` or an equivalent one, and one bringing in SWAP gate DDs.
    fn corpus() -> Vec<(&'static str, Circuit, Circuit)> {
        let qft12 = generators::qft(12, false);
        let mut qft12_t = qft12.clone();
        qft12_t.t(5);
        let mut qft12_opt = qcirc::optimize::optimize(&qft12);
        for q in 0..12 {
            qft12_opt.h(q).h(q);
        }
        let cuccaro = generators::cuccaro_adder(4);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&cuccaro);
        let mut lowered_x = lowered.clone();
        lowered_x.x(0);
        let grover = generators::grover(5, 3, 2);
        let mut grover_s = grover.clone();
        grover_s.s(1);
        let qft8 = generators::qft(8, false);
        let mut routed =
            qcirc::mapping::route_or_panic(&qft8, &qcirc::mapping::CouplingMap::linear(8)).circuit;
        assert!(routed
            .gates()
            .iter()
            .any(|gate| gate.kind() == &qcirc::GateKind::Swap));
        routed.tdg(2);
        let rct = generators::random_clifford_t(10, 200, 3);
        let mut rct_opt = qcirc::optimize::optimize(&rct);
        rct_opt.t(7);
        vec![
            ("qft12 + t(5)", qft12.clone(), qft12_t),
            ("qft12 vs optimized + H·H", qft12, qft12_opt),
            ("cuccaro4 vs lowering", cuccaro.clone(), lowered),
            ("cuccaro4 vs lowering + x(0)", cuccaro, lowered_x),
            ("grover(5,3,2) + s(1)", grover, grover_s),
            ("qft8 vs routed on a line + tdg(2)", qft8, routed),
            ("rct(10,200,3) vs optimized + t(7)", rct, rct_opt),
        ]
    }

    /// Every corpus pair at a few basis states and under a product-state
    /// and a Clifford prefix, probed in turn through one pooled package:
    /// the overlap must match the lazily computed one within `1e-12`.
    #[test]
    fn probe_matches_explicit_package_passes() {
        let engine = DdBackend::new();
        for (name, g, g_prime) in corpus() {
            let n = g.n_qubits();
            let mut product = Circuit::new(n);
            let mut clifford = Circuit::new(n);
            for q in 0..n {
                product
                    .ry(0.3 + 0.17 * q as f64, q)
                    .rz(1.1 - 0.23 * q as f64, q);
                clifford.h(q);
                if q % 3 == 1 {
                    clifford.s(q);
                }
            }
            for q in 1..n {
                clifford.cx(q - 1, q);
            }
            let top = (1u64 << n) - 1;
            let stimuli = [
                (None, 0),
                (None, 0b1011_0110_1001 & top),
                (None, top),
                (Some(&product), 0),
                (Some(&clifford), 0),
            ];
            let mut pool = Package::new(n);
            for (prefix, basis) in stimuli {
                let run = engine
                    .probe_in(&mut pool, &g, &g_prime, prefix, basis, &|| true)
                    .unwrap()
                    .unwrap();
                let expected = lazy_overlap(&g, &g_prime, prefix, basis);
                assert!(
                    run.overlap.approx_eq_with(expected, 1e-12),
                    "{name}, basis {basis}, prefix {}: {:?} vs {expected:?}",
                    prefix.is_some(),
                    run.overlap
                );
            }
        }
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

    /// Contract of the pooled workspace: probing through one reused package
    /// yields results *bit-identical* to the fresh-package path —
    /// overlaps, outputs, interned-value counts and peak nodes, which would
    /// differ at once if any table state leaked between runs. Four pairs
    /// alternate through the package: two unrelated ones, the first's
    /// gates in swapped roles, and the first's `G` against another `G′` of
    /// the same length, so a checkpoint kept under any key weaker than the
    /// pair's gate content would hand a probe the wrong gate DDs.
    #[test]
    fn pooled_package_probes_are_bitwise_identical_to_fresh_ones() {
        let grover = generators::grover(4, 3, 2);
        let mut grover_s = grover.clone();
        grover_s.s(1);
        let mut grover_t = grover.clone();
        grover_t.t(1);
        let n = grover.n_qubits();
        let qft = generators::qft(n, true);
        let mut qft_t = qft.clone();
        qft_t.t(2);
        let pairs = [
            (&grover, &grover_s),
            (&qft, &qft_t),
            (&grover_s, &grover),
            (&grover, &grover_t),
        ];
        let engine = DdBackend::new();
        let mut pool = Package::new(n);
        for (i, basis) in [9u64, 0, 3, 11, 7, 9, 9, 5, 3, 12].into_iter().enumerate() {
            let (g, g_prime) = pairs[i % pairs.len()];
            let fresh = probe(engine, g, g_prime, None, basis).unwrap();
            let pooled = engine
                .probe_in(&mut pool, g, g_prime, None, basis, &|| true)
                .unwrap()
                .unwrap();
            assert_eq!(bits(&fresh), bits(&pooled), "probe {i}, basis {basis}");
        }
    }

    /// A probe whose passes compact drops the checkpoint, and the probe
    /// after it builds a new one from a reset: every run in the pooled
    /// package still equals a fresh package's at the same GC threshold, bit
    /// for bit. The routed pair's SWAP gate DDs leave intermediate nodes
    /// that no stored edge reaches, so a compacted arena is no longer the
    /// checkpoint's, even at the same length.
    #[test]
    fn probes_after_a_compaction_equal_fresh_ones() {
        let rct = generators::random_clifford_t(10, 200, 3);
        let mut rct_opt = qcirc::optimize::optimize(&rct);
        rct_opt.t(7);
        let qft = generators::qft(10, false);
        let mut routed =
            qcirc::mapping::route_or_panic(&qft, &qcirc::mapping::CouplingMap::linear(10)).circuit;
        routed.tdg(2);
        let mut prefix = Circuit::new(10);
        for q in 0..10 {
            prefix.ry(0.3 + 0.17 * q as f64, q);
        }
        for (g, g_prime, prefix) in [(&rct, &rct_opt, None), (&qft, &routed, Some(&prefix))] {
            let fresh = |basis| {
                let mut package = Package::new(10);
                package.set_gc_threshold(1024);
                let run = DdBackend::new()
                    .probe_in(&mut package, g, g_prime, prefix, basis, &|| true)
                    .unwrap()
                    .unwrap();
                (bits(&run), package.generation())
            };
            let mut pool = Package::new(10);
            pool.set_gc_threshold(1024);
            let mut compacted = false;
            for basis in [0u64, 37, 512, 37, 1023, 0] {
                let run = DdBackend::new()
                    .probe_in(&mut pool, g, g_prime, prefix, basis, &|| true)
                    .unwrap()
                    .unwrap();
                let (expected, fresh_generation) = fresh(basis);
                assert_eq!(bits(&run), expected, "{}, basis {basis}", g_prime.name());
                // A fresh package resets once for the build; any further
                // step of its generation is a compaction.
                compacted |= fresh_generation > 1;
            }
            assert!(compacted, "{}: some probe must compact", g_prime.name());
        }
    }

    /// A pair whose gate DDs outgrow half the GC threshold: the checkpoint
    /// stores the gates that fit, the probes build the rest, and the arena
    /// stays bounded without compacting after every gate.
    #[test]
    fn checkpoint_stays_within_half_the_gc_threshold() {
        let g = generators::qft(16, false);
        let mut g_prime = g.clone();
        g_prime.t(5);
        let threshold = 1024;
        // The most nodes one gate's DD adds to a package holding only the
        // identity.
        let one_gate = g
            .gates()
            .iter()
            .chain(g_prime.gates())
            .map(|gate| {
                let mut p = Package::new(16);
                let before = p.allocated();
                p.gate_medge(gate).unwrap();
                p.allocated() - before
            })
            .max()
            .unwrap();
        let mut all_gates = Package::new(16);
        for gate in g.gates() {
            all_gates.gate_medge(gate).unwrap();
        }
        assert!(
            all_gates.allocated() > threshold / 2,
            "the gate DDs must outgrow half the threshold"
        );
        let gates = g.len() + g_prime.len();
        let mut pool = Package::new(16);
        pool.set_gc_threshold(threshold);
        for k in 1..=10u64 {
            let basis = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
            let before = pool.generation();
            let run = DdBackend::new()
                .probe_in(&mut pool, &g, &g_prime, None, basis, &|| true)
                .unwrap()
                .unwrap();
            let expected = lazy_overlap(&g, &g_prime, None, basis);
            assert!(run.overlap.approx_eq_with(expected, 1e-12), "basis {basis}");
            assert!(
                pool.allocated() <= threshold + one_gate,
                "basis {basis}: {} nodes",
                pool.allocated()
            );
            // Compactions, plus the reset of the checkpoint each of them
            // makes the next probe rebuild: far fewer than one per gate.
            let restarts = pool.generation() - before;
            assert!(
                restarts * 8 < gates as u64,
                "basis {basis}: {restarts} resets and compactions for {gates} gates"
            );
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

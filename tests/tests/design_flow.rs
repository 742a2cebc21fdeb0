//! End-to-end design-flow integration tests: every transformation chain the
//! paper's flow is meant to verify, checked across all crates.

use qcec::{check_equivalence_default, Outcome};
use qcirc::mapping::{respects_coupling, route, CouplingMap, RouterOptions};
use qcirc::{decompose, generators, optimize};

/// decompose → map → optimize on QFT, verified stage by stage.
#[test]
fn qft_full_pipeline() {
    let algorithm = generators::qft(6, true);
    let lowered = decompose::decompose_to_cx_and_single_qubit(&algorithm);
    assert!(lowered.is_elementary());

    let device = CouplingMap::grid(2, 3);
    let routed = route(&lowered, &device, RouterOptions::default()).unwrap();
    assert!(respects_coupling(&routed.circuit, &device));

    let optimized = optimize::optimize(&routed.circuit);
    assert!(optimized.len() <= routed.circuit.len());

    for (stage, artifact) in [
        ("decomposed", &lowered),
        ("mapped", &routed.circuit),
        ("optimized", &optimized),
    ] {
        let result = check_equivalence_default(&algorithm.widened(artifact.n_qubits()), artifact)
            .unwrap_or_else(|e| panic!("{stage}: {e}"));
        assert!(
            result.outcome.is_equivalent(),
            "{stage}: {}",
            result.outcome
        );
    }
}

/// The chemistry workload across a larger grid.
#[test]
fn chemistry_pipeline_on_grid() {
    let algorithm = generators::trotter_heisenberg(2, 4, 2, 0.07, 0.3);
    let device = CouplingMap::grid(2, 4);
    let routed = route(&algorithm, &device, RouterOptions::default()).unwrap();
    let optimized = optimize::optimize(&routed.circuit);
    let result = check_equivalence_default(&algorithm, &optimized).unwrap();
    assert!(result.outcome.is_equivalent());
}

/// Grover with ancilla decomposition, exactly the paper's register
/// inflation (Grover 6 → 9 qubits, Grover 7 → 11).
#[test]
fn grover_ancilla_decomposition_checks() {
    for (k, expected_n) in [(6usize, 9usize), (7, 11)] {
        let g = generators::grover(k, 1, 2);
        let lowered = decompose::decompose_with_dirty_ancillas(&g);
        assert_eq!(lowered.n_qubits(), expected_n, "Grover {k}");
        let result = check_equivalence_default(&g.widened(expected_n), &lowered).unwrap();
        assert!(
            result.outcome.is_equivalent(),
            "Grover {k}: {}",
            result.outcome
        );
    }
}

/// Adders survive the pipeline and still add.
#[test]
fn adder_pipeline_preserves_arithmetic() {
    let adder = generators::cuccaro_adder(3);
    let lowered = decompose::decompose_to_cx_and_single_qubit(&adder);
    let routed = route(
        &lowered,
        &CouplingMap::ring(adder.n_qubits()),
        RouterOptions::default(),
    )
    .unwrap();
    // Equivalence via the flow…
    let result = check_equivalence_default(&adder, &routed.circuit).unwrap();
    assert!(result.outcome.is_equivalent());
    // …and a direct behavioural spot-check: 5 + 6 = 11 (n = 3 bits: 3, carry 1).
    let sim = qsim::Simulator::new();
    let n = 3;
    let input = (6u64 << 1) | (5 << (1 + n));
    let out = sim.run_basis(&routed.circuit, input);
    let expected = (3u64 << 1) | (5 << (1 + n)) | (1 << (2 * n + 1));
    assert!(out.probability(expected) > 1.0 - 1e-9);
}

/// Every error class injected into a mapped artifact is caught, with a
/// counterexample, within the default r = 10 — or, where the guard proves
/// the mutant benign, checks equivalent.
#[test]
fn all_error_classes_are_caught_on_mapped_circuits() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let g = generators::supremacy_2d(3, 3, 6, 5);
    // Lower CZ to the CX basis first, as a real flow would — this also
    // gives the CX-specific error classes something to corrupt.
    let lowered = decompose::decompose_to_cx_and_single_qubit(&g);
    let routed = route(&lowered, &CouplingMap::grid(3, 3), RouterOptions::default()).unwrap();
    let reference = g.widened(routed.circuit.n_qubits());
    let guard = qfault::GuardCache::new(&routed.circuit, &qfault::GuardOptions::default());
    for mutator in qfault::registry(0.1) {
        let mut rng = StdRng::seed_from_u64(17);
        let (buggy, record) = match mutator.apply(&routed.circuit, &mut rng) {
            Ok(mutant) => mutant,
            // The supremacy gate set has no parameterized gate to perturb;
            // every other class must find a site.
            Err(_) if mutator.kind() == qfault::MutationKind::PerturbAngle => continue,
            Err(e) => panic!("{e}"),
        };
        let result = check_equivalence_default(&reference, &buggy).unwrap();
        if guard.classify(&buggy).is_benign() {
            assert!(
                result.outcome.is_equivalent(),
                "{record}: benign mutant flagged"
            );
            continue;
        }
        match result.outcome {
            Outcome::NotEquivalent { counterexample } => {
                let ce = counterexample.expect("simulation should find the witness");
                assert!(ce.fidelity < 1.0 - 1e-9, "{record}");
            }
            ref other => panic!("{record}: unexpected {other}"),
        }
    }
}

/// The serialized (QASM) artifact of a pipeline still checks equivalent —
/// i.e. serialization round-trips semantics, not just syntax.
#[test]
fn qasm_roundtrip_preserves_equivalence() {
    let g = generators::trotter_heisenberg(2, 2, 2, 0.11, 0.4);
    let routed = route(&g, &CouplingMap::grid(2, 2), RouterOptions::default()).unwrap();
    let text = qcirc::qasm::write(&routed.circuit);
    let parsed = qcirc::qasm::parse(&text).unwrap();
    let result = check_equivalence_default(&g, &parsed).unwrap();
    assert!(result.outcome.is_equivalent());
}

/// RevLib-format circuits flow into the checker.
#[test]
fn revlib_real_circuit_checks_against_its_decomposition() {
    let src = "\
.version 1.0
.numvars 5
.variables a b c d e
.begin
t1 a
t2 a b
t3 a b c
t4 a b c d
t5 a b c d e
f3 a d e
p b c d
.end";
    let g = qcirc::real::parse(src).unwrap();
    let lowered = decompose::decompose_with_dirty_ancillas(&g);
    let result = check_equivalence_default(&g.widened(lowered.n_qubits()), &lowered).unwrap();
    assert!(result.outcome.is_equivalent(), "{}", result.outcome);
}

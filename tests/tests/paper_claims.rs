//! Tests that pin down the paper's quantitative claims on small instances.

use qcec::theory::{
    controlled_difference_gate, differing_columns, predicted_detection_probability,
};
use qcec::{check_equivalence_default, Config, Fallback, Outcome};
use qcirc::{generators, Circuit};

/// Section IV-A: a difference gate with `c` controls corrupts exactly
/// `2^{n−c}` columns (Examples 7 and 8 are the endpoints).
#[test]
fn column_corruption_law() {
    let n = 6;
    for c in 0..n {
        let reference = Circuit::new(n);
        let mut with_error = Circuit::new(n);
        with_error.append(&controlled_difference_gate(n, c));
        assert_eq!(differing_columns(&reference, &with_error), 1 << (n - c));
    }
}

/// Example 7: when the *difference* `D = U†U'` is a bare single-qubit gate
/// (the error sits at the circuit input, so `U' = U·X_q` and `D = X_q`),
/// every column differs and 100% of simulations detect it.
#[test]
fn single_qubit_errors_are_always_detected() {
    let g = generators::qft(6, true);
    for q in 0..6 {
        let mut buggy = g.clone();
        buggy.insert(0, qcirc::Gate::single(qcirc::GateKind::X, q));
        for seed in 0..5 {
            let config = Config::new()
                .with_simulations(1)
                .with_seed(seed)
                .with_fallback(Fallback::None);
            let result = qcec::check_equivalence(&g, &buggy, &config).unwrap();
            assert!(
                result.outcome.is_not_equivalent(),
                "qubit {q}, seed {seed}: single-qubit error survived a simulation"
            );
        }
    }
}

/// Example 8: the (n−1)-controlled error is the worst case — most single
/// random simulations miss it.
#[test]
fn fully_controlled_error_is_the_worst_case() {
    let n = 6;
    let g = Circuit::new(n);
    let mut buggy = Circuit::new(n);
    buggy.append(&controlled_difference_gate(n, n - 1));
    let mut missed = 0;
    let trials = 30;
    for seed in 0..trials {
        let config = Config::new()
            .with_simulations(1)
            .with_seed(seed)
            .with_fallback(Fallback::None);
        let result = qcec::check_equivalence(&g, &buggy, &config).unwrap();
        if !result.outcome.is_not_equivalent() {
            missed += 1;
        }
    }
    // Detection probability is 2/2⁶ ≈ 3%; missing most runs is expected.
    assert!(
        missed > trials / 2,
        "worst case was detected too often ({missed}/{trials} missed)"
    );
    // The theory module predicts the same.
    assert!(predicted_detection_probability(n - 1) < 0.05);
}

/// Fig. 1: the worked example — G, its mapped variant, and the Example 6
/// bug whose Ũ' differs from U in every column.
#[test]
fn figure1_worked_example() {
    let g = generators::figure1b();
    let u = qsim::unitary(&g);
    assert!(u.is_unitary());

    // Fig. 2: mapping to a line inserts SWAPs but preserves U.
    let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(3));
    assert!(routed.swap_count > 0, "the example needs inserted SWAPs");
    assert!(qsim::unitary(&routed.circuit).approx_eq(&u));

    // Example 6: misapply the last SWAP → Ũ' differs in many columns and
    // the flow catches it by simulation.
    let mut buggy = routed.circuit.clone();
    let idx = buggy
        .gates()
        .iter()
        .rposition(|gate| gate.kind().mnemonic() == "swap")
        .expect("mapped circuit contains a SWAP");
    let old = buggy.gates()[idx].clone();
    let (a, b) = (old.targets()[0], old.targets()[1]);
    let wrong = 3 - a - b;
    buggy.replace(idx, qcirc::Gate::swap(a.min(wrong), a.max(wrong)));

    let u_bug = qsim::unitary(&buggy);
    let differing = u.differing_columns(&u_bug);
    assert!(
        differing >= 4,
        "the Example-6 bug should corrupt most columns, got {differing}/8"
    );
    let result = check_equivalence_default(&g, &buggy).unwrap();
    match result.outcome {
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => assert!(ce.run <= 3, "needed {} runs", ce.run),
        other => panic!("bug not detected: {other}"),
    }
}

/// Table Ib's punchline: ten simulations cost a negligible fraction of the
/// complete check on DD-hostile circuits.
#[test]
fn simulation_overhead_is_negligible_on_hard_instances() {
    use std::time::Instant;
    let g = generators::supremacy_2d(3, 4, 12, 9);

    let sim_start = Instant::now();
    let config = Config::new()
        .with_fallback(Fallback::None)
        .with_simulations(10);
    let result = qcec::check_equivalence(&g, &g, &config).unwrap();
    let t_sim = sim_start.elapsed();
    assert!(matches!(result.outcome, Outcome::ProbablyEquivalent { .. }));

    // Building the system matrix, as a construct-and-compare check does,
    // either exhausts its node budget or takes far longer than the
    // simulations.
    let ec_start = Instant::now();
    let mut p = qdd::Package::with_node_limit(12, 300_000);
    let ec = p.circuit_medge(&g, &qdd::Budget::new(None));
    let t_ec = ec_start.elapsed();
    match ec {
        Err(_) => {}
        Ok(_) => assert!(t_ec > t_sim, "t_ec {t_ec:?} vs t_sim {t_sim:?}"),
    }
}

/// The "timeout" outcome carries the number of agreeing simulations — the
/// paper's "strong indication" of equivalence.
#[test]
fn probable_equivalence_reports_evidence() {
    let g = generators::supremacy_2d(3, 3, 8, 4);
    let config = Config::new()
        .with_simulations(7)
        .with_deadline(Some(std::time::Duration::ZERO));
    let result = qcec::check_equivalence(&g, &g, &config).unwrap();
    match result.outcome {
        Outcome::ProbablyEquivalent {
            passed_simulations, ..
        } => assert_eq!(passed_simulations, 7),
        other => panic!("expected probable equivalence, got {other}"),
    }
}

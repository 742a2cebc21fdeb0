//! Cross-validation of the stabilizer simulator against the dense
//! statevector simulator on random Clifford circuits.

use proptest::prelude::*;
use qcirc::{Circuit, Gate, GateKind};
use qsim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random Clifford circuit (tableau-supported gates only).
fn random_clifford(n: usize, m: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, format!("clifford_{n}_{m}"));
    for _ in 0..m {
        match rng.gen_range(0..10) {
            0 => c.h(rng.gen_range(0..n)),
            1 => c.s(rng.gen_range(0..n)),
            2 => c.sdg(rng.gen_range(0..n)),
            3 => c.x(rng.gen_range(0..n)),
            4 => c.y(rng.gen_range(0..n)),
            5 => c.z(rng.gen_range(0..n)),
            6 => c.sx(rng.gen_range(0..n)),
            7 => c.sy(rng.gen_range(0..n)),
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                if rng.gen_bool(0.5) {
                    c.cx(a, b)
                } else {
                    c.cz(a, b)
                }
            }
        };
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-qubit measurement probabilities agree exactly (they are always
    /// 0, ½ or 1 for stabilizer states).
    #[test]
    fn marginals_match_statevector(seed in any::<u64>(), basis_sel in any::<u64>()) {
        let n = 5;
        let c = random_clifford(n, 60, seed);
        let basis = basis_sel % (1 << n);
        let tableau = qstab::run(&c, basis).unwrap();
        let state = Simulator::new().run_basis(&c, basis);
        for q in 0..n {
            let expected = qsim::measure::probability_of_one(&state, q);
            let got = tableau.measure_probability_of_one(q).unwrap();
            prop_assert!(
                (expected - got).abs() < 1e-9,
                "qubit {q}: statevector {expected}, tableau {got}"
            );
        }
    }

    /// Tableau state equality coincides with statevector equality up to
    /// global phase.
    #[test]
    fn same_state_matches_statevector(seed in any::<u64>()) {
        let n = 4;
        let a = random_clifford(n, 40, seed);
        let b = random_clifford(n, 40, seed.wrapping_add(1));
        let sim = Simulator::new();
        for basis in [0u64, 7] {
            let ta = qstab::run(&a, basis).unwrap();
            let tb = qstab::run(&b, basis).unwrap();
            let sa = sim.run_basis(&a, basis);
            let sb = sim.run_basis(&b, basis);
            prop_assert_eq!(
                ta.same_state(&tb),
                sa.approx_eq_up_to_phase(&sb),
                "basis {}", basis
            );
        }
    }

    /// Stabilizer expectation: every canonical stabilizer generator of the
    /// tableau has expectation +1 in the statevector. With `|ψ⟩ = C|0⟩`
    /// and the row's Pauli `P` built from `x`/`y`/`z` gates, `⟨ψ|P|ψ⟩` is
    /// the inner product of `C|0⟩` with `(C·P)|0⟩`, times the row's sign.
    #[test]
    fn stabilizers_have_unit_expectation(seed in any::<u64>()) {
        let n = 4;
        let c = random_clifford(n, 50, seed);
        let tableau = qstab::run(&c, 0).unwrap();
        let sim = Simulator::new();
        let state = sim.run_basis(&c, 0);
        for row in tableau.canonical_stabilizers() {
            let mut with_p = c.clone();
            for q in 0..n {
                match (row.x[q], row.z[q]) {
                    (true, false) => with_p.x(q),
                    (false, true) => with_p.z(q),
                    (true, true) => with_p.y(q),
                    (false, false) => continue,
                };
            }
            let sign = if row.sign { -1.0 } else { 1.0 };
            let overlap = state.inner_product(&sim.run_basis(&with_p, 0));
            prop_assert!(
                (sign * overlap.re - 1.0).abs() < 1e-9 && overlap.im.abs() < 1e-9,
                "{row} has expectation {overlap:?} × {sign}"
            );
        }
    }

    /// Collapsing measurements agree with statevector collapse in
    /// distribution: measuring all qubits of the tableau yields an outcome
    /// whose statevector probability is nonzero.
    #[test]
    fn sampled_outcomes_are_supported(seed in any::<u64>()) {
        let n = 4;
        let c = random_clifford(n, 40, seed);
        let state = Simulator::new().run_basis(&c, 0);
        let mut tableau = qstab::run(&c, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut outcome = 0u64;
        for q in 0..n {
            if tableau.measure(q, &mut rng) {
                outcome |= 1 << q;
            }
        }
        prop_assert!(
            state.probability(outcome) > 1e-12,
            "sampled |{outcome:b}⟩ has zero statevector probability"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tableau inner-product magnitude equals the dense statevector
    /// inner-product magnitude: always exactly 0 or 2^{−k/2}, and 1 iff
    /// the states agree up to global phase.
    #[test]
    fn inner_product_magnitude_matches_statevector(seed in any::<u64>()) {
        let n = 4;
        let a = random_clifford(n, 40, seed);
        let b = random_clifford(n, 40, seed.wrapping_add(1));
        let sim = Simulator::new();
        for basis in [0u64, 11] {
            let ta = qstab::run(&a, basis).unwrap();
            let tb = qstab::run(&b, basis).unwrap();
            let sa = sim.run_basis(&a, basis);
            let sb = sim.run_basis(&b, basis);
            let dense: f64 = {
                let mut acc = qnum::Complex::ZERO;
                for (x, y) in sa.amplitudes().iter().zip(sb.amplitudes()) {
                    acc += x.conj() * *y;
                }
                acc.abs()
            };
            let tableau = qstab::inner_product_magnitude(&ta, &tb);
            prop_assert!(
                (dense - tableau).abs() < 1e-9,
                "basis {}: statevector {}, tableau {}", basis, dense, tableau
            );
        }
    }
}

/// Phase-convention round trip at n = 8: rows drawn by the uniform
/// stabilizer sampler, lowered to a preparation circuit by
/// `synthesize_state`, and replayed through the CHP gate path must land on
/// a state stabilized by exactly the drawn rows — *including their signs*.
/// The canonical form is pinned so a convention change in any of the three
/// components (sampler sign bookkeeping, synthesis gate choices, CHP
/// conjugation rules) fails loudly rather than silently re-normalizing.
#[test]
fn synthesized_circuit_round_trips_the_sampled_rows_at_n8() {
    let n = 8;
    let mut rng = StdRng::seed_from_u64(0xC11F);
    let rows = qstab::random_stabilizer_rows(n, &mut rng);
    let circuit = qstab::synthesize_state(&rows);
    let tableau = qstab::run(&circuit, 0).unwrap();
    for row in &rows {
        assert!(
            tableau.stabilizes(row),
            "CHP replay does not stabilize drawn row {row}"
        );
    }
    // The same state must come back from `random_stabilizer_circuit`
    // under the same seed (it is the composition of the two steps above).
    let again = qstab::run(
        &qstab::random_stabilizer_circuit(n, &mut StdRng::seed_from_u64(0xC11F)),
        0,
    )
    .unwrap();
    assert!(tableau.same_state(&again));
    let canonical: Vec<String> = tableau
        .canonical_stabilizers()
        .iter()
        .map(ToString::to_string)
        .collect();
    let golden = vec![
        "+ZIZZIIIX".to_string(),
        "+IZIZZIYI".to_string(),
        "-IZIZZXII".to_string(),
        "-ZZZZXZZI".to_string(),
        "+ZZIYZZZZ".to_string(),
        "+ZIYIZIIZ".to_string(),
        "+ZXIZZZZI".to_string(),
        "+XZZZZIIZ".to_string(),
    ];
    assert_eq!(canonical, golden, "canonical form drifted");
}

/// Pauli-row products used by canonicalization match matrix algebra on a
/// couple of hand cases (X·X = I already covered in unit tests; here the
/// anticommuting bookkeeping via an entangled state).
#[test]
fn witness_paulis_separate_states() {
    let n = 6;
    let g = random_clifford(n, 80, 42);
    let mut buggy = g.clone();
    buggy.push(Gate::single(GateKind::Z, 3));
    let verdict = qstab::check_clifford_equivalence(&g, &buggy, 8, 9).unwrap();
    match verdict {
        qstab::CliffordVerdict::NotEquivalent { basis, witness, .. } => {
            // The witness stabilizes G's output but not the buggy one.
            let ta = qstab::run(&g, basis).unwrap();
            let tb = qstab::run(&buggy, basis).unwrap();
            assert!(ta.stabilizes(&witness));
            assert!(!tb.stabilizes(&witness));
        }
        other => panic!("expected detection, got {other:?}"),
    }
}

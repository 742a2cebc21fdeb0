//! Property-based cross-crate invariants.

use proptest::prelude::*;
use qcirc::{generators, Circuit, Gate, GateKind};
use qsim::Simulator;

/// Strategy: a random well-formed circuit on `n` qubits described by a seed
/// (delegating generation to the seeded generator keeps shrinking sane).
fn circuit_seed() -> impl Strategy<Value = (usize, u64)> {
    (3usize..6, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulation preserves the norm for every circuit and basis state.
    #[test]
    fn simulation_preserves_norm((n, seed) in circuit_seed(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, 60, seed);
        let basis = basis_sel % (1 << n);
        let out = Simulator::new().run_basis(&c, basis);
        prop_assert!(out.is_normalized());
    }

    /// G · G⁻¹ maps every basis state to itself.
    #[test]
    fn inverse_roundtrips((n, seed) in circuit_seed(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, 50, seed);
        let mut roundtrip = c.clone();
        roundtrip.append(&c.inverse());
        let basis = basis_sel % (1 << n);
        let out = Simulator::new().run_basis(&roundtrip, basis);
        prop_assert!(out.probability(basis) > 1.0 - 1e-9);
    }

    /// Optimization never changes the unitary (checked via 3 random probes
    /// plus the flow).
    #[test]
    fn optimization_is_exact((n, seed) in circuit_seed()) {
        let c = generators::random_clifford_t(n, 80, seed);
        let o = qcirc::optimize::optimize(&c);
        let result = qcec::check_equivalence(
            &c,
            &o,
            &qcec::Config::new().with_criterion(qcec::Criterion::Strict),
        ).unwrap();
        prop_assert!(result.outcome.is_equivalent(), "{}", result.outcome);
    }

    /// Routing to a random-ish device preserves the unitary.
    #[test]
    fn routing_is_exact((n, seed) in circuit_seed()) {
        let c = generators::random_clifford_t(n, 40, seed);
        let device = qcirc::mapping::CouplingMap::linear(n);
        let routed = qcirc::mapping::route_or_panic(&c, &device);
        let result = qcec::check_equivalence(
            &c,
            &routed.circuit,
            &qcec::Config::new().with_criterion(qcec::Criterion::Strict),
        ).unwrap();
        prop_assert!(result.outcome.is_equivalent());
    }

    /// Decomposition preserves the unitary up to (at most) global phase.
    #[test]
    fn decomposition_is_phase_exact(seed in any::<u64>()) {
        let c = generators::toffoli_network(5, 15, 3, seed);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&c);
        let result = qcec::check_equivalence_default(&c, &lowered).unwrap();
        prop_assert!(result.outcome.is_equivalent(), "{}", result.outcome);
    }

    /// The DD and statevector backends agree on random probes.
    #[test]
    fn backends_agree_on_probes((n, seed) in circuit_seed(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, 50, seed);
        let basis = basis_sel % (1 << n);
        let sv = Simulator::new().run_basis(&c, basis);
        let mut p = qdd::Package::new(n);
        let v = p.apply_to_basis(&c, basis).unwrap();
        for (i, amp) in p.to_statevector(v).iter().enumerate() {
            prop_assert!(amp.approx_eq(sv.amplitudes()[i]));
        }
    }

    /// QASM round-trips every random circuit (structure and semantics).
    #[test]
    fn qasm_roundtrip((n, seed) in circuit_seed()) {
        let c = generators::random_clifford_t(n, 40, seed);
        let parsed = qcirc::qasm::parse(&qcirc::qasm::write(&c)).unwrap();
        prop_assert_eq!(parsed.n_qubits(), c.n_qubits());
        let result = qcec::check_equivalence(
            &c,
            &parsed,
            &qcec::Config::new().with_criterion(qcec::Criterion::Strict),
        ).unwrap();
        prop_assert!(result.outcome.is_equivalent());
    }

    /// A circuit is always equivalent to itself with an extra canceling
    /// pair inserted anywhere.
    #[test]
    fn inserted_canceling_pair_is_equivalent(
        (n, seed) in circuit_seed(),
        pos_sel in any::<usize>(),
        qubit_sel in any::<usize>(),
    ) {
        let c = generators::random_clifford_t(n, 30, seed);
        let mut padded = c.clone();
        let pos = pos_sel % (padded.len() + 1);
        let q = qubit_sel % n;
        padded.insert(pos, Gate::single(GateKind::H, q));
        padded.insert(pos + 1, Gate::single(GateKind::H, q));
        let result = qcec::check_equivalence_default(&c, &padded).unwrap();
        prop_assert!(result.outcome.is_equivalent());
    }

    /// Injected random errors never survive the default flow on elementary
    /// circuits: a guard-confirmed fault is proven different, a
    /// guard-benign mutant proven equivalent.
    #[test]
    fn injected_errors_do_not_slip_through(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let c = generators::trotter_heisenberg(2, 3, 1, 0.17, 0.6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kind = qfault::MutationKind::ALL[rng.gen_range(0..qfault::MutationKind::ALL.len())];
        let (buggy, _) = qfault::mutator_for(kind, rng.gen_range(0.01..0.5))
            .apply(&c, &mut rng)
            .unwrap();
        let result = qcec::check_equivalence_default(&c, &buggy).unwrap();
        let guard = qfault::guard::classify(&c, &buggy, &qfault::GuardOptions::default());
        prop_assert_eq!(result.outcome.is_not_equivalent(), guard.is_fault());
        prop_assert_eq!(result.outcome.is_equivalent(), guard.is_benign());
    }
}

/// Non-proptest determinism check: the whole flow is reproducible.
#[test]
fn flow_is_deterministic() {
    let g = generators::supremacy_2d(2, 3, 6, 11);
    let mut buggy = g.clone();
    buggy.z(3);
    let a = qcec::check_equivalence_default(&g, &buggy).unwrap();
    let b = qcec::check_equivalence_default(&g, &buggy).unwrap();
    assert_eq!(a.outcome, b.outcome);
}

/// A zero-gate circuit is equivalent to a fully-cancelling circuit.
#[test]
fn empty_equals_cancelled() {
    let empty = Circuit::new(4);
    let mut busy = Circuit::new(4);
    busy.h(0).cx(0, 1).ccx(1, 2, 3);
    busy.append(&busy.clone().inverse());
    let result = qcec::check_equivalence_default(&empty, &busy).unwrap();
    assert!(result.outcome.is_equivalent());
}

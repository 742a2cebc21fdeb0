//! Property-based tests of the statevector simulator.

use proptest::prelude::*;
use qcirc::generators;
use qsim::{Simulator, StateVector};

fn circuit_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..6, 5usize..80, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unitarity: norms are preserved for every circuit and basis input.
    #[test]
    fn norm_preservation((n, m, seed) in circuit_params(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, m, seed);
        let basis = basis_sel % (1 << n);
        let out = Simulator::new().run_basis(&c, basis);
        prop_assert!(out.is_normalized());
    }

    /// Linearity: simulating a superposition equals superposing simulations.
    #[test]
    fn linearity((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let sim = Simulator::new();
        // (|0⟩ + |1⟩)/√2 input built by hand.
        let h = qnum::Complex::real(qnum::FRAC_1_SQRT_2);
        let mut amps = vec![qnum::Complex::ZERO; 1 << n];
        amps[0] = h;
        amps[1] = h;
        let input = StateVector::from_amplitudes(amps).unwrap();
        let combined = sim.run(&c, &input);
        let a = sim.run_basis(&c, 0);
        let b = sim.run_basis(&c, 1);
        for i in 0..(1usize << n) {
            let expect = (a.amplitudes()[i] + b.amplitudes()[i]) * qnum::FRAC_1_SQRT_2;
            prop_assert!(combined.amplitudes()[i].approx_eq(expect));
        }
    }

    /// Inner products are preserved by unitaries: ⟨Uφ|Uψ⟩ = ⟨φ|ψ⟩.
    #[test]
    fn inner_product_preservation((n, m, seed) in circuit_params(), i in any::<u64>(), j in any::<u64>()) {
        let c = generators::random_clifford_t(n, m, seed);
        let sim = Simulator::new();
        let (i, j) = (i % (1 << n), j % (1 << n));
        let a = sim.run_basis(&c, i);
        let b = sim.run_basis(&c, j);
        let expect = if i == j { 1.0 } else { 0.0 };
        prop_assert!((a.inner_product(&b).abs() - expect).abs() < 1e-9);
    }

    /// The probe used by the flow is symmetric up to conjugation.
    #[test]
    fn probe_conjugate_symmetry((n, m, seed) in circuit_params(), basis_sel in any::<u64>()) {
        let g = generators::random_clifford_t(n, m, seed);
        let g_prime = generators::random_clifford_t(n, m, seed.wrapping_add(9));
        let basis = basis_sel % (1 << n);
        let sim = Simulator::new();
        let ab = sim.probe_basis(&g, &g_prime, basis);
        let ba = sim.probe_basis(&g_prime, &g, basis);
        prop_assert!(ab.approx_eq(ba.conj()));
    }

    /// A qubit's outcome probability is a probability: it lies in [0, 1].
    #[test]
    fn marginals_are_probabilities((n, m, seed) in circuit_params(), q_sel in any::<usize>()) {
        let c = generators::random_clifford_t(n, m, seed);
        let out = Simulator::new().run_basis(&c, 0);
        let q = q_sel % n;
        let p1 = qsim::measure::probability_of_one(&out, q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p1));
    }
}

//! Property-based tests of the decision-diagram algebra.

use proptest::prelude::*;
use qcirc::{generators, Circuit};
use qdd::{Budget, MEdge, Package};

fn build(p: &mut Package, c: &Circuit) -> MEdge {
    p.circuit_medge(c, &Budget::new(None)).unwrap()
}

/// A seeded random circuit: proptest shrinks over (qubits, gates, seed).
fn circuit_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..5, 5usize..60, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DD circuit matrices agree with the dense reference.
    #[test]
    fn circuit_dd_matches_dense((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let u = build(&mut p, &c);
        prop_assert!(p.to_matrix(u).approx_eq(&qcirc::dense::unitary(&c)));
    }

    /// Canonicity: the same circuit built twice gives the identical edge.
    #[test]
    fn construction_is_canonical((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let u1 = build(&mut p, &c);
        let u2 = build(&mut p, &c);
        prop_assert_eq!(u1, u2);
    }

    /// U† · U = 𝕀 in DD form.
    #[test]
    fn adjoint_is_inverse((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let u = build(&mut p, &c);
        let udag = p.adjoint(u).unwrap();
        let prod = p.mul_mm(udag, u).unwrap();
        prop_assert!(p.is_identity(prod));
    }

    /// Adjoint is an involution.
    #[test]
    fn adjoint_involution((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let u = build(&mut p, &c);
        let back = {
            let ud = p.adjoint(u).unwrap();
            p.adjoint(ud).unwrap()
        };
        prop_assert_eq!(back, u);
    }

    /// Matrix addition commutes and multiplication distributes over it
    /// (up to interning tolerance, checked densely).
    #[test]
    fn algebra_laws((n, m, seed) in (2usize..4, 5usize..25, any::<u64>())) {
        let a_circ = generators::random_clifford_t(n, m, seed);
        let b_circ = generators::random_clifford_t(n, m, seed.wrapping_add(1));
        let c_circ = generators::random_clifford_t(n, m, seed.wrapping_add(2));
        let mut p = Package::new(n);
        let a = build(&mut p, &a_circ);
        let b = build(&mut p, &b_circ);
        let c = build(&mut p, &c_circ);
        // a + b = b + a (canonical edges must be equal).
        let ab = p.add(a, b).unwrap();
        let ba = p.add(b, a).unwrap();
        prop_assert_eq!(ab, ba);
        // a·(b + c) ≈ a·b + a·c (densely, within tolerance).
        let bc = p.add(b, c).unwrap();
        let lhs = p.mul_mm(a, bc).unwrap();
        let rhs = {
            let ab2 = p.mul_mm(a, b).unwrap();
            let ac = p.mul_mm(a, c).unwrap();
            p.add(ab2, ac).unwrap()
        };
        prop_assert!(p.to_matrix(lhs).approx_eq(&p.to_matrix(rhs)));
    }

    /// Simulation in DD form preserves normalization.
    #[test]
    fn dd_states_stay_normalized((n, m, seed) in circuit_params(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let basis = basis_sel % (1 << n);
        let v = p.apply_to_basis(&c, basis).unwrap();
        let norm = p.inner_product(v, v);
        prop_assert!((norm.re - 1.0).abs() < 1e-9 && norm.im.abs() < 1e-12);
    }

    /// GC compaction preserves matrix semantics and canonicity.
    #[test]
    fn compaction_is_transparent((n, m, seed) in circuit_params()) {
        let c = generators::random_clifford_t(n, m, seed);
        let mut p = Package::new(n);
        let u = build(&mut p, &c);
        let dense = p.to_matrix(u);
        let (roots, _) = p.compact(&[u], &[]);
        prop_assert!(p.to_matrix(roots[0]).approx_eq(&dense));
        let rebuilt = build(&mut p, &c);
        prop_assert_eq!(rebuilt, roots[0]);
    }

    /// Matrix-vector product agrees with matrix application column-wise.
    #[test]
    fn mv_matches_matrix_column((n, m, seed) in circuit_params(), basis_sel in any::<u64>()) {
        let c = generators::random_clifford_t(n, m, seed);
        let basis = basis_sel % (1 << n);
        let mut p = Package::new(n);
        let u = build(&mut p, &c);
        let b = p.basis_vedge(basis).unwrap();
        let v = p.mul_mv(u, b).unwrap();
        let direct = p.apply_to_basis(&c, basis).unwrap();
        // Gate-by-gate simulation and one-shot M·v agree (same canonical edge).
        prop_assert_eq!(v, direct);
    }
}

//! The improved alternating equivalence check (`G → 𝕀 ← G'`, \[22\]).
//!
//! Instead of building both complete system matrices, maintain a single DD
//! `E` that converges to `U'† · U`: gates of `G` are multiplied onto the
//! right (in reverse order), inverted gates of `G'` onto the left (also in
//! reverse order). When the circuits are equivalent and structurally
//! similar — the common case for design-flow outputs — `E` stays close to
//! the identity, keeping the DD exponentially smaller than either full
//! matrix. The two sides are paced by their gate counts
//! ([`next_from_g`]), the rule `qmpo`'s MPO check follows too.

use qcirc::Circuit;

use crate::check::{compare_roots, Budget, DdCheckAbort, DdEquivalence};
use crate::package::Package;

/// Whether the alternating check takes its next gate from `G` (a right
/// multiplication) rather than from `G′†` (a left one), after applying `i`
/// of `G`'s `m` gates and `j` of `G′`'s `m_prime`: always once `G′` is used
/// up, otherwise while `G` is proportionally no further along,
/// `i/m ≤ j/m′` ⇔ `i·m′ ≤ j·m` — the `|G| : |G′|` ratio, ties to `G`.
///
/// # Examples
///
/// ```
/// use qdd::next_from_g;
///
/// // |G| = 2 against |G′| = 4: one gate of G, then two of G′, twice.
/// let (m, m_prime) = (2, 4);
/// assert!(next_from_g(0, 0, m, m_prime));
/// assert!(!next_from_g(1, 0, m, m_prime) && !next_from_g(1, 1, m, m_prime));
/// assert!(next_from_g(1, 2, m, m_prime));
/// assert!(!next_from_g(2, 2, m, m_prime) && !next_from_g(2, 3, m, m_prime));
/// ```
#[must_use]
pub fn next_from_g(i: usize, j: usize, m: usize, m_prime: usize) -> bool {
    j >= m_prime || (i < m && i * m_prime <= j * m)
}

/// Checks equivalence with the alternating scheme (`G → 𝕀 ← G′`, \[22\]):
/// one DD `E` converges to `U′† · U` as [`next_from_g`] interleaves the
/// gates of `G` (right multiplications) with the inverted gates of `G′`
/// (left multiplications), and the pair is equivalent iff `E` ends at the
/// identity, up to a global phase. The budget is polled between gate
/// applications.
///
/// # Errors
///
/// Returns [`DdCheckAbort`] on timeout or node-limit exhaustion.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ from the package's.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qdd::DdCheckAbort> {
/// use qdd::{check_equivalence_alternating, Budget, Package};
///
/// let g = qcirc::generators::qft(4, true);
/// let opt = qcirc::optimize::optimize(&g);
/// let mut p = Package::new(4);
/// let verdict = check_equivalence_alternating(&mut p, &g, &opt, &Budget::new(None))?;
/// assert!(verdict.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence_alternating(
    package: &mut Package,
    g: &Circuit,
    g_prime: &Circuit,
    budget: &Budget,
) -> Result<DdEquivalence, DdCheckAbort> {
    assert_eq!(
        g.n_qubits(),
        g_prime.n_qubits(),
        "circuits must have equal qubit counts"
    );
    let mut e = package.identity_medge();

    // Consume both circuits back-to-front:
    //   from G:  E ← E · U_i      (right multiplication, i = m−1 … 0)
    //   from G': E ← U'†_j · E    (left multiplication, j = m'−1 … 0)
    // yielding E = U'†_0 ⋯ U'†_{m'−1} · U_{m−1} ⋯ U_0 = U'† · U.
    let g_gates = g.gates();
    let gp_gates = g_prime.gates();
    let (m, mp) = (g_gates.len(), gp_gates.len());
    let (mut i, mut j) = (0usize, 0usize); // consumed counts

    while i < m || j < mp {
        budget.check()?;
        if next_from_g(i, j, m, mp) {
            let gate = &g_gates[m - 1 - i];
            let gd = package.gate_medge(gate)?;
            e = package.mul_mm(e, gd)?;
            i += 1;
        } else {
            let gate = gp_gates[mp - 1 - j].inverse();
            let gd = package.gate_medge(&gate)?;
            e = package.mul_mm(gd, e)?;
            j += 1;
        }
        if package.wants_gc() {
            let (roots, _) = package.compact(&[e], &[]);
            e = roots[0];
        }
    }

    let identity = package.identity_medge();
    Ok(compare_roots(package, e, identity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;
    use qcirc::mapping::{route, CouplingMap, RouterOptions};

    /// The unbounded alternating check.
    fn check(p: &mut Package, a: &Circuit, b: &Circuit) -> DdEquivalence {
        check_equivalence_alternating(p, a, b, &Budget::new(None)).unwrap()
    }

    #[test]
    fn identical_circuits_stay_at_identity() {
        let g = generators::qft(5, true);
        let mut p = Package::new(5);
        let v = check(&mut p, &g, &g);
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    /// The dense unitaries are the reference: an optimized copy is
    /// equivalent and a copy with an extra T gate is not.
    #[test]
    fn agrees_with_the_dense_unitary_on_random_pairs() {
        for seed in 0..4u64 {
            let g = generators::random_clifford_t(4, 60, seed);
            let optimized = qcirc::optimize::optimize(&g);
            let mut buggy = g.clone();
            buggy.t((seed % 4) as usize);
            let u = qcirc::dense::unitary(&g);
            for (label, other) in [("optimized", &optimized), ("buggy", &buggy)] {
                let dense = u.approx_eq_up_to_phase(&qcirc::dense::unitary(other));
                let mut p = Package::new(4);
                let v = check(&mut p, &g, other);
                assert_eq!(v.is_equivalent(), dense, "seed {seed}, {label}");
            }
        }
    }

    #[test]
    fn detects_single_gate_errors() {
        // One rotation offset by 0.2: `cp(π/2) q[1], q[2]` becomes
        // `cp(π/2 + 0.2)`.
        let g = generators::qft(4, true);
        let old = &g.gates()[5];
        let qcirc::GateKind::Phase(lambda) = *old.kind() else {
            panic!("qft(4)'s gate 5 is a controlled phase, got {old}");
        };
        let mut buggy = g.clone();
        buggy.replace(
            5,
            qcirc::Gate::controlled(
                qcirc::GateKind::Phase(lambda + 0.2),
                old.controls().to_vec(),
                old.target(),
            ),
        );
        let mut p = Package::new(4);
        let v = check(&mut p, &g, &buggy);
        assert_eq!(v, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn mapped_circuits_keep_small_intermediate_dds() {
        let g = generators::qft(6, true);
        let routed = route(&g, &CouplingMap::linear(6), RouterOptions::default()).unwrap();
        let mut p = Package::new(6);
        let v = check(&mut p, &g, &routed.circuit);
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    #[test]
    fn empty_against_empty() {
        let a = qcirc::Circuit::new(3);
        let b = qcirc::Circuit::new(3);
        let mut p = Package::new(3);
        let v = check(&mut p, &a, &b);
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    #[test]
    fn unbalanced_gate_counts_are_handled() {
        // G vs its decomposition: very different lengths.
        let mut g = qcirc::Circuit::new(3);
        g.ccx(0, 1, 2).swap(0, 2);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
        assert!(lowered.len() > g.len() * 3);
        let mut p = Package::new(3);
        let v = check(&mut p, &g, &lowered);
        assert!(v.is_equivalent());
        // An empty side: every gate comes from the other one.
        let empty = qcirc::Circuit::new(2);
        let mut id = qcirc::Circuit::new(2);
        id.x(0).x(0);
        for (a, b) in [(&empty, &id), (&id, &empty)] {
            let mut p = Package::new(2);
            assert!(check(&mut p, a, b).is_equivalent());
        }
    }
}

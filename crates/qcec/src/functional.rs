//! The complete (functional) check stage — one body over both complete
//! checkers: the alternating DD check of `qdd` and, under
//! [`BackendKind::Mps`], the alternating MPO check of `qmpo`, which shares
//! `qdd`'s budget, verdict and abort vocabulary.
//!
//! Before either checker runs, each side's wire permutations are elided
//! (see [`run_functional_check`]): a routed circuit's SWAP chains would
//! otherwise be multiplied into the check's intermediate matrix, which
//! stays small only while it stays near the identity.

use std::borrow::Cow;

use qcirc::{Circuit, Gate, GateKind};
use qdd::{Budget, DdCheckAbort, DdEquivalence, Package};

use crate::config::{BackendKind, Config, Criterion, Fallback};
use crate::outcome::AbortReason;

/// Result of the functional stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FunctionalVerdict {
    /// Matrices identical.
    Equivalent,
    /// Matrices identical up to one global phase.
    EquivalentUpToGlobalPhase {
        /// The phase `φ`.
        phase: f64,
    },
    /// Matrices differ.
    NotEquivalent,
    /// The check could not finish.
    Aborted(AbortReason),
}

/// Runs the alternating complete check — on the MPO under
/// [`BackendKind::Mps`], on the DD otherwise — within `config.deadline`.
///
/// Both sides are checked without the wire permutations on which they
/// differ: uncontrolled SWAPs and three-CX SWAPs (`cx a,b; cx b,a; cx a,b`
/// as consecutive gates) are elided by relabelling the gates after them,
/// and when the two sides' net permutations differ, the relative
/// permutation is appended to `g_prime` as at most `n − 1` SWAPs. The
/// SWAPs that both sides share at their start and at their end, wire for
/// wire, stay in place, so sides that exchange the same wires in the same
/// order are checked as given, not copied. The rewrite is an exact unitary
/// identity, so verdicts and phases are those of the circuits as given.
///
/// With [`Criterion::Strict`], matrices that agree only up to a global
/// phase are classified as [`FunctionalVerdict::NotEquivalent`]; with the
/// default physical criterion they are reported as the phase variant.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
#[must_use]
pub fn run_functional_check(g: &Circuit, g_prime: &Circuit, config: &Config) -> FunctionalVerdict {
    if config.fallback == Fallback::None {
        return FunctionalVerdict::Aborted(AbortReason::FallbackDisabled);
    }
    assert_eq!(
        g.n_qubits(),
        g_prime.n_qubits(),
        "circuits must have equal qubit counts"
    );
    // SWAPs that both sides share at their start and end stay in place:
    // the check cancels them pairwise, and relabelling would only move
    // gates apart that the MPO then has to route back together.
    let (exchanges, exchanges_prime) = (find_exchanges(g), find_exchanges(g_prime));
    let (elided, elided_prime) = diverging(&exchanges, &exchanges_prime);
    let (g, wire) = elide_exchanges(g, elided);
    let (mut g_prime, wire_prime) = elide_exchanges(g_prime, elided_prime);
    for (a, b) in relative_swaps(&wire, &wire_prime) {
        g_prime.to_mut().push(Gate::swap(a, b));
    }
    let (g, g_prime) = (g.as_ref(), g_prime.as_ref());
    let budget = Budget::new(config.deadline);
    let result = if config.backend == BackendKind::Mps {
        match qmpo::check_equivalence_alternating(g, g_prime, config.chi_max, &budget) {
            // A truncated run can still disprove equivalence — the engine's
            // decision window already absorbs the accumulated error — but
            // its "no difference found" is evidence, not proof.
            Ok(v) if v.is_equivalent() && !v.is_exact() => {
                let error = v.truncation_error;
                return FunctionalVerdict::Aborted(AbortReason::Truncation { error });
            }
            run => run.map(|v| v.equivalence),
        }
    } else {
        let mut package = Package::with_node_limit(g.n_qubits(), config.dd_node_limit);
        qdd::check_equivalence_alternating(&mut package, g, g_prime, &budget)
    };
    match result {
        Ok(DdEquivalence::Equivalent) => FunctionalVerdict::Equivalent,
        // Under the strict notion a global phase is a difference.
        Ok(DdEquivalence::EquivalentUpToGlobalPhase { .. })
            if config.criterion == Criterion::Strict =>
        {
            FunctionalVerdict::NotEquivalent
        }
        Ok(DdEquivalence::EquivalentUpToGlobalPhase { phase }) => {
            FunctionalVerdict::EquivalentUpToGlobalPhase { phase }
        }
        Ok(DdEquivalence::NotEquivalent) => FunctionalVerdict::NotEquivalent,
        Err(DdCheckAbort::Timeout { .. }) => FunctionalVerdict::Aborted(AbortReason::Timeout),
        Err(DdCheckAbort::NodeLimit(_)) => FunctionalVerdict::Aborted(AbortReason::NodeLimit),
    }
}

/// One SWAP found in a circuit: at gate `at`, exchanging wires `a` and
/// `b`, spelled as `len` gates (1 for a SWAP gate, 3 for a three-CX SWAP).
#[derive(Clone, Copy)]
struct Exchange {
    at: usize,
    a: usize,
    b: usize,
    len: usize,
}

impl Exchange {
    fn wires(&self) -> (usize, usize) {
        (self.a.min(self.b), self.a.max(self.b))
    }
}

/// The SWAPs of `c` in order, matched left to right: every uncontrolled
/// SWAP gate and every three-CX SWAP (`cx a,b; cx b,a; cx a,b` as
/// consecutive gates).
fn find_exchanges(c: &Circuit) -> Vec<Exchange> {
    let gates = c.gates();
    let cx = |at: usize| {
        let gate = gates.get(at)?;
        (*gate.kind() == GateKind::X && gate.controls().len() == 1)
            .then(|| (gate.controls()[0], gate.target()))
    };
    let mut found = Vec::new();
    let mut at = 0;
    while at < gates.len() {
        let gate = &gates[at];
        let exchange = if *gate.kind() == GateKind::Swap && gate.controls().is_empty() {
            Some((gate.targets()[0], gate.targets()[1], 1))
        } else {
            cx(at)
                .filter(|&(a, b)| cx(at + 1) == Some((b, a)) && cx(at + 2) == Some((a, b)))
                .map(|(a, b)| (a, b, 3))
        };
        match exchange {
            Some((a, b, len)) => {
                found.push(Exchange { at, a, b, len });
                at += len;
            }
            None => at += 1,
        }
    }
    found
}

/// The exchanges of `xs` and `ys` left once the longest run the two share
/// at the start, and then at the end, is cut off (compared by wires).
fn diverging<'x>(xs: &'x [Exchange], ys: &'x [Exchange]) -> (&'x [Exchange], &'x [Exchange]) {
    let same = |(x, y): &(&Exchange, &Exchange)| x.wires() == y.wires();
    let prefix = xs.iter().zip(ys).take_while(same).count();
    let (xs, ys) = (&xs[prefix..], &ys[prefix..]);
    let suffix = xs
        .iter()
        .rev()
        .zip(ys.iter().rev())
        .take_while(same)
        .count();
    (&xs[..xs.len() - suffix], &ys[..ys.len() - suffix])
}

/// `c` with `exchanges` dropped and every other gate relabelled through
/// the running permutation, with the final one: `c`'s wire `q` ends on the
/// rewritten circuit's wire `wire[q]`, so `c` equals the rewritten circuit
/// followed by moving each `wire[q]` to `q`. With no exchanges, `c` comes
/// back borrowed.
fn elide_exchanges<'c>(c: &'c Circuit, exchanges: &[Exchange]) -> (Cow<'c, Circuit>, Vec<usize>) {
    let mut wire: Vec<usize> = (0..c.n_qubits()).collect();
    if exchanges.is_empty() {
        return (Cow::Borrowed(c), wire);
    }
    let gates = c.gates();
    let mut out = Circuit::with_name(c.n_qubits(), c.name());
    let mut next = 0;
    for x in exchanges {
        for gate in &gates[next..x.at] {
            out.push(gate.remap(|q| wire[q]));
        }
        wire.swap(x.a, x.b);
        next = x.at + x.len;
    }
    for gate in &gates[next..] {
        out.push(gate.remap(|q| wire[q]));
    }
    (Cow::Owned(out), wire)
}

/// The SWAPs to append to the rewritten `G′` so that it ends on the
/// rewritten `G`'s permutation: for every `q`, the content of wire
/// `wire_prime[q]` moves to wire `wire[q]`. Each SWAP places one wire for
/// good, so there are at most `n − 1`, and none when the permutations
/// agree.
fn relative_swaps(wire: &[usize], wire_prime: &[usize]) -> Vec<(usize, usize)> {
    // `held[w]` is the wire whose content `w` now holds; `pos` inverts it.
    let mut held: Vec<usize> = (0..wire.len()).collect();
    let mut pos = held.clone();
    let mut swaps = Vec::new();
    for (&to, &from) in wire.iter().zip(wire_prime) {
        let w = pos[from];
        if w != to {
            swaps.push((w, to));
            held.swap(w, to);
            pos[held[w]] = w;
            pos[held[to]] = to;
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qcirc::generators;
    use qcirc::mapping::{route, CouplingMap, RouterOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    #[test]
    fn equivalent_mapped_circuit() {
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let v = run_functional_check(&g, &routed.circuit, &Config::default());
        assert_eq!(v, FunctionalVerdict::Equivalent);
    }

    #[test]
    fn strict_criterion_rejects_global_phase() {
        let mut a = qcirc::Circuit::new(2);
        a.h(0);
        let mut b = a.clone();
        b.rz(2.0 * std::f64::consts::PI, 0);
        for backend in [BackendKind::Statevector, BackendKind::Mps] {
            let relaxed = Config::default().with_backend(backend);
            let strict = relaxed.clone().with_criterion(Criterion::Strict);
            assert_eq!(
                run_functional_check(&a, &b, &strict),
                FunctionalVerdict::NotEquivalent,
                "{backend:?}"
            );
            assert!(
                matches!(
                    run_functional_check(&a, &b, &relaxed),
                    FunctionalVerdict::EquivalentUpToGlobalPhase { .. }
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn disabled_fallback_aborts() {
        let g = generators::ghz(2);
        let config = Config::default().with_fallback(Fallback::None);
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::FallbackDisabled)
        );
    }

    #[test]
    fn timeout_aborts() {
        let g = generators::supremacy_2d(3, 3, 12, 2);
        let config = Config::default().with_deadline(Some(Duration::ZERO));
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::Timeout)
        );
    }

    #[test]
    fn node_limit_aborts() {
        // Against the empty circuit the check's matrix becomes `g`'s whole
        // system matrix, which passes 100 nodes.
        let g = generators::supremacy_2d(3, 4, 10, 3);
        let empty = Circuit::new(g.n_qubits());
        let config = Config::default().with_dd_node_limit(100);
        assert_eq!(
            run_functional_check(&g, &empty, &config),
            FunctionalVerdict::Aborted(AbortReason::NodeLimit)
        );
    }

    /// Both complete checkers, the DD's and the MPO's, convict a T fault.
    #[test]
    fn both_fallbacks_detect_errors() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        for backend in [BackendKind::DecisionDiagram, BackendKind::Mps] {
            let config = Config::default().with_backend(backend);
            assert_eq!(
                run_functional_check(&g, &buggy, &config),
                FunctionalVerdict::NotEquivalent,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn mps_backend_proves_and_refutes_exactly() {
        // n = 4 caps the MPO bond dimension at 4² = 16 < chi_max, so the
        // run is exact and the verdict keeps its class.
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let mut buggy = g.clone();
        buggy.t(2);
        let config = Config::default().with_backend(BackendKind::Mps);
        assert_eq!(
            run_functional_check(&g, &routed.circuit, &config),
            FunctionalVerdict::Equivalent
        );
        assert_eq!(
            run_functional_check(&g, &buggy, &config),
            FunctionalVerdict::NotEquivalent
        );
    }

    #[test]
    fn mps_truncated_runs_never_claim_equivalence() {
        let g = generators::qft(4, true);
        let routed = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(4));
        let config = Config::default()
            .with_backend(BackendKind::Mps)
            .with_chi_max(1);
        let v = run_functional_check(&g, &routed.circuit, &config);
        assert!(
            matches!(
                v,
                FunctionalVerdict::NotEquivalent
                    | FunctionalVerdict::Aborted(AbortReason::Truncation { .. })
            ),
            "χ = 1 forces truncation, so the verdict must not be a proof: {v:?}"
        );
    }

    #[test]
    fn mps_timeout_aborts() {
        let g = generators::supremacy_2d(3, 3, 12, 2);
        let config = Config::default()
            .with_backend(BackendKind::Mps)
            .with_deadline(Some(Duration::ZERO));
        assert_eq!(
            run_functional_check(&g, &g, &config),
            FunctionalVerdict::Aborted(AbortReason::Timeout)
        );
    }

    #[test]
    fn routed_ghz48_is_proven_within_a_small_node_budget() {
        // The wide_auto benchmark's mapped GHZ-48: multiplying its SWAP
        // chains into the check's matrix overflows this budget.
        let g = generators::ghz(48);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
        let routed = route(&lowered, &CouplingMap::grid(6, 8), RouterOptions::default()).unwrap();
        let config = Config::default().with_dd_node_limit(5_000);
        assert_eq!(
            run_functional_check(&g, &routed.circuit, &config),
            FunctionalVerdict::Equivalent
        );
    }

    #[test]
    fn only_uncontrolled_and_consecutive_swaps_are_rewritten() {
        let mut plain = Circuit::new(3);
        plain.h(0).cswap(0, 1, 2).cx(0, 1).cx(1, 0).x(2).cx(0, 1);
        assert!(find_exchanges(&plain).is_empty());
        let (rewritten, wire) = elide_exchanges(&plain, &[]);
        assert!(matches!(rewritten, Cow::Borrowed(_)));
        assert_eq!(wire, [0, 1, 2]);

        let mut routed = plain.clone();
        routed.swap(0, 2).cx(1, 2).cx(2, 1).cx(1, 2).h(0);
        let (elided, wire) = elide_exchanges(&routed, &find_exchanges(&routed));
        assert_eq!(elided.len(), plain.len() + 1);
        assert_eq!(elided.gates()[plain.len()], Gate::single(GateKind::H, 2));
        assert_eq!(wire, [2, 0, 1]);
    }

    #[test]
    fn only_the_swaps_where_the_sides_diverge_are_elided() {
        let qft = generators::qft(6, true);
        let routed = qcirc::mapping::route_or_panic(
            &qcirc::decompose::decompose_to_cx_and_single_qubit(&qft),
            &CouplingMap::linear(6),
        )
        .circuit;
        let exchanges = find_exchanges(&routed);
        assert!(exchanges.len() > 2);

        // Lowering every SWAP gate to three CXs keeps the exchanges: both
        // sides are checked as given.
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&routed);
        let exchanges_lowered = find_exchanges(&lowered);
        let (x, y) = diverging(&exchanges, &exchanges_lowered);
        assert!(x.is_empty() && y.is_empty());

        // A cancelling SWAP·SWAP in the middle is all that is elided, and
        // eliding it gives back the circuit without it.
        let at = exchanges[exchanges.len() / 2].at;
        let mut padded = routed.clone();
        padded.insert(at, Gate::swap(1, 4));
        padded.insert(at, Gate::swap(1, 4));
        let exchanges_padded = find_exchanges(&padded);
        let (x, y) = diverging(&exchanges, &exchanges_padded);
        assert!(x.is_empty());
        assert_eq!(y.len(), 2);
        let (elided, wire) = elide_exchanges(&padded, y);
        assert_eq!(*elided, routed);
        assert_eq!(wire, [0, 1, 2, 3, 4, 5]);
    }

    /// Appends an exchange of wires `a` and `b` in one of four forms: a
    /// SWAP gate or a three-CX SWAP in either orientation (all elided), or
    /// a three-CX SWAP split by an identity gate (kept, so the rewrite does
    /// not see the permutation it applies).
    fn push_exchange(c: &mut Circuit, a: usize, b: usize, form: u32) {
        match form {
            0 => {
                c.swap(a, b);
            }
            1 => {
                c.cx(a, b).cx(b, a).cx(a, b);
            }
            2 => {
                c.cx(b, a).cx(a, b).cx(b, a);
            }
            _ => {
                c.cx(a, b).cx(b, a).id(a).cx(a, b);
            }
        }
    }

    /// `c` as a router leaves it: exchanges of random wires inserted before
    /// random gates, later gates relabelled through them, and the layout
    /// restored at the end, minus its last exchange if `drop_last`.
    fn routed_copy(c: &Circuit, rng: &mut StdRng, drop_last: bool) -> Circuit {
        let n = c.n_qubits();
        let mut out = Circuit::new(n);
        // `at[q]` is the wire that carries `c`'s wire `q`.
        let mut at: Vec<usize> = (0..n).collect();
        for gate in c.gates() {
            if rng.gen_bool(0.3) {
                let q = rng.gen_range(0..n);
                let r = (q + rng.gen_range(1..n)) % n;
                push_exchange(&mut out, at[q], at[r], rng.gen_range(0..4));
                at.swap(q, r);
            }
            out.push(gate.remap(|q| at[q]));
        }
        let mut restore = Vec::new();
        for wire in 0..n {
            let q = at.iter().position(|&w| w == wire).unwrap();
            if q != wire {
                restore.push((at[wire], wire));
                at.swap(q, wire);
            }
        }
        if drop_last {
            restore.pop();
        }
        for (a, b) in restore {
            push_exchange(&mut out, a, b, rng.gen_range(0..4));
        }
        out
    }

    /// The dense oracle's verdict on `U′ = e^{iφ}·U` under `criterion`.
    fn dense_verdict(g: &Circuit, g_prime: &Circuit, criterion: Criterion) -> FunctionalVerdict {
        let (u, u_prime) = (qcirc::dense::unitary(g), qcirc::dense::unitary(g_prime));
        if u.approx_eq(&u_prime) {
            return FunctionalVerdict::Equivalent;
        }
        if !u.approx_eq_up_to_phase(&u_prime) || criterion == Criterion::Strict {
            return FunctionalVerdict::NotEquivalent;
        }
        let k = (0..u.dim())
            .find(|&k| !u.entry(k, 0).approx_zero())
            .unwrap();
        let phase = (u_prime.entry(k, 0) / u.entry(k, 0)).arg();
        FunctionalVerdict::EquivalentUpToGlobalPhase { phase }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Rewriting permutations never changes a verdict or its phase: on
        /// DD and MPO under both criteria, the complete check agrees with
        /// the dense unitaries for pairs with elided and kept SWAPs, controlled
        /// SWAPs, a dropped SWAP, an unmatched 3-cycle, a global phase,
        /// aligned exchanges and exchanges shared around a divergence.
        #[test]
        fn eliding_permutations_keeps_the_dense_verdict(
            n in 2usize..6,
            seed in any::<u64>(),
            kind in 0u32..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = generators::random_clifford_t(n, 10, seed);
            let mut c_prime = c.clone();
            if n >= 3 {
                // A Fredkin gate in `G`, spelled CX · Toffoli · CX in `G′`.
                let (at, q) = (rng.gen_range(0..=c.len()), rng.gen_range(0..n));
                let (a, b) = ((q + 1) % n, (q + 2) % n);
                c.insert(at, Gate::controlled_swap(vec![q], a, b));
                c_prime.insert(at, Gate::controlled(GateKind::X, vec![b], a));
                c_prime.insert(at + 1, Gate::controlled(GateKind::X, vec![q, a], b));
                c_prime.insert(at + 2, Gate::controlled(GateKind::X, vec![b], a));
            }
            let mut g = routed_copy(&c, &mut rng, false);
            let mut g_prime = routed_copy(&c_prime, &mut rng, kind == 1);
            match kind {
                // A 3-cycle that the rewrite sees on `G` only: `G′` spells
                // the same cycle (kind 2) or its inverse (kind 3) in the
                // kept form.
                2 | 3 if n >= 3 => {
                    let mut cycle = [(0, 1), (1, n - 1)];
                    push_exchange(&mut g, 0, 1, 0);
                    push_exchange(&mut g, 1, n - 1, 1);
                    if kind == 3 {
                        cycle.reverse();
                    }
                    for (a, b) in cycle {
                        push_exchange(&mut g_prime, a, b, 3);
                    }
                }
                // Rz(1)·P(−1) is the global phase e^{−i/2}.
                4 => {
                    g_prime.rz(1.0, n - 1).p(-1.0, n - 1);
                }
                // The same exchanges, every SWAP gate spelled as three CXs.
                5 => {
                    g_prime = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
                }
                // `G` with a cancelling SWAP·SWAP inserted (an unoptimized
                // copy), or with one of its exchanges dropped (a mutant):
                // the sides share the exchanges before and after.
                6 => {
                    let (at, a) = (rng.gen_range(0..=g.len()), rng.gen_range(0..n));
                    g_prime = g.clone();
                    for _ in 0..2 {
                        g_prime.insert(at, Gate::swap(a, (a + 1) % n));
                    }
                }
                7 => {
                    let exchanges = find_exchanges(&g);
                    if let Some(x) = exchanges.get(exchanges.len() / 2) {
                        g_prime = Circuit::new(n);
                        for (i, gate) in g.gates().iter().enumerate() {
                            if !(x.at..x.at + x.len).contains(&i) {
                                g_prime.push(gate.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
            for backend in [BackendKind::DecisionDiagram, BackendKind::Mps] {
                for criterion in [Criterion::UpToGlobalPhase, Criterion::Strict] {
                    let config = Config::default()
                        .with_backend(backend)
                        .with_criterion(criterion);
                    let got = run_functional_check(&g, &g_prime, &config);
                    let want = dense_verdict(&g, &g_prime, criterion);
                    let agree = match (got, want) {
                        (
                            FunctionalVerdict::EquivalentUpToGlobalPhase { phase: p },
                            FunctionalVerdict::EquivalentUpToGlobalPhase { phase: q },
                        ) => qnum::angle::approx_zero_mod_2pi(p - q),
                        _ => got == want,
                    };
                    prop_assert!(agree, "{backend:?} {criterion:?}: {got:?}, dense {want:?}");
                }
            }
        }
    }
}

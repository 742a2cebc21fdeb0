//! The improved alternating equivalence check (`G → 𝕀 ← G'`, \[22\]).
//!
//! Instead of building both complete system matrices, maintain a single DD
//! `E` that converges to `U'† · U`: gates of `G` are multiplied onto the
//! right (in reverse order), inverted gates of `G'` onto the left (also in
//! reverse order). When the circuits are equivalent and structurally
//! similar — the common case for design-flow outputs — `E` stays close to
//! the identity, keeping the DD exponentially smaller than either full
//! matrix.
//!
//! *When* gates from each side are applied is a pluggable policy, the
//! [`ApplicationScheme`]: the verdict is scheme-independent (every
//! interleaving converges to the same `U'† · U`), but the size of the
//! intermediate DD — and hence the wall-clock — is not.

use qcirc::{Circuit, Gate};

use crate::check::{compare_roots, Budget, DdCheckAbort, DdEquivalence};
use crate::package::Package;

/// The gate-interleaving policy of the alternating check: which side —
/// `G` (right multiplications) or `G'†` (left multiplications) — advances
/// next. Every scheme consumes both circuits completely, so the verdict
/// is identical across schemes; only the intermediate DD sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ApplicationScheme {
    /// All of `G` first, then all of `G'†` — builds the full `U` before
    /// unwinding it, so the intermediate DD peaks at the size of `U`
    /// itself. The naive baseline the other schemes are measured against.
    Sequential,
    /// Strict alternation, one gate from each side per round. Good when
    /// the circuits are gate-for-gate similar (e.g. a mapped circuit with
    /// few inserted SWAPs), degenerate when their lengths diverge.
    OneToOne,
    /// Advance whichever side is proportionally behind in *gate count*
    /// (`i/m ≤ j/m'` ⇔ `i·m' ≤ j·m`) — the `|G| : |G'|` ratio strategy
    /// and the default.
    #[default]
    Proportional,
    /// Advance whichever side is proportionally behind in *decomposition
    /// cost*: each gate is weighted by the number of elementary gates
    /// [`qcirc::decompose::lower_gate_to_elementary`] emits for it, so a
    /// Toffoli on one side keeps pace with its 15-gate decomposition on
    /// the other. The lookahead ratio of the "Advanced Equivalence
    /// Checking" paper, derived from our own lowering costs.
    GateCost,
}

impl ApplicationScheme {
    /// Every scheme, in canonical (report) order.
    pub const ALL: [ApplicationScheme; 4] = [
        ApplicationScheme::Sequential,
        ApplicationScheme::OneToOne,
        ApplicationScheme::Proportional,
        ApplicationScheme::GateCost,
    ];

    /// Stable lowercase identifier used in CLI flags and JSON reports.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ApplicationScheme::Sequential => "sequential",
            ApplicationScheme::OneToOne => "onetoone",
            ApplicationScheme::Proportional => "proportional",
            ApplicationScheme::GateCost => "gatecost",
        }
    }

    /// Parses a slug (case-insensitive; `-`/`_` separators are ignored,
    /// so `gate-cost` and `one_to_one` work too).
    ///
    /// # Errors
    ///
    /// Returns a message listing the expected slugs.
    pub fn parse(s: &str) -> Result<Self, String> {
        let norm: String = s
            .trim()
            .to_ascii_lowercase()
            .chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .collect();
        match norm.as_str() {
            "sequential" | "seq" => Ok(ApplicationScheme::Sequential),
            "onetoone" | "1to1" => Ok(ApplicationScheme::OneToOne),
            "proportional" | "prop" => Ok(ApplicationScheme::Proportional),
            "gatecost" | "cost" => Ok(ApplicationScheme::GateCost),
            _ => Err(format!(
                "unknown application scheme {s:?}: expected sequential, onetoone, \
                 proportional or gatecost"
            )),
        }
    }
}

impl std::fmt::Display for ApplicationScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Prefix-sum decomposition-cost profiles for the gate-cost scheme, in
/// consumption (back-to-front) order: `consumed[i]` is the cost of the
/// first `i` gates a side has applied, `total` the whole circuit's cost.
#[derive(Debug)]
struct CostProfile {
    g_consumed: Vec<u64>,
    gp_consumed: Vec<u64>,
    g_total: u64,
    gp_total: u64,
}

impl CostProfile {
    fn new(g_gates: &[Gate], gp_gates: &[Gate]) -> Self {
        let mut buf = Vec::new();
        let mut profile = |gates: &[Gate]| {
            let mut consumed = Vec::with_capacity(gates.len() + 1);
            consumed.push(0u64);
            // Gates are consumed back-to-front.
            for gate in gates.iter().rev() {
                buf.clear();
                qcirc::decompose::lower_gate_to_elementary(gate, &mut buf);
                let cost = (buf.len() as u64).max(1);
                consumed.push(consumed.last().unwrap() + cost);
            }
            consumed
        };
        let g_consumed = profile(g_gates);
        let gp_consumed = profile(gp_gates);
        let (g_total, gp_total) = (*g_consumed.last().unwrap(), *gp_consumed.last().unwrap());
        CostProfile {
            g_consumed,
            gp_consumed,
            g_total,
            gp_total,
        }
    }

    /// `true` when G's consumed cost fraction is ≤ G'†'s:
    /// `c(i)/C ≤ c'(j)/C'` ⇔ `c(i)·C' ≤ c'(j)·C`.
    fn advance_g(&self, i: usize, j: usize) -> bool {
        u128::from(self.g_consumed[i]) * u128::from(self.gp_total)
            <= u128::from(self.gp_consumed[j]) * u128::from(self.g_total)
    }
}

/// The advance decision of one [`ApplicationScheme`] instantiated over a
/// concrete `(G, G′)` pair — which side's next gate to consume given how
/// many each side has consumed so far.
///
/// Extracted from the DD check's inner loop so other engines following the
/// same alternation (the MPO check in `qmpo`) share the *identical*
/// interleaving policies, gate-cost profiles included, instead of
/// re-deriving them.
#[derive(Debug)]
pub struct SchemeCursor {
    scheme: ApplicationScheme,
    m: usize,
    mp: usize,
    costs: Option<CostProfile>,
}

impl SchemeCursor {
    /// Builds the cursor for a scheme over the two gate lists (in circuit
    /// order; consumption is back-to-front). Gate-cost profiles are
    /// computed eagerly here, once.
    #[must_use]
    pub fn new(scheme: ApplicationScheme, g_gates: &[Gate], gp_gates: &[Gate]) -> Self {
        let costs = match scheme {
            ApplicationScheme::GateCost => Some(CostProfile::new(g_gates, gp_gates)),
            _ => None,
        };
        SchemeCursor {
            scheme,
            m: g_gates.len(),
            mp: gp_gates.len(),
            costs,
        }
    }

    /// `true` when both sides are fully consumed after `i` gates of `G`
    /// and `j` gates of `G′`.
    #[must_use]
    pub fn done(&self, i: usize, j: usize) -> bool {
        i >= self.m && j >= self.mp
    }

    /// Whether `G` (as opposed to `G′†`) supplies the next gate: forced
    /// once one circuit is exhausted, otherwise the scheme decides (ties
    /// go to `G`).
    #[must_use]
    pub fn advance_g(&self, i: usize, j: usize) -> bool {
        if j >= self.mp {
            true
        } else if i >= self.m {
            false
        } else {
            match self.scheme {
                ApplicationScheme::Sequential => true,
                ApplicationScheme::OneToOne => i <= j,
                // i/m <= j/m'  ⇔  i·m' <= j·m
                ApplicationScheme::Proportional => i * self.mp <= j * self.m,
                ApplicationScheme::GateCost => self.costs.as_ref().unwrap().advance_g(i, j),
            }
        }
    }
}

/// Checks equivalence with the alternating scheme (`G → 𝕀 ← G′`, \[22\]):
/// one DD `E` converges to `U′† · U` as `scheme` interleaves the gates of
/// `G` (right multiplications) with the inverted gates of `G′` (left
/// multiplications), and the pair is equivalent iff `E` ends at the
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
/// use qdd::{check_equivalence_alternating, ApplicationScheme, Budget, Package};
///
/// let g = qcirc::generators::qft(4, true);
/// let opt = qcirc::optimize::optimize(&g);
/// let mut p = Package::new(4);
/// let budget = Budget::new(None);
/// let verdict =
///     check_equivalence_alternating(&mut p, &g, &opt, &budget, ApplicationScheme::default())?;
/// assert!(verdict.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence_alternating(
    package: &mut Package,
    g: &Circuit,
    g_prime: &Circuit,
    budget: &Budget,
    scheme: ApplicationScheme,
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
    let cursor = SchemeCursor::new(scheme, g_gates, gp_gates);
    let (mut i, mut j) = (0usize, 0usize); // consumed counts

    while i < m || j < mp {
        budget.check()?;
        if cursor.advance_g(i, j) {
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

    /// The unbounded alternating check under `scheme`.
    fn check(
        p: &mut Package,
        a: &Circuit,
        b: &Circuit,
        scheme: ApplicationScheme,
    ) -> DdEquivalence {
        check_equivalence_alternating(p, a, b, &Budget::new(None), scheme).unwrap()
    }

    #[test]
    fn identical_circuits_stay_at_identity() {
        let g = generators::qft(5, true);
        let mut p = Package::new(5);
        let v = check(&mut p, &g, &g, ApplicationScheme::default());
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    #[test]
    fn agrees_with_construct_on_random_pairs() {
        for seed in 0..4 {
            let g = generators::random_clifford_t(4, 60, seed);
            let optimized = qcirc::optimize::optimize(&g);
            let mut p1 = Package::new(4);
            let budget = Budget::new(None);
            let a = crate::check_equivalence_construct(&mut p1, &g, &optimized, &budget).unwrap();
            let mut p2 = Package::new(4);
            let b = check(&mut p2, &g, &optimized, ApplicationScheme::default());
            assert_eq!(a.is_equivalent(), b.is_equivalent(), "seed {seed}");
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
        let v = check(&mut p, &g, &buggy, ApplicationScheme::default());
        assert_eq!(v, DdEquivalence::NotEquivalent);
    }

    #[test]
    fn mapped_circuits_keep_small_intermediate_dds() {
        let g = generators::qft(6, true);
        let routed = route(&g, &CouplingMap::linear(6), RouterOptions::default()).unwrap();
        let mut p = Package::new(6);
        let v = check(&mut p, &g, &routed.circuit, ApplicationScheme::default());
        assert_eq!(v, DdEquivalence::Equivalent);
    }

    #[test]
    fn empty_against_empty() {
        let a = qcirc::Circuit::new(3);
        let b = qcirc::Circuit::new(3);
        let mut p = Package::new(3);
        let v = check(&mut p, &a, &b, ApplicationScheme::default());
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
        let v = check(&mut p, &g, &lowered, ApplicationScheme::default());
        assert!(v.is_equivalent());
    }

    #[test]
    fn scheme_slugs_round_trip() {
        for scheme in ApplicationScheme::ALL {
            assert_eq!(ApplicationScheme::parse(scheme.slug()), Ok(scheme));
            assert_eq!(scheme.to_string(), scheme.slug());
        }
        assert_eq!(
            ApplicationScheme::parse("Gate-Cost"),
            Ok(ApplicationScheme::GateCost)
        );
        assert_eq!(
            ApplicationScheme::parse("one_to_one"),
            Ok(ApplicationScheme::OneToOne)
        );
        assert!(ApplicationScheme::parse("zigzag").is_err());
        assert_eq!(
            ApplicationScheme::default(),
            ApplicationScheme::Proportional
        );
    }

    /// The verdict must be scheme-independent: every interleaving
    /// converges to the same `U'† · U`.
    #[test]
    fn all_schemes_agree_on_random_pairs() {
        for seed in 0..4u64 {
            let g = generators::random_clifford_t(4, 60, seed);
            let optimized = qcirc::optimize::optimize(&g);
            let mut buggy = g.clone();
            buggy.t((seed % 4) as usize);
            for (label, a, b, want) in [
                ("optimized", &g, &optimized, true),
                ("buggy", &g, &buggy, false),
            ] {
                for scheme in ApplicationScheme::ALL {
                    let mut p = Package::new(4);
                    let v = check(&mut p, a, b, scheme);
                    assert_eq!(
                        v.is_equivalent(),
                        want,
                        "seed {seed}, {label}, scheme {scheme}"
                    );
                }
            }
        }
    }

    /// Proportional is the default scheme, bit for bit: callers passing
    /// `ApplicationScheme::default()` keep the historical interleaving,
    /// intermediate DD sizes included — byte-compat depends on it.
    #[test]
    fn proportional_scheme_matches_the_default_entry_point() {
        let g = generators::qft(5, true);
        let routed = route(&g, &CouplingMap::linear(5), RouterOptions::default()).unwrap();
        let mut p1 = Package::new(5);
        let a = check(&mut p1, &g, &routed.circuit, ApplicationScheme::default());
        let mut p2 = Package::new(5);
        let b = check(
            &mut p2,
            &g,
            &routed.circuit,
            ApplicationScheme::Proportional,
        );
        assert_eq!(a, b);
        assert_eq!(p1.stats().matrix_nodes, p2.stats().matrix_nodes);
    }

    /// On a circuit-vs-decomposition pair the gate-cost profile keeps the
    /// sides aligned where raw gate counts cannot: a Toffoli's cost
    /// matches its elementary expansion.
    #[test]
    fn gate_cost_handles_decomposed_pairs() {
        let adder = generators::cuccaro_adder(2);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&adder);
        let mut p = Package::new(adder.n_qubits());
        let v = check(&mut p, &adder, &lowered, ApplicationScheme::GateCost);
        assert!(v.is_equivalent());
    }

    #[test]
    fn sequential_and_onetoone_handle_empty_sides() {
        let empty = qcirc::Circuit::new(2);
        let mut id = qcirc::Circuit::new(2);
        id.x(0).x(0);
        for scheme in ApplicationScheme::ALL {
            let mut p = Package::new(2);
            let v = check(&mut p, &empty, &id, scheme);
            assert!(v.is_equivalent(), "scheme {scheme}");
        }
    }
}

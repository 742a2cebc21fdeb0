//! The equivalence guard: label mutations that happen to be benign.
//!
//! A syntactic mutation is not always a semantic fault — exchanging the
//! operands of a CZ, dropping a gate that was a no-op, or perturbing an
//! angle by a multiple of `2π` leaves the unitary unchanged. Campaigns
//! that count detection rates must not score such instances as "missed
//! errors", so small instances are re-checked with the complete
//! decision-diagram equivalence check (`qdd`) and labelled.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use qcirc::Circuit;
use qdd::{check_equivalence_alternating, ApplicationScheme, Budget, DdEquivalence, Package};

/// Budget for the guard's complete check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardOptions {
    /// Largest register the guard will check completely; bigger instances
    /// are [`GuardVerdict::Unchecked`]. The complete check is exponential
    /// in the worst case, so keep this small (default 14).
    pub max_qubits: usize,
    /// Wall-clock budget per check (default 5 s).
    pub deadline: Option<Duration>,
    /// Decision-diagram node budget per check.
    pub node_limit: usize,
}

impl Default for GuardOptions {
    fn default() -> Self {
        GuardOptions {
            max_qubits: 14,
            deadline: Some(Duration::from_secs(5)),
            node_limit: 1_000_000,
        }
    }
}

/// What the guard concluded about one mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardVerdict {
    /// The mutation genuinely changed the functionality — a real fault.
    Fault,
    /// The mutation left the unitary unchanged (up to global phase when
    /// `phase` is `Some`): the instance must not count against any
    /// checker's detection rate.
    Benign {
        /// `Some(φ)` when the circuits differ by exactly the global phase
        /// `e^{iφ}`, `None` when they are identical.
        phase: Option<f64>,
    },
    /// The guard did not reach a verdict (register too large, or the
    /// complete check exhausted its budget).
    Unchecked {
        /// Why the guard abstained.
        reason: String,
    },
}

impl GuardVerdict {
    /// Returns `true` when the mutation is proven benign.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        matches!(self, GuardVerdict::Benign { .. })
    }

    /// Returns `true` when the mutation is proven to be a real fault.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self, GuardVerdict::Fault)
    }
}

impl fmt::Display for GuardVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardVerdict::Fault => write!(f, "fault"),
            GuardVerdict::Benign { phase: None } => write!(f, "benign"),
            GuardVerdict::Benign { phase: Some(p) } => {
                write!(f, "benign (global phase {p:.4})")
            }
            GuardVerdict::Unchecked { reason } => write!(f, "unchecked ({reason})"),
        }
    }
}

/// Classifies a mutation by completely checking `mutated` against
/// `original` with the DD-based routine, within the [`GuardOptions`]
/// budget.
///
/// # Panics
///
/// Panics if the circuits act on different register sizes (mutators
/// always preserve the register).
#[must_use]
pub fn classify(original: &Circuit, mutated: &Circuit, opts: &GuardOptions) -> GuardVerdict {
    assert_eq!(
        original.n_qubits(),
        mutated.n_qubits(),
        "guard inputs must share a register"
    );
    let n = original.n_qubits();
    if n > opts.max_qubits {
        return GuardVerdict::Unchecked {
            reason: format!("{n} qubits exceed the guard limit of {}", opts.max_qubits),
        };
    }
    let mut package = Package::with_node_limit(n, opts.node_limit);
    verdict_from(check_equivalence_alternating(
        &mut package,
        original,
        mutated,
        &Budget::new(opts.deadline),
        ApplicationScheme::Proportional,
    ))
}

fn verdict_from(result: Result<DdEquivalence, qdd::DdCheckAbort>) -> GuardVerdict {
    match result {
        Ok(DdEquivalence::NotEquivalent) => GuardVerdict::Fault,
        Ok(DdEquivalence::Equivalent) => GuardVerdict::Benign { phase: None },
        Ok(DdEquivalence::EquivalentUpToGlobalPhase { phase }) => {
            GuardVerdict::Benign { phase: Some(phase) }
        }
        Err(abort) => GuardVerdict::Unchecked {
            reason: abort.to_string(),
        },
    }
}

/// A per-benchmark guard holding the golden circuit, so a campaign
/// labels each mutant by checking only where it differs from the golden
/// circuit.
///
/// Each [`GuardCache::classify`] call first *trims*: the gates a candidate
/// shares with the golden circuit (common prefix and suffix of the gate
/// lists) are stripped, and only the differing middles are checked with
/// the alternating scheme. This is exact, not a heuristic: with shared
/// prefix `P` and suffix `A` (as unitaries),
/// `U_candidate · U_golden† = A · (M_c · M_g†) · A†`, and conjugation by
/// a unitary preserves both the identity and its global phase — so the
/// middle pair has exactly the verdict of the full pair. A campaign mutant
/// differs from its golden circuit in a handful of gates, so the complete
/// check shrinks from the whole circuit to a few gates; a candidate that
/// shares no gate with the golden circuit is checked whole, exactly as the
/// stateless [`classify`] checks it.
///
/// # Examples
///
/// ```
/// use qfault::{guard::GuardCache, GuardOptions};
///
/// let golden = qcirc::generators::ghz(4);
/// let cache = GuardCache::new(&golden, &GuardOptions::default());
/// let mut buggy = golden.clone();
/// buggy.x(2);
/// assert!(cache.classify(&buggy).is_fault());
/// assert!(cache.classify(&golden.clone()).is_benign());
/// assert_eq!(cache.mutants_checked(), 2);
/// ```
#[derive(Debug)]
pub struct GuardCache {
    golden: Circuit,
    opts: GuardOptions,
    checks: AtomicUsize,
}

impl GuardCache {
    /// Creates a guard for one golden circuit.
    #[must_use]
    pub fn new(golden: &Circuit, opts: &GuardOptions) -> Self {
        GuardCache {
            golden: golden.clone(),
            opts: *opts,
            checks: AtomicUsize::new(0),
        }
    }

    /// The golden circuit this cache guards.
    #[must_use]
    pub fn golden(&self) -> &Circuit {
        &self.golden
    }

    /// How many mutants this cache has classified.
    #[must_use]
    pub fn mutants_checked(&self) -> usize {
        self.checks.load(Ordering::Relaxed)
    }

    /// Classifies one mutant against the golden circuit, within the
    /// [`GuardOptions`] budget: `classify(golden, mutated, opts)` on the
    /// trimmed middles (see the type-level docs for why this preserves
    /// the verdict exactly).
    ///
    /// # Panics
    ///
    /// Panics if `mutated` acts on a different register than the golden
    /// circuit (mutators always preserve the register).
    #[must_use]
    pub fn classify(&self, mutated: &Circuit) -> GuardVerdict {
        assert_eq!(
            self.golden.n_qubits(),
            mutated.n_qubits(),
            "guard inputs must share a register"
        );
        self.checks.fetch_add(1, Ordering::Relaxed);
        let (mid_golden, mid_mutated) = trimmed(&self.golden, mutated);
        classify(&mid_golden, &mid_mutated, &self.opts)
    }
}

/// Strips the gates shared by both circuits (longest common prefix, then
/// longest common suffix of what remains) and returns
/// `(golden_middle, other_middle)` as circuits on the full register.
///
/// Checking the middles is exact: writing the shared prefix and suffix as
/// unitaries `P` and `A`, `U_other · U_golden† = A · (M_o · M_g†) · A†`,
/// and `A X A† = e^{iφ} 𝕀` if and only if `X = e^{iφ} 𝕀` with the same
/// `φ` — so equivalence, inequivalence, and the global phase all carry
/// over from the middle pair to the full pair.
fn trimmed(golden: &Circuit, other: &Circuit) -> (Circuit, Circuit) {
    let g = golden.gates();
    let o = other.gates();
    let limit = g.len().min(o.len());
    let mut prefix = 0;
    while prefix < limit && g[prefix] == o[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < limit - prefix && g[g.len() - 1 - suffix] == o[o.len() - 1 - suffix] {
        suffix += 1;
    }
    let mut mid_golden = Circuit::new(golden.n_qubits());
    for gate in &g[prefix..g.len() - suffix] {
        mid_golden.push(gate.clone());
    }
    let mut mid_other = Circuit::new(other.n_qubits());
    for gate in &o[prefix..o.len() - suffix] {
        mid_other.push(gate.clone());
    }
    (mid_golden, mid_other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    #[test]
    fn real_faults_are_flagged() {
        let c = generators::ghz(4);
        let mut buggy = c.clone();
        buggy.x(2);
        assert_eq!(
            classify(&c, &buggy, &GuardOptions::default()),
            GuardVerdict::Fault
        );
    }

    #[test]
    fn identical_circuits_are_benign() {
        let c = generators::qft(4, true);
        let v = classify(&c, &c.clone(), &GuardOptions::default());
        assert!(v.is_benign());
        assert!(!v.is_fault());
    }

    #[test]
    fn symmetric_operand_swap_is_benign() {
        // CZ is symmetric: exchanging control and target is a syntactic
        // change with no semantic effect — exactly what the guard catches.
        let mut a = qcirc::Circuit::new(2);
        a.h(0).cz(0, 1);
        let mut b = qcirc::Circuit::new(2);
        b.h(0).cz(1, 0);
        assert!(classify(&a, &b, &GuardOptions::default()).is_benign());
    }

    #[test]
    fn oversized_registers_are_unchecked() {
        let c = generators::ghz(6);
        let opts = GuardOptions {
            max_qubits: 4,
            ..GuardOptions::default()
        };
        match classify(&c, &c.clone(), &opts) {
            GuardVerdict::Unchecked { reason } => assert!(reason.contains("guard limit")),
            other => panic!("expected unchecked, got {other:?}"),
        }
    }

    #[test]
    fn cache_matches_stateless_classify() {
        let golden = generators::qft(4, true);
        let cache = GuardCache::new(&golden, &GuardOptions::default());
        let mutants = [
            golden.clone(),
            {
                let mut b = golden.clone();
                b.x(0);
                b
            },
            {
                let mut b = golden.clone();
                b.rz(2.0 * std::f64::consts::PI, 1);
                b
            },
        ];
        for mutant in &mutants {
            let cached = cache.classify(mutant);
            let stateless = classify(&golden, mutant, &GuardOptions::default());
            assert_eq!(
                cached.is_fault(),
                stateless.is_fault(),
                "fault labels disagree"
            );
            assert_eq!(
                cached.is_benign(),
                stateless.is_benign(),
                "benign labels disagree"
            );
        }
        assert_eq!(cache.mutants_checked(), mutants.len());
    }

    #[test]
    fn cache_respects_the_qubit_limit_without_building() {
        let golden = generators::ghz(6);
        let opts = GuardOptions {
            max_qubits: 4,
            ..GuardOptions::default()
        };
        let cache = GuardCache::new(&golden, &opts);
        match cache.classify(&golden.clone()) {
            GuardVerdict::Unchecked { reason } => assert!(reason.contains("guard limit")),
            other => panic!("expected unchecked, got {other:?}"),
        }
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let golden = generators::ghz(5);
        let cache = GuardCache::new(&golden, &GuardOptions::default());
        let mut buggy = golden.clone();
        buggy.z(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        assert!(cache.classify(&buggy).is_fault());
                        assert!(cache.classify(&golden.clone()).is_benign());
                    }
                });
            }
        });
        assert_eq!(cache.mutants_checked(), 40);
    }

    #[test]
    fn trimming_strips_shared_prefix_and_suffix() {
        let mut golden = qcirc::Circuit::new(3);
        golden.h(0).cx(0, 1).t(2).cx(1, 2);
        // Drop the third gate: shared prefix [h, cx], shared suffix [cx].
        let mut dropped = golden.clone();
        dropped.remove(2);
        let (mid_g, mid_m) = trimmed(&golden, &dropped);
        assert_eq!(mid_g.len(), 1);
        assert_eq!(mid_m.len(), 0);
        // Identical circuits trim to nothing.
        let (mid_g, mid_m) = trimmed(&golden, &golden.clone());
        assert_eq!(mid_g.len(), 0);
        assert_eq!(mid_m.len(), 0);
        // The suffix never overlaps the prefix: a duplicated gate is
        // attributed once, not twice.
        let mut doubled = golden.clone();
        doubled.h(0);
        let (mid_g, mid_m) = trimmed(&golden, &doubled);
        assert_eq!(mid_g.len(), 0);
        assert_eq!(mid_m.len(), 1);
    }

    #[test]
    fn suffix_wide_mutations_match_the_stateless_guard() {
        // A qubit relabelling rewrites every gate from some index on — the
        // widest middle any mutator produces. Labels must still match.
        let golden = generators::qft(4, true);
        let cache = GuardCache::new(&golden, &GuardOptions::default());
        let relabel = crate::mutator_for(crate::MutationKind::RelabelQubits, 0.1);
        for seed in 0..6u64 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let Ok((mutated, record)) = relabel.apply(&golden, &mut rng) else {
                continue;
            };
            assert_eq!(
                cache.classify(&mutated),
                classify(&golden, &mutated, &GuardOptions::default()),
                "labels diverged on {record}"
            );
        }
    }

    #[test]
    fn disjoint_candidates_match_the_stateless_guard() {
        // A candidate sharing no gate with the golden circuit trims to the
        // whole pair, and must be labelled exactly like the stateless
        // guard — here benign, because H·Z·H = X even though the gate
        // lists are disjoint.
        let mut golden = qcirc::Circuit::new(2);
        golden.x(0).cx(0, 1).x(0);
        let mut detour = qcirc::Circuit::new(2);
        detour.h(0).z(0).h(0).cx(0, 1).h(0).z(0).h(0);
        let cache = GuardCache::new(&golden, &GuardOptions::default());
        let (mid_g, mid_d) = trimmed(&golden, &detour);
        assert_eq!(
            (mid_g.len(), mid_d.len()),
            (golden.len(), detour.len()),
            "the detour must not share prefix or suffix"
        );
        let verdict = cache.classify(&detour);
        assert_eq!(
            verdict,
            classify(&golden, &detour, &GuardOptions::default())
        );
        assert!(verdict.is_benign());
    }

    #[test]
    fn verdicts_display() {
        assert_eq!(GuardVerdict::Fault.to_string(), "fault");
        assert_eq!(GuardVerdict::Benign { phase: None }.to_string(), "benign");
        assert!(GuardVerdict::Benign { phase: Some(0.5) }
            .to_string()
            .contains("global phase"));
    }
}

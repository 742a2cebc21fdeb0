//! Shared harness for regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin/` print the artifacts:
//!
//! * `table1a` — Table Ia (non-equivalent benchmarks),
//! * `table1b` — Table Ib (equivalent benchmarks),
//! * `theory_detection` — the Section IV-A detection-probability analysis,
//! * `sims_histogram` — the "#sims until counterexample" distribution,
//! * `fig1_example` — the Fig. 1/Fig. 2 worked example.
//!
//! [`suite`] builds the benchmark pairs `(G, G')`: each paper family is
//! instantiated at sizes that run on a laptop (the substitutions are
//! documented in DESIGN.md), with `G'` produced by a *verified* design-flow
//! step (decomposition, mapping, optimization).

use std::time::Duration;

use qcirc::mapping::{route, CouplingMap, RouteError, RouterOptions};
use qcirc::{decompose, generators, optimize, Circuit};

/// How the alternative realization `G'` was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derivation {
    /// SWAP-insertion mapping to a coupling map.
    Mapped,
    /// Lowering to the `{1q, CX}` basis (with dirty ancillas where needed).
    Decomposed,
    /// Exact optimization passes.
    Optimized,
}

/// One benchmark pair of the evaluation.
#[derive(Debug, Clone)]
pub struct BenchmarkPair {
    /// Row name (mirrors the paper's naming).
    pub name: String,
    /// The original circuit `G` (widened to `G'`'s register if the
    /// derivation added ancillas).
    pub original: Circuit,
    /// The alternative realization `G'`.
    pub alternative: Circuit,
    /// Which design-flow step produced `G'`.
    pub derivation: Derivation,
    /// Whether dense statevector simulation is sensible at this size
    /// (≤ ~20 qubits); above that use the DD backend.
    pub statevector_ok: bool,
}

impl BenchmarkPair {
    /// The register size `n` shared by both circuits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.original.n_qubits()
    }
}

/// Builds the benchmark suite. `scale` widens the sweep: 0 = smoke-test
/// sizes (CI), 1 = paper-shaped sizes that still finish in minutes.
#[must_use]
pub fn suite(scale: usize) -> Vec<BenchmarkPair> {
    let mut pairs = Vec::new();

    // --- Quantum chemistry (Trotterized lattice model; see DESIGN.md) ----
    pairs.push(mapped_pair(
        "Chemistry 2x4",
        generators::trotter_heisenberg(2, 4, 2, 0.1, 0.5),
        &CouplingMap::grid(2, 4),
    ));
    if scale >= 1 {
        pairs.push(mapped_pair(
            "Chemistry 3x6",
            generators::trotter_heisenberg(3, 6, 2, 0.1, 0.5),
            &CouplingMap::grid(3, 6),
        ));
    }

    // --- Supremacy-style random circuits ---------------------------------
    for &depth in if scale >= 1 {
        &[5usize, 15, 50][..]
    } else {
        &[5usize][..]
    } {
        let g = generators::supremacy_2d(4, 4, depth, 1234 + depth as u64);
        pairs.push(mapped_pair(
            &format!("Supremacy 4x4 {depth:02}"),
            g,
            &CouplingMap::grid(4, 4),
        ));
    }

    // --- Grover (ancilla decomposition inflates the register, as in the
    //     paper's Grover rows) ---------------------------------------------
    for &k in if scale >= 1 {
        &[5usize, 6, 7][..]
    } else {
        &[5usize][..]
    } {
        let g = generators::grover(k, (1 << k) - 2, generators::optimal_grover_iterations(k));
        let lowered = decompose::decompose_with_dirty_ancillas(&g);
        let widened = g.widened(lowered.n_qubits());
        pairs.push(BenchmarkPair {
            name: format!("Grover {k}"),
            original: widened,
            alternative: lowered,
            derivation: Derivation::Decomposed,
            statevector_ok: true,
        });
    }

    // --- QFT (large registers: DD simulation only, like the paper's
    //     QFT 48/64 rows) ----------------------------------------------------
    let qft_sizes: &[usize] = if scale >= 1 { &[16, 32, 48] } else { &[16] };
    for &n in qft_sizes {
        let g = generators::qft(n, false);
        let optimized = optimize::optimize(&g);
        // Optimization alone is too gentle for QFT; add an exactly
        // cancelling pair per qubit so |G'| differs visibly.
        let mut alt = optimized;
        for q in 0..n {
            alt.h(q).h(q);
        }
        pairs.push(BenchmarkPair {
            name: format!("QFT {n}"),
            original: g,
            alternative: alt,
            derivation: Derivation::Optimized,
            statevector_ok: n <= 20,
        });
    }

    // --- Oracle / arithmetic families (beyond the paper's table, same
    //     methodology) ------------------------------------------------------
    if scale >= 1 {
        pairs.push(mapped_pair(
            "BV 16",
            generators::bernstein_vazirani(16, 0b1011_0110_1001_0011),
            &CouplingMap::linear(17),
        ));
        let qpe = generators::phase_estimation(8, 37.0 / 256.0);
        pairs.push(mapped_pair("QPE 8", qpe, &CouplingMap::linear(9)));
        let mult = generators::multiplier(2);
        let lowered = decompose::decompose_to_cx_and_single_qubit(&mult);
        pairs.push(BenchmarkPair {
            name: "Multiplier 2".to_string(),
            original: mult,
            alternative: lowered,
            derivation: Derivation::Decomposed,
            statevector_ok: true,
        });
    }

    // --- RevLib-class reversible netlists (seeded substitutes) ------------
    let revlib: &[(usize, usize, usize, u64)] = if scale >= 1 {
        &[(10, 60, 4, 1), (12, 80, 5, 2), (14, 60, 6, 3)]
    } else {
        &[(10, 40, 4, 1)]
    };
    for &(n, m, cmax, seed) in revlib {
        let g = generators::toffoli_network(n, m, cmax, seed);
        let lowered = decompose::decompose_with_dirty_ancillas(&g);
        let widened = g.widened(lowered.n_qubits());
        pairs.push(BenchmarkPair {
            name: format!("toffnet_{n}_{seed}"),
            original: widened,
            alternative: lowered,
            derivation: Derivation::Decomposed,
            statevector_ok: true,
        });
    }

    pairs
}

/// `g` as a mapping flow leaves it: lowered to `{1q, CX}` and routed onto
/// `device` with the initial layout restored at the end.
///
/// # Errors
///
/// Returns the router's error when `device` has fewer qubits than `g`.
pub fn mapped(g: &Circuit, device: &CouplingMap) -> Result<Circuit, RouteError> {
    let lowered = decompose::decompose_to_cx_and_single_qubit(g);
    route(&lowered, device, RouterOptions::default()).map(|routed| routed.circuit)
}

fn mapped_pair(name: &str, g: Circuit, device: &CouplingMap) -> BenchmarkPair {
    let routed = mapped(&g, device).expect("suite circuits fit their devices");
    let n = routed.n_qubits();
    BenchmarkPair {
        name: name.to_string(),
        original: g.widened(n),
        alternative: routed,
        derivation: Derivation::Mapped,
        statevector_ok: n <= 20,
    }
}

/// Formats a duration like the paper's tables (seconds with two decimals).
#[must_use]
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a possibly-timed-out duration: `Some(d)` → seconds, `None` →
/// `"> limit"`.
#[must_use]
pub fn fmt_secs_or_timeout(d: Option<Duration>, limit: Duration) -> String {
    match d {
        Some(d) => fmt_secs(d),
        None => format!("> {}", limit.as_secs_f64()),
    }
}

/// Reads the harness deadline (seconds) from `QCEC_BENCH_DEADLINE`,
/// defaulting to `default_secs`.
#[must_use]
pub fn deadline_from_env(default_secs: u64) -> Duration {
    std::env::var("QCEC_BENCH_DEADLINE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::from_secs(default_secs), Duration::from_secs)
}

/// Reads the harness scale (0 = smoke, 1 = full) from `QCEC_BENCH_SCALE`.
#[must_use]
pub fn scale_from_env() -> usize {
    std::env::var("QCEC_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcec::check_equivalence_default;

    #[test]
    fn smoke_suite_pairs_are_equivalent() {
        for pair in suite(0) {
            assert_eq!(pair.original.n_qubits(), pair.alternative.n_qubits());
            if pair.statevector_ok && pair.n_qubits() <= 12 {
                let result = check_equivalence_default(&pair.original, &pair.alternative).unwrap();
                assert!(
                    result.outcome.is_equivalent(),
                    "{}: {}",
                    pair.name,
                    result.outcome
                );
            }
        }
    }

    #[test]
    fn suite_covers_every_derivation() {
        let pairs = suite(1);
        for d in [
            Derivation::Mapped,
            Derivation::Decomposed,
            Derivation::Optimized,
        ] {
            assert!(pairs.iter().any(|p| p.derivation == d), "{d:?} missing");
        }
        assert!(pairs.len() >= 10);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(fmt_secs_or_timeout(None, Duration::from_secs(10)), "> 10");
        assert_eq!(
            fmt_secs_or_timeout(Some(Duration::from_millis(250)), Duration::from_secs(10)),
            "0.25"
        );
    }
}

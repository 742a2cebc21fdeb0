//! Regenerates Table Ia: non-equivalent benchmarks.
//!
//! For every benchmark pair, a design-flow error is injected into the
//! alternative realization with the `qfault` mutators — cycling through
//! the error classes row by row, and re-drawing until the guard confirms
//! the mutation is a real fault (a benign mutation would make the row
//! meaningless). The table reports, per row:
//!
//! * `t_ec` — runtime of the *sole* state-of-the-art DD equivalence check
//!   (`> D` when the deadline/node budget is exhausted, like the paper's
//!   `> 3600` entries),
//! * `#sims` — simulations until the proposed flow finds a counterexample,
//! * `t_sim` — runtime of the simulation stage.
//!
//! Environment: `QCEC_BENCH_SCALE` (0 smoke / 1 full, default 1),
//! `QCEC_BENCH_DEADLINE` (seconds for `t_ec`, default 30),
//! `QCEC_BENCH_JSON` (`1` → emit the rows as a JSON report on stdout
//! instead of the text table).

use std::time::Instant;

use bench::{deadline_from_env, fmt_secs, scale_from_env, suite};
use qcec::report::Report;
use qcec::{BackendKind, Config, Fallback, FlowResult, Outcome};
use qcirc::Circuit;
use qfault::{mutator_for, GuardOptions, Mutation, MutationKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Injects a guard-confirmed fault, cycling through the error classes
/// starting at `row`'s class and re-drawing on benign/inapplicable
/// mutations.
fn inject_fault(circuit: &Circuit, row: usize, rng: &mut StdRng) -> Option<(Circuit, Mutation)> {
    let guard = GuardOptions::default();
    let kinds = MutationKind::ALL;
    for attempt in 0..4 * kinds.len() {
        let kind = kinds[(row + attempt) % kinds.len()];
        let mutator = mutator_for(kind, 0.1);
        let Ok((mutated, record)) = mutator.apply(circuit, rng) else {
            continue;
        };
        if qfault::guard::classify(circuit, &mutated, &guard).is_benign() {
            continue;
        }
        return Some((mutated, record));
    }
    None
}

fn main() {
    let deadline = deadline_from_env(30);
    let scale = scale_from_env();
    let json_mode = std::env::var("QCEC_BENCH_JSON").is_ok_and(|v| v == "1");
    let dd_limit = 2_000_000;
    let mut report = Report::new();

    if !json_mode {
        println!("Table Ia — non-equivalent benchmarks (deadline {deadline:?})");
        println!(
            "{:<18} {:>3} {:>8} {:>8} {:>12} {:>6} {:>10}  injected error",
            "Benchmark", "n", "|G|", "|G'|", "t_ec [s]", "#sims", "t_sim [s]"
        );
    }

    for (row, pair) in suite(scale).into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xDAC2020 + 31 * row as u64);
        let Some((buggy, record)) = inject_fault(&pair.alternative, row, &mut rng) else {
            eprintln!("{}: skipped (no applicable fault)", pair.name);
            continue;
        };

        // Sole state-of-the-art EC routine (t_ec).
        let ec_start = Instant::now();
        let mut package = qdd::Package::with_node_limit(pair.n_qubits(), dd_limit);
        let ec = qdd::check_equivalence_alternating(
            &mut package,
            &pair.original,
            &buggy,
            &qdd::Budget::new(Some(deadline)),
            qdd::ApplicationScheme::default(),
        );
        let ec_elapsed = ec_start.elapsed();
        let t_ec = match ec {
            Ok(verdict) => {
                debug_assert!(!verdict.is_equivalent());
                fmt_secs(ec_elapsed)
            }
            Err(_) => format!("> {}", deadline.as_secs()),
        };

        // Proposed flow, simulation stage only.
        let backend = if pair.statevector_ok {
            BackendKind::Statevector
        } else {
            BackendKind::DecisionDiagram
        };
        let config = Config::new()
            .with_fallback(Fallback::None)
            .with_backend(backend)
            .with_dd_node_limit(dd_limit)
            .with_simulations(10)
            .with_seed(7);
        let result = match qcec::check_equivalence(&pair.original, &buggy, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: simulation failed ({e})", pair.name);
                continue;
            }
        };
        let (sims, t_sim) = match &result.outcome {
            Outcome::NotEquivalent {
                counterexample: Some(ce),
            } => (ce.run.to_string(), fmt_secs(result.stats.simulation_time)),
            _ => (
                "-".to_string(),
                format!("{} (undetected!)", fmt_secs(result.stats.simulation_time)),
            ),
        };

        if json_mode {
            // One report row per benchmark: the flow verdict plus the sole
            // EC routine's runtime in the functional-time column.
            let mut stats = result.stats;
            stats.functional_time = ec_elapsed;
            report.push_with_backend(
                format!("{} [{}]", pair.name, record.kind.slug()),
                pair.n_qubits(),
                pair.original.len(),
                buggy.len(),
                backend,
                FlowResult {
                    outcome: result.outcome.clone(),
                    stats,
                },
            );
        } else {
            println!(
                "{:<18} {:>3} {:>8} {:>8} {:>12} {:>6} {:>10}  {}",
                pair.name,
                pair.n_qubits(),
                pair.original.len(),
                buggy.len(),
                t_ec,
                sims,
                t_sim,
                record
            );
        }
    }

    if json_mode {
        println!("{}", report.to_json(true));
    }
}

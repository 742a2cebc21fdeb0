//! Regenerates Table Ib: equivalent benchmarks.
//!
//! For every pair `(G, G')` produced by a verified design-flow step, the
//! table compares the runtime of the complete DD equivalence check
//! (`t_ec`, `> D` on deadline/node exhaustion) with the cost of the
//! proposed flow's `r = 10` random simulations (`t_sim`) — showing that the
//! simulations are a negligible overhead while providing a strong
//! indication of equivalence even when the complete check fails.
//!
//! Environment: `QCEC_BENCH_SCALE` (0 smoke / 1 full, default 1),
//! `QCEC_BENCH_DEADLINE` (seconds, default 30), `QCEC_BENCH_JSON` (`1` →
//! emit the rows as a JSON report on stdout instead of the text table).

use std::time::Instant;

use bench::{deadline_from_env, fmt_secs, scale_from_env, suite};
use qcec::report::Report;
use qcec::{run_simulations, AbortReason, FlowResult, FlowStats, Outcome, SimVerdict};
use qcec::{BackendKind, Config};

fn main() {
    let deadline = deadline_from_env(30);
    let scale = scale_from_env();
    let json_mode = std::env::var("QCEC_BENCH_JSON").is_ok_and(|v| v == "1");
    let dd_limit = 2_000_000;
    let mut report = Report::new();

    if !json_mode {
        println!("Table Ib — equivalent benchmarks (deadline {deadline:?}, r = 10)");
        println!(
            "{:<18} {:>3} {:>8} {:>8} {:>12} {:>10}  derivation",
            "Benchmark", "n", "|G|", "|G'|", "t_ec [s]", "t_sim [s]"
        );
    }

    for pair in suite(scale) {
        // Complete EC routine alone.
        let ec_start = Instant::now();
        let mut package = qdd::Package::with_node_limit(pair.n_qubits(), dd_limit);
        let ec = qdd::check_equivalence_alternating(
            &mut package,
            &pair.original,
            &pair.alternative,
            &qdd::Budget::new(Some(deadline)),
            qdd::ApplicationScheme::default(),
        );
        let ec_elapsed = ec_start.elapsed();
        let ec_finished = ec.is_ok();
        let t_ec = match ec {
            Ok(verdict) => {
                assert!(
                    verdict.is_equivalent(),
                    "{}: suite pair not equivalent!",
                    pair.name
                );
                fmt_secs(ec_elapsed)
            }
            Err(_) => format!("> {}", deadline.as_secs()),
        };

        // The proposed flow's simulation stage (r = 10).
        let backend = if pair.statevector_ok {
            BackendKind::Statevector
        } else {
            BackendKind::DecisionDiagram
        };
        let config = Config::new()
            .with_backend(backend)
            .with_dd_node_limit(dd_limit)
            .with_simulations(10)
            .with_seed(7);
        let sim_start = Instant::now();
        let verdict = run_simulations(&pair.original, &pair.alternative, &config);
        let sim_elapsed = sim_start.elapsed();
        let t_sim = match &verdict {
            Ok(SimVerdict::AllAgreed { .. }) => fmt_secs(sim_elapsed),
            Ok(SimVerdict::CounterexampleFound(ce)) => {
                format!("FALSE NEGATIVE ({ce})")
            }
            Err(e) => format!("dd overflow ({e})"),
        };

        if json_mode {
            // Synthesize the flow result the two measured stages imply:
            // proven equivalence when the complete check finished, the
            // paper's "probably equivalent" outcome when it timed out.
            let outcome = if ec_finished {
                Outcome::Equivalent
            } else {
                Outcome::ProbablyEquivalent {
                    passed_simulations: config.simulations,
                    abort: AbortReason::Timeout,
                }
            };
            report.push_with_backend(
                pair.name.clone(),
                pair.n_qubits(),
                pair.original.len(),
                pair.alternative.len(),
                backend,
                FlowResult {
                    outcome,
                    stats: FlowStats {
                        simulations_run: config.simulations,
                        simulation_time: sim_elapsed,
                        functional_time: ec_elapsed,
                    },
                },
            );
        } else {
            println!(
                "{:<18} {:>3} {:>8} {:>8} {:>12} {:>10}  {:?}",
                pair.name,
                pair.n_qubits(),
                pair.original.len(),
                pair.alternative.len(),
                t_ec,
                t_sim,
                pair.derivation
            );
        }
    }

    if json_mode {
        println!("{}", report.to_json(true));
    }
}

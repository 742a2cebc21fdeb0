//! Detect an injected design-flow bug — the paper's core scenario.
//!
//! A supremacy-style circuit is mapped to a grid device; a seeded "mapping
//! tool bug" is injected into the mapped artifact: two qubits swap labels
//! from one gate on, as when a SWAP is not applied correctly (the paper's
//! Example 6). The sole complete check grinds on the 16-qubit
//! unstructured circuit, while one random simulation exposes the bug.
//!
//! Run with `cargo run --release -p qcec-examples --bin detect_bug`.

use std::time::{Duration, Instant};

use qcec::{Config, Fallback, Outcome};
use qcirc::generators;
use qfault::{Mutator, RelabelQubits};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::supremacy_2d(4, 4, 10, 42);
    // Lower to the CX basis and map — the standard flow (CZ has no native
    // spelling on CX-based devices).
    let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&g);
    let routed = qcirc::mapping::route(
        &lowered,
        &qcirc::mapping::CouplingMap::grid(4, 4),
        Default::default(),
    )?;
    let g = g.widened(routed.circuit.n_qubits());
    println!(
        "circuit: '{}', {} qubits, |G| = {}, |G'| = {}",
        g.name(),
        g.n_qubits(),
        g.len(),
        routed.circuit.len()
    );

    // The mapping tool "bug".
    let mut rng = StdRng::seed_from_u64(7);
    let (buggy, record) = RelabelQubits.apply(&routed.circuit, &mut rng)?;
    println!("injected: {record}");

    // Attempt 1: the state-of-the-art complete check, small budget.
    let budget = Duration::from_secs(5);
    let start = Instant::now();
    let mut package = qdd::Package::with_node_limit(g.n_qubits(), 1_000_000);
    let ec = qdd::check_equivalence_alternating(
        &mut package,
        &g,
        &buggy,
        &qdd::Budget::new(Some(budget)),
        qdd::ApplicationScheme::default(),
    );
    match ec {
        Ok(v) => println!(
            "complete DD check: {v} after {:.2} s",
            start.elapsed().as_secs_f64()
        ),
        Err(abort) => println!(
            "complete DD check: gave up after {:.2} s ({abort}) — no conclusion at all",
            start.elapsed().as_secs_f64()
        ),
    }

    // Attempt 2: the proposed flow (simulation stage only to show timing).
    let config = Config::new().with_fallback(Fallback::None).with_seed(1);
    let start = Instant::now();
    let result = qcec::check_equivalence(&g, &buggy, &config)?;
    println!(
        "simulation flow:   {} after {:.3} s",
        result.outcome,
        start.elapsed().as_secs_f64()
    );
    match result.outcome {
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => {
            println!(
                "→ non-equivalence proven by simulation run #{} on stimulus {} (fidelity {:.4})",
                ce.run, ce.stimulus, ce.fidelity
            );
            Ok(())
        }
        other => Err(format!("expected a counterexample, got {other}").into()),
    }
}

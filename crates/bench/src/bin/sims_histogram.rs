//! Regenerates the "#sims until counterexample" evidence (experiment TH2):
//! the paper observes that for realistic design-flow errors, a *single*
//! simulation almost always suffices.
//!
//! Injects every `qfault` error class many times (fresh seeds) into a
//! mid-size elementary circuit and histograms how many random simulations
//! the flow needed before the counterexample appeared. The complete-check
//! guard labels each mutant first: a guard-benign mutant is equivalent to
//! the original, so it is counted apart, never as a miss.
//!
//! Environment: `QCEC_BENCH_SCALE` (0 → 40 trials/class, else 200).

use bench::scale_from_env;
use qcec::{Config, Fallback, Outcome};
use qfault::{registry, GuardCache, GuardOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials = if scale_from_env() == 0 { 40 } else { 200 };
    let max_r = 16;
    // A decomposed+mapped chemistry circuit: the paper's "realistic
    // design-flow output" shape (rotations + CX on a grid).
    let g = {
        let raw = qcirc::generators::trotter_heisenberg(2, 4, 2, 0.1, 0.5);
        let routed = qcirc::mapping::route_or_panic(&raw, &qcirc::mapping::CouplingMap::grid(2, 4));
        routed.circuit
    };
    let guard = GuardCache::new(&g, &GuardOptions::default());
    println!(
        "#sims histogram — {} trials per error class on '{}' ({} qubits, {} gates, r ≤ {max_r})",
        trials,
        g.name(),
        g.n_qubits(),
        g.len()
    );
    println!("percentages are of the guard-confirmed faults; benign mutants are counted apart");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>10}",
        "error class", "faults", "1 sim", "2 sims", "3+", "missed", "benign", "mean#sims"
    );

    for mutator in registry(0.1) {
        let mut one = 0usize;
        let mut two = 0usize;
        let mut more = 0usize;
        let mut missed = 0usize;
        let mut benign = 0usize;
        let mut total_runs = 0usize;
        let mut detected = 0usize;
        let mut faults = 0usize;
        for seed in 0..trials as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok((buggy, _)) = mutator.apply(&g, &mut rng) else {
                continue;
            };
            if guard.classify(&buggy).is_benign() {
                benign += 1;
                continue;
            }
            faults += 1;
            let config = Config::new()
                .with_simulations(max_r)
                .with_fallback(Fallback::None)
                .with_seed(seed.wrapping_mul(0x9E3779B97F4A7C15));
            let result =
                qcec::check_equivalence(&g, &buggy, &config).expect("statevector flow cannot fail");
            match result.outcome {
                Outcome::NotEquivalent {
                    counterexample: Some(ce),
                } => {
                    detected += 1;
                    total_runs += ce.run;
                    match ce.run {
                        1 => one += 1,
                        2 => two += 1,
                        _ => more += 1,
                    }
                }
                // A real fault that r runs did not expose.
                _ => missed += 1,
            }
        }
        let mean = if detected > 0 {
            format!("{:.2}", total_runs as f64 / detected as f64)
        } else {
            "-".into()
        };
        println!(
            "{:<22} {:>7} {:>6}% {:>6}% {:>6}% {:>7}% {:>7} {:>10}",
            mutator.kind().slug(),
            faults,
            percent(one, faults),
            percent(two, faults),
            percent(more, faults),
            percent(missed, faults),
            benign,
            mean
        );
    }
    println!();
    println!("Paper's Table Ia: #sims = 1 for every row except one QFT row (#sims = 2).");
}

fn percent(part: usize, whole: usize) -> String {
    if whole == 0 {
        "-".into()
    } else {
        format!("{:.0}", 100.0 * part as f64 / whole as f64)
    }
}

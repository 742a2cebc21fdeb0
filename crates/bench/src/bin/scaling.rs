//! Scaling figure: runtime of one simulation vs the complete equivalence
//! check as the register grows (the "figure" behind the paper's complexity
//! argument — columns are `O(m·2ⁿ)`, full matrices `O(m·4ⁿ)`-ish, DDs
//! structure-dependent).
//!
//! Prints one row per qubit count for the QFT and supremacy families:
//! `t_sim_sv` (one statevector run), `t_sim_dd` (one DD run), `t_ec`
//! (complete alternating DD check of the pair against its optimized self).
//!
//! Environment: `QCEC_BENCH_DEADLINE` (seconds, default 10).

use std::time::{Duration, Instant};

use bench::{deadline_from_env, fmt_secs};
use qsim::Simulator;

fn main() {
    let deadline = deadline_from_env(10);
    println!("Scaling sweep (deadline {deadline:?} per EC)");
    println!(
        "{:<22} {:>3} {:>8} {:>12} {:>12} {:>12}",
        "family", "n", "|G|", "t_sim_sv [s]", "t_sim_dd [s]", "t_ec [s]"
    );

    for n in [8usize, 12, 16, 20] {
        let g = qcirc::generators::qft(n, false);
        row("QFT", &g, n <= 24, deadline);
    }
    for (r, c, d) in [(2usize, 2usize, 8usize), (3, 3, 8), (3, 4, 8), (4, 4, 8)] {
        let g = qcirc::generators::supremacy_2d(r, c, d, 11);
        row(&format!("Supremacy {r}x{c} d{d}"), &g, true, deadline);
    }

    // Clifford circuits: the stabilizer backend runs the same flow in
    // polynomial time, far beyond any dense representation.
    println!();
    println!("Clifford family (stabilizer backend, 10 probes per check):");
    println!(
        "{:<22} {:>4} {:>8} {:>14}",
        "family", "n", "|G|", "t_10_probes [s]"
    );
    for n in [50usize, 100, 200, 400] {
        let g = qcirc::generators::ghz(n);
        let mapped = qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::ring(n));
        let start = Instant::now();
        let verdict =
            qstab::check_clifford_equivalence(&g, &mapped.circuit, 10, 1).expect("GHZ is Clifford");
        assert!(matches!(verdict, qstab::CliffordVerdict::AllAgreed { .. }));
        println!(
            "{:<22} {:>4} {:>8} {:>14}",
            "GHZ (mapped)",
            n,
            mapped.circuit.len(),
            fmt_secs(start.elapsed())
        );
    }
}

fn row(family: &str, g: &qcirc::Circuit, sv_ok: bool, deadline: Duration) {
    let n = g.n_qubits();
    // One statevector simulation.
    let t_sv = if sv_ok {
        let sim = Simulator::new();
        let start = Instant::now();
        let _ = sim.run_basis(g, 1);
        fmt_secs(start.elapsed())
    } else {
        "-".to_string()
    };
    // One DD simulation.
    let t_dd = {
        let mut p = qdd::Package::new(n);
        let start = Instant::now();
        match p.apply_to_basis(g, 1) {
            Ok(_) => fmt_secs(start.elapsed()),
            Err(_) => "overflow".to_string(),
        }
    };
    // Complete DD check against the optimized variant.
    let optimized = qcirc::optimize::optimize(g);
    let t_ec = {
        let mut p = qdd::Package::with_node_limit(n, 2_000_000);
        let start = Instant::now();
        let budget = qdd::Budget::new(Some(deadline));
        match qdd::check_equivalence_alternating(&mut p, g, &optimized, &budget) {
            Ok(v) => {
                assert!(v.is_equivalent());
                fmt_secs(start.elapsed())
            }
            Err(_) => format!("> {}", deadline.as_secs()),
        }
    };
    println!(
        "{:<22} {:>3} {:>8} {:>12} {:>12} {:>12}",
        family,
        n,
        g.len(),
        t_sv,
        t_dd,
        t_ec
    );
}

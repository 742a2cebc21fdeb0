//! Reproduces the worked example of the paper's Figures 1 and 2:
//!
//! * Fig. 1a — the CX and SWAP matrices,
//! * Fig. 1b — the 3-qubit H/CX example circuit `G`,
//! * Fig. 1c — its 8×8 system matrix `U`,
//! * Fig. 2  — a mapped realization `G'` with inserted SWAPs (same `U`),
//! * Fig. 1d — the matrix `Ũ'` after the Example-6 bug (a SWAP applied to
//!   the wrong qubit pair), differing from `U` in **every** column — which
//!   is why a single random simulation exposes the bug.

use qcirc::generators::figure1b;
use qnum::{Complex, Matrix4, MatrixN};

fn main() {
    println!("== Fig. 1a: two-qubit gate matrices ==\n");
    println!("CX (control = high qubit):");
    print_matrix4(&Matrix4::cx());
    println!("\nSWAP:");
    print_matrix4(&Matrix4::swap());

    let g = figure1b();
    println!(
        "\n== Fig. 1b: example circuit G ({} gates, 3 qubits) ==\n",
        g.len()
    );
    print!("{g}");

    let u = qcirc::dense::unitary(&g);
    println!("\n== Fig. 1c: system matrix U = U7···U0 ==\n");
    print_matrixn(&u);

    // Fig. 2: map G to a linear-coupling device, inserting SWAPs.
    let device = qcirc::mapping::CouplingMap::linear(3);
    let routed = qcirc::mapping::route_or_panic(&g, &device);
    println!(
        "\n== Fig. 2: mapped circuit G' ({} gates, {} SWAPs inserted) ==\n",
        routed.circuit.len(),
        routed.swap_count
    );
    print!("{}", routed.circuit);
    let u_prime = qcirc::dense::unitary(&routed.circuit);
    println!(
        "\nU' equals U: {} (G and G' are equivalent, as in the paper)",
        u.approx_eq(&u_prime)
    );

    // Example 6: the last SWAP is applied to the wrong qubits.
    let mut buggy = routed.circuit.clone();
    let last_swap = buggy
        .gates()
        .iter()
        .rposition(|gate| gate.kind().mnemonic() == "swap")
        .map(|idx| (idx, buggy.gates()[idx].clone()));
    match last_swap {
        Some((idx, old)) => {
            let (a, b) = (old.targets()[0], old.targets()[1]);
            let wrong = 3 - a - b; // the third qubit
            buggy.replace(idx, qcirc::Gate::swap(a.min(wrong), a.max(wrong)));
            println!(
                "\n== Example 6: bug injected — '{old}' replaced by '{}' ==",
                buggy.gates()[idx]
            );
        }
        None => {
            buggy.swap(0, 1);
            println!("\n== Example 6 variant: stray SWAP appended ==");
        }
    }

    let u_bug = qcirc::dense::unitary(&buggy);
    println!("\n== Fig. 1d: buggy system matrix Ũ' ==\n");
    print_matrixn(&u_bug);
    let differing = u.differing_columns(&u_bug);
    println!(
        "\nU and Ũ' differ in {differing} of 8 columns → a random simulation detects the bug with probability {}/8.",
        differing
    );

    let result = qcec::check_equivalence_default(&g.widened(buggy.n_qubits()), &buggy)
        .expect("equal registers");
    println!("\nProposed flow verdict: {result}");
    let ok =
        qcec::check_equivalence_default(&g.widened(routed.circuit.n_qubits()), &routed.circuit)
            .expect("equal registers");
    println!("Flow on the correct mapping: {ok}");
}

fn print_matrix4(m: &Matrix4) {
    for r in 0..4 {
        let row: Vec<String> = (0..4).map(|c| fmt_entry(m.entry(r, c))).collect();
        println!("  [{}]", row.join(" "));
    }
}

fn print_matrixn(m: &MatrixN) {
    for r in 0..m.dim() {
        let row: Vec<String> = (0..m.dim()).map(|c| fmt_entry(m.entry(r, c))).collect();
        println!("  [{}]", row.join(" "));
    }
}

/// Compact rendering: `·` for zero, `1`, `-1`, otherwise two decimals.
fn fmt_entry(c: Complex) -> String {
    if c.approx_zero() {
        return "    ·".into();
    }
    if c.im.abs() < 1e-9 {
        return format!("{:5.2}", c.re).replace("-0.00", " 0.00");
    }
    format!("{:.1}{:+.1}i", c.re, c.im)
}

//! OpenQASM 2.0 serialization of circuits.

use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};

/// Renders a circuit as OpenQASM 2.0 source text.
///
/// Gates with more than two controls (and controlled SWAPs beyond Fredkin)
/// have no `qelib1` spelling; they are emitted through an inline helper
/// `gate` definition so the output remains valid, self-contained QASM. The
/// output round-trips through [`crate::qasm::parse`].
///
/// # Examples
///
/// ```
/// use qcirc::{qasm, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let src = qasm::write(&c);
/// let back = qasm::parse(&src).expect("writer output must parse");
/// assert_eq!(back.len(), 2);
/// ```
#[must_use]
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    if !circuit.name().is_empty() {
        let _ = writeln!(out, "// circuit: {}", circuit.name());
    }
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    // Multi-controlled gates need helper definitions; collect which arities
    // appear and emit recursive (ancilla-free, exponential) helper gates —
    // fine for serialization purposes, the parser expands them right back.
    let max_arity = circuit
        .gates()
        .iter()
        .filter(|g| *g.kind() == GateKind::X)
        .map(|g| g.controls().len())
        .max()
        .unwrap_or(0);
    // Helper bodies recurse on smaller arities, so emit every arity from 3
    // up to the largest one used.
    for arity in 3..=max_arity {
        emit_mcx_helper(&mut out, arity);
    }
    for gate in circuit.gates() {
        match render_gate(gate) {
            Some(line) => {
                let _ = writeln!(out, "{line}");
            }
            None => {
                // No standard spelling (e.g. doubly-controlled rotations,
                // multi-controlled SWAP): emit the exact elementary
                // decomposition instead.
                let mut lowered = Vec::new();
                crate::decompose::lower_gate_to_elementary(gate, &mut lowered);
                let _ = writeln!(out, "// lowered: {gate}");
                for g in lowered {
                    let line = render_gate(&g).expect("elementary gates always render");
                    let _ = writeln!(out, "{line}");
                }
            }
        }
    }
    out
}

/// Emits an ancilla-free multi-controlled-X helper definition `mcx<k>` as
/// `H(t) · C^k P(π) · H(t)`, with the multi-controlled phase expanded by the
/// exact textbook V–V† recursion.
fn emit_mcx_helper(out: &mut String, arity: usize) {
    let controls: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    let _ = writeln!(out, "gate mcx{arity} {}, t\n{{", controls.join(", "));
    let _ = writeln!(out, "  h t;");
    emit_mcp(out, &controls, "t", 1.0);
    let _ = writeln!(out, "  h t;");
    out.push_str("}\n");
}

/// Recursively emits a multi-controlled phase `C^k P(π·frac)` on `target`:
///
/// `C^k P(θ) = CP(θ/2)(c_k, t) · C^{k-1}X(…, c_k) · CP(−θ/2)(c_k, t)
///            · C^{k-1}X(…, c_k) · C^{k-1}P(θ/2)(…, t)`
fn emit_mcp(out: &mut String, controls: &[String], target: &str, frac: f64) {
    match controls {
        [] => {
            let _ = writeln!(out, "  p(pi*{frac}) {target};");
        }
        [c] => {
            let _ = writeln!(out, "  cp(pi*{frac}) {c}, {target};");
        }
        _ => {
            let (last, rest) = controls.split_last().expect("len >= 2");
            let _ = writeln!(out, "  cp(pi*{}) {last}, {target};", frac / 2.0);
            emit_mcx_call(out, rest, last);
            let _ = writeln!(out, "  cp(pi*({})) {last}, {target};", -frac / 2.0);
            emit_mcx_call(out, rest, last);
            emit_mcp(out, rest, target, frac / 2.0);
        }
    }
}

/// Emits a multi-controlled X with the appropriate spelling for its arity.
fn emit_mcx_call(out: &mut String, controls: &[String], target: &str) {
    match controls.len() {
        0 => {
            let _ = writeln!(out, "  x {target};");
        }
        1 => {
            let _ = writeln!(out, "  cx {}, {target};", controls[0]);
        }
        2 => {
            let _ = writeln!(out, "  ccx {}, {}, {target};", controls[0], controls[1]);
        }
        k => {
            // Smaller helper — emitted before this one by `write`.
            let _ = writeln!(out, "  mcx{k} {}, {target};", controls.join(", "));
        }
    }
}

/// Renders one gate, or `None` when it has no standard QASM spelling (the
/// caller then serializes an elementary decomposition).
fn render_gate(gate: &Gate) -> Option<String> {
    let q = |i: usize| format!("q[{i}]");
    let qubits: Vec<String> = gate.qubits().map(q).collect();
    let operand_list = qubits.join(", ");
    let params = gate.kind().params();
    let param_list = if params.is_empty() {
        String::new()
    } else {
        let rendered: Vec<String> = params.iter().map(|p| format!("{p:?}")).collect();
        format!("({})", rendered.join(","))
    };
    let name = match (gate.kind(), gate.controls().len()) {
        (GateKind::Swap, 0) => "swap".to_string(),
        (GateKind::Swap, 1) => "cswap".to_string(),
        (GateKind::Swap, _) => return None,
        (k, 0) => k.mnemonic().to_string(),
        (GateKind::X, 1) => "cx".to_string(),
        (GateKind::X, 2) => "ccx".to_string(),
        (GateKind::X, c) => format!("mcx{c}"),
        (GateKind::Y, 1) => "cy".to_string(),
        (GateKind::Z, 1) => "cz".to_string(),
        (GateKind::Z, 2) => "ccz".to_string(),
        (GateKind::H, 1) => "ch".to_string(),
        (GateKind::Rz(_), 1) => "crz".to_string(),
        (GateKind::Phase(_), 1) => "cp".to_string(),
        _ => return None,
    };
    Some(format!("{name}{param_list} {operand_list};"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::parse;

    #[test]
    fn roundtrip_simple_circuit() {
        use crate::gate::{Gate, GateKind};
        let mut c = Circuit::with_name(3, "demo");
        c.h(0)
            .cx(0, 1)
            .ccx(0, 1, 2)
            .swap(1, 2)
            .rz(0.5, 0)
            .cp(0.25, 0, 2);
        // One gate of every uncontrolled kind.
        for kind in [
            GateKind::I,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::Sx,
            GateKind::Sxdg,
            GateKind::Sy,
            GateKind::Sydg,
            GateKind::Rx(0.1),
            GateKind::Ry(-0.2),
            GateKind::Rz(0.3),
            GateKind::Phase(-0.4),
            GateKind::U3(0.5, -0.6, 0.7),
        ] {
            c.push(Gate::single(kind, 1));
        }
        c.push(Gate::swap(0, 2));
        let src = write(&c);
        let back = parse(&src).expect("roundtrip parse");
        assert_eq!(back.n_qubits(), 3);
        assert_eq!(back.gates(), c.gates());
    }

    #[test]
    fn roundtrip_preserves_parameters_exactly() {
        let mut c = Circuit::new(1);
        c.rz(std::f64::consts::PI / 3.0, 0).u3(0.1, -0.2, 0.3, 0);
        let back = parse(&write(&c)).unwrap();
        for (a, b) in c.gates().iter().zip(back.gates()) {
            assert!(a.approx_eq(b));
        }
    }

    #[test]
    fn header_and_register_present() {
        let mut c = Circuit::new(2);
        c.x(0);
        let src = write(&c);
        assert!(src.starts_with("OPENQASM 2.0;"));
        assert!(src.contains("qreg q[2];"));
        assert!(src.contains("x q[0];"));
    }

    #[test]
    fn unsupported_spellings_are_lowered_equivalently() {
        use crate::gate::{Gate, GateKind};
        // Controlled-U3, doubly-controlled SWAP, controlled-Ry: none have a
        // qelib1 spelling; the writer must lower them exactly.
        let mut c = Circuit::new(4);
        c.push(Gate::controlled(GateKind::U3(0.4, 0.2, -0.9), vec![0], 1));
        c.push(Gate::controlled_swap(vec![0, 1], 2, 3));
        c.push(Gate::controlled(GateKind::Ry(0.7), vec![3], 0));
        let src = write(&c);
        let back = parse(&src).expect("lowered output must parse");
        assert!(crate::dense::unitary(&back).approx_eq(&crate::dense::unitary(&c)));
    }

    #[test]
    fn mcx_helper_emitted_and_parses() {
        let mut c = Circuit::new(5);
        c.mcx(vec![0, 1, 2, 3], 4);
        let src = write(&c);
        assert!(src.contains("gate mcx4"));
        let back = parse(&src).expect("mcx output must parse");
        // The helper expands into elementary gates — count must be > 1.
        assert!(back.len() > 1);
        assert_eq!(back.n_qubits(), 5);
    }
}

//! Parser for the RevLib `.real` reversible-circuit format.
//!
//! The paper's benchmark set (\[27\]) consists of RevLib functions
//! (`urf4_187`, `hwb9_119`, `5xp1_194`, …) given as Toffoli-gate networks in
//! the `.real` format. This module parses the common subset of that format:
//!
//! * header lines `.version`, `.numvars`, `.variables`, `.inputs`,
//!   `.outputs`, `.constants`, `.garbage` (the latter five are accepted and
//!   recorded but do not affect the unitary),
//! * the gate list between `.begin` and `.end` with gate types
//!   `t<k>` (multi-controlled Toffoli, `t1` = NOT), `f<k>` (multi-controlled
//!   Fredkin/SWAP), `p` (Peres), `p'`/`pi` (inverse Peres), `v` / `v+`
//!   (controlled √X / √X†),
//! * negative control lines (`-var`), handled by conjugating with X gates.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), qcirc::real::ParseRealError> {
//! let src = "\
//! .version 1.0
//! .numvars 3
//! .variables a b c
//! .begin
//! t3 a b c
//! t1 a
//! .end";
//! let c = qcirc::real::parse(src)?;
//! assert_eq!(c.n_qubits(), 3);
//! assert_eq!(c.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};

/// Error produced when parsing `.real` source fails.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseRealError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for ParseRealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            ".real parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseRealError {}

/// Parses RevLib `.real` source text into a [`Circuit`].
///
/// Negative controls (spelled `-var`) are lowered to positive controls
/// conjugated with X gates, so the returned circuit only contains the
/// workspace gate model.
///
/// # Errors
///
/// Returns [`ParseRealError`] on malformed headers, unknown gate types,
/// references to undeclared variables, or a missing `.numvars`.
pub fn parse(source: &str) -> Result<Circuit, ParseRealError> {
    let mut numvars: Option<usize> = None;
    let mut variables: HashMap<String, usize> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut in_body = false;
    let mut ended = false;

    for (line_no, raw) in source.lines().enumerate() {
        let line_no = line_no + 1;
        let err = |message: String| ParseRealError {
            message,
            line: line_no,
        };
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || ended {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let key = parts.next().unwrap_or("");
            match key {
                "version" => {}
                "numvars" => {
                    let v: usize = parts
                        .next()
                        .ok_or_else(|| err(".numvars needs a value".into()))?
                        .parse()
                        .map_err(|_| err("invalid .numvars value".into()))?;
                    if v == 0 {
                        return Err(err(".numvars must be positive".into()));
                    }
                    numvars = Some(v);
                }
                "variables" => {
                    for (i, name) in parts.enumerate() {
                        variables.insert(name.to_string(), i);
                    }
                }
                // Metadata headers that do not affect the unitary.
                "inputs" | "outputs" | "constants" | "garbage" | "inputbus" | "outputbus"
                | "state" | "module" | "define" => {}
                "begin" => in_body = true,
                "end" => {
                    in_body = false;
                    ended = true;
                }
                other => return Err(err(format!("unknown header '.{other}'"))),
            }
            continue;
        }
        if !in_body {
            return Err(err(format!("gate line '{line}' outside .begin/.end")));
        }
        let n = numvars.ok_or_else(|| err(".numvars must precede the gate list".into()))?;

        let mut parts = line.split_whitespace();
        let gate_ty = parts.next().expect("non-empty line");
        let mut pos_qubits: Vec<usize> = Vec::new();
        let mut negated: Vec<usize> = Vec::new();
        for token in parts {
            let (neg, name) = match token.strip_prefix('-') {
                Some(stripped) => (true, stripped),
                None => (false, token),
            };
            let q = resolve_variable(&variables, name, n)
                .ok_or_else(|| err(format!("unknown variable '{name}'")))?;
            if q >= n {
                return Err(err(format!("variable '{name}' exceeds .numvars {n}")));
            }
            if pos_qubits.contains(&q) {
                return Err(err(format!("variable '{name}' appears twice in one gate")));
            }
            if neg {
                negated.push(q);
            }
            pos_qubits.push(q);
        }
        let lowered = lower_gate(gate_ty, &pos_qubits, &negated).map_err(err)?;
        gates.extend(lowered);
    }

    let n = numvars.ok_or(ParseRealError {
        message: "missing .numvars header".into(),
        line: 0,
    })?;
    let mut circuit = Circuit::new(n);
    for g in gates {
        circuit.try_push(g).map_err(|e| ParseRealError {
            message: e.to_string(),
            line: 0,
        })?;
    }
    Ok(circuit)
}

/// The line a gate operand names: a declared variable or, when there is
/// no `.variables` line, RevLib's default name `x<i>` for `i < n` —
/// resolved arithmetically, so a huge `.numvars` costs nothing.
fn resolve_variable(variables: &HashMap<String, usize>, name: &str, n: usize) -> Option<usize> {
    if !variables.is_empty() {
        return variables.get(name).copied();
    }
    let digits = name.strip_prefix('x')?;
    let i: usize = digits.parse().ok()?;
    // Only the canonical spelling `x{i}` names line `i` (not `x01`, `x+1`).
    (i < n && i.to_string() == digits).then_some(i)
}

/// Lowers one `.real` gate line to workspace gates, wrapping X conjugation
/// around negative controls.
fn lower_gate(gate_ty: &str, qubits: &[usize], negated: &[usize]) -> Result<Vec<Gate>, String> {
    let core: Vec<Gate> = match gate_ty {
        t if t.starts_with('t') => {
            let k: usize = t[1..]
                .parse()
                .map_err(|_| format!("invalid Toffoli arity in '{t}'"))?;
            if qubits.len() != k {
                return Err(format!("'{t}' expects {k} lines, got {}", qubits.len()));
            }
            let (controls, target) = qubits.split_at(k - 1);
            if negated.contains(&target[0]) {
                return Err("the Toffoli target line cannot be negated".into());
            }
            if controls.is_empty() {
                vec![Gate::single(GateKind::X, target[0])]
            } else {
                vec![Gate::controlled(GateKind::X, controls.to_vec(), target[0])]
            }
        }
        f if f.starts_with('f') => {
            let k: usize = f[1..]
                .parse()
                .map_err(|_| format!("invalid Fredkin arity in '{f}'"))?;
            if qubits.len() != k || k < 2 {
                return Err(format!("'{f}' expects {k} ≥ 2 lines, got {}", qubits.len()));
            }
            let (controls, targets) = qubits.split_at(k - 2);
            if negated.contains(&targets[0]) || negated.contains(&targets[1]) {
                return Err("Fredkin target lines cannot be negated".into());
            }
            if controls.is_empty() {
                vec![Gate::swap(targets[0], targets[1])]
            } else {
                vec![Gate::controlled_swap(
                    controls.to_vec(),
                    targets[0],
                    targets[1],
                )]
            }
        }
        "p" | "p'" | "pi" => {
            // Peres(a, b, c) = CCX(a,b,c) · CX(a,b); inverse in reverse.
            if qubits.len() != 3 {
                return Err(format!("Peres expects 3 lines, got {}", qubits.len()));
            }
            if !negated.is_empty() {
                return Err("negative controls on Peres gates are not supported".into());
            }
            let (a, b, c) = (qubits[0], qubits[1], qubits[2]);
            let ccx = Gate::controlled(GateKind::X, vec![a, b], c);
            let cx = Gate::controlled(GateKind::X, vec![a], b);
            if gate_ty == "p" {
                vec![ccx, cx]
            } else {
                vec![cx, ccx]
            }
        }
        "v" | "v+" => {
            // Controlled √X (or its inverse) — last line is the target.
            if qubits.len() < 2 {
                return Err(format!("'{gate_ty}' expects at least 2 lines"));
            }
            let (controls, target) = qubits.split_at(qubits.len() - 1);
            if negated.contains(&target[0]) {
                return Err("the V target line cannot be negated".into());
            }
            let kind = if gate_ty == "v" {
                GateKind::Sx
            } else {
                GateKind::Sxdg
            };
            vec![Gate::controlled(kind, controls.to_vec(), target[0])]
        }
        other => return Err(format!("unknown gate type '{other}'")),
    };
    if negated.is_empty() {
        return Ok(core);
    }
    // Conjugate with X on each negated control line.
    let mut out: Vec<Gate> = negated
        .iter()
        .map(|&q| Gate::single(GateKind::X, q))
        .collect();
    out.extend(core);
    out.extend(negated.iter().map(|&q| Gate::single(GateKind::X, q)));
    Ok(out)
}

/// Serializes a reversible circuit in RevLib `.real` format.
///
/// Supported gates: (multi-controlled) X → `t<k>`, (controlled) SWAP →
/// `f<k>`, and controlled √X / √X† → `v` / `v+`.
///
/// # Errors
///
/// Returns [`WriteRealError`] if the circuit contains a gate the format
/// cannot express (rotations, Hadamards, …) — `.real` describes classical
/// reversible netlists.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qcirc::real::WriteRealError> {
/// let mut c = qcirc::Circuit::new(3);
/// c.x(0).cx(0, 1).ccx(0, 1, 2);
/// let text = qcirc::real::write(&c)?;
/// let back = qcirc::real::parse(&text).expect("round-trip");
/// assert_eq!(back.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn write(circuit: &Circuit) -> Result<String, WriteRealError> {
    use std::fmt::Write as _;
    let n = circuit.n_qubits();
    let var = |q: usize| format!("x{q}");
    let mut out = String::new();
    out.push_str("# generated by qcirc\n.version 1.0\n");
    let _ = writeln!(out, ".numvars {n}");
    let names: Vec<String> = (0..n).map(var).collect();
    let _ = writeln!(out, ".variables {}", names.join(" "));
    out.push_str(".begin\n");
    for gate in circuit.gates() {
        let controls: Vec<String> = gate.controls().iter().map(|&q| var(q)).collect();
        let line = match gate.kind() {
            GateKind::X => {
                let k = controls.len() + 1;
                format!("t{k} {} {}", controls.join(" "), var(gate.target()))
            }
            GateKind::Swap => {
                let k = controls.len() + 2;
                format!(
                    "f{k} {} {} {}",
                    controls.join(" "),
                    var(gate.targets()[0]),
                    var(gate.targets()[1])
                )
            }
            GateKind::Sx if !controls.is_empty() => {
                format!("v {} {}", controls.join(" "), var(gate.target()))
            }
            GateKind::Sxdg if !controls.is_empty() => {
                format!("v+ {} {}", controls.join(" "), var(gate.target()))
            }
            _ => {
                return Err(WriteRealError {
                    gate: gate.to_string(),
                })
            }
        };
        // Collapse double spaces from empty control lists.
        let _ = writeln!(
            out,
            "{}",
            line.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    out.push_str(".end\n");
    Ok(out)
}

/// Error returned by [`write()`] for gates outside the `.real` gate set.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRealError {
    /// Rendering of the unsupported gate.
    pub gate: String,
}

impl fmt::Display for WriteRealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate '{}' has no .real representation (the format covers Toffoli/Fredkin/V netlists)",
            self.gate
        )
    }
}

impl std::error::Error for WriteRealError {}

/// Reads and parses a RevLib `.real` file.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`ParseRealError`] if the contents do not parse.
pub fn parse_file(
    path: impl AsRef<std::path::Path>,
) -> Result<Circuit, Box<dyn std::error::Error + Send + Sync>> {
    let source = std::fs::read_to_string(path.as_ref())?;
    Ok(parse(&source)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_toffoli_network() {
        let src = "\
.version 1.0
.numvars 3
.variables a b c
.constants ---
.garbage ---
.begin
t1 c
t2 a c
t3 a b c
.end";
        let c = parse(src).unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[0].to_string(), "x q[2]");
        assert_eq!(c.gates()[1].to_string(), "cx q[0], q[2]");
        assert_eq!(c.gates()[2].to_string(), "ccx q[0], q[1], q[2]");
    }

    #[test]
    fn default_variable_names() {
        let src = ".numvars 2\n.begin\nt2 x0 x1\n.end";
        let c = parse(src).unwrap();
        assert_eq!(c.gates()[0].to_string(), "cx q[0], q[1]");
        for name in ["x2", "x01", "x+1", "x", "y0"] {
            let e = parse(&format!(".numvars 2\n.begin\nt1 {name}\n.end")).unwrap_err();
            assert!(e.to_string().contains("unknown variable"), "{name}: {e}");
        }
        // Default names are never materialised: a huge register is free.
        let c = parse(".numvars 1000000000000\n.begin\nt1 x0\n.end").unwrap();
        assert_eq!((c.n_qubits(), c.len()), (1_000_000_000_000, 1));
    }

    #[test]
    fn fredkin_and_peres() {
        let src = "\
.numvars 3
.variables a b c
.begin
f3 a b c
p a b c
p' a b c
.end";
        let c = parse(src).unwrap();
        assert_eq!(c.gates()[0].to_string(), "cswap q[0], q[1], q[2]");
        // Peres expands to two gates, inverse Peres to two more.
        assert_eq!(c.len(), 5);
        assert_eq!(c.gates()[1].to_string(), "ccx q[0], q[1], q[2]");
        assert_eq!(c.gates()[2].to_string(), "cx q[0], q[1]");
        assert_eq!(c.gates()[3].to_string(), "cx q[0], q[1]");
        assert_eq!(c.gates()[4].to_string(), "ccx q[0], q[1], q[2]");
    }

    #[test]
    fn v_gates() {
        let src = ".numvars 2\n.variables a b\n.begin\nv a b\nv+ a b\n.end";
        let c = parse(src).unwrap();
        assert_eq!(c.gates()[0].to_string(), "csx q[0], q[1]");
        assert_eq!(c.gates()[1].to_string(), "csxdg q[0], q[1]");
    }

    #[test]
    fn negative_controls_are_conjugated() {
        let src = ".numvars 2\n.variables a b\n.begin\nt2 -a b\n.end";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[0].to_string(), "x q[0]");
        assert_eq!(c.gates()[1].to_string(), "cx q[0], q[1]");
        assert_eq!(c.gates()[2].to_string(), "x q[0]");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "# a comment\n.numvars 1\n\n.begin\nt1 x0 # inline\n.end\n";
        let c = parse(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = parse(".numvars 2\n.begin\nq9 x0\n.end").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("unknown gate type"));
        let e = parse(".numvars 1\n.begin\nt1 zz\n.end").unwrap_err();
        assert!(e.to_string().contains("unknown variable"));
        let e = parse(".begin\nt1 x0\n.end").unwrap_err();
        assert!(e.to_string().contains(".numvars"));
        let e = parse("t1 x0").unwrap_err();
        assert!(e.to_string().contains("outside"));
        for gate in ["t2 a a", "f2 b b", "t3 a -a b"] {
            let e =
                parse(&format!(".numvars 2\n.variables a b\n.begin\n{gate}\n.end")).unwrap_err();
            assert_eq!(e.line, 4, "{gate}");
            assert!(e.to_string().contains("appears twice"), "{gate}: {e}");
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = parse(".numvars 3\n.begin\nt3 x0 x1\n.end").unwrap_err();
        assert!(e.to_string().contains("expects 3"));
    }

    #[test]
    fn writer_roundtrips_toffoli_networks() {
        let c = crate::generators::toffoli_network(6, 40, 4, 5);
        let text = write(&c).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back.n_qubits(), c.n_qubits());
        assert_eq!(back.len(), c.len());
        for (a, b) in c.gates().iter().zip(back.gates()) {
            assert!(a.approx_eq(b), "{a} vs {b}");
        }
    }

    #[test]
    fn writer_covers_fredkin_and_v() {
        let mut c = Circuit::new(3);
        c.swap(0, 1).cswap(2, 0, 1);
        c.push(Gate::controlled(GateKind::Sx, vec![0], 2));
        c.push(Gate::controlled(GateKind::Sxdg, vec![1], 2));
        let text = write(&c).unwrap();
        assert!(text.contains("f2 x0 x1"));
        assert!(text.contains("f3 x2 x0 x1"));
        assert!(text.contains("v x0 x2"));
        assert!(text.contains("v+ x1 x2"));
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), c.len());
    }

    #[test]
    fn writer_rejects_non_reversible_gates() {
        let mut c = Circuit::new(1);
        c.h(0);
        let e = write(&c).unwrap_err();
        assert!(e.to_string().contains("no .real representation"));
    }
}

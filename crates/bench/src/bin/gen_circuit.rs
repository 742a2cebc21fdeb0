//! Emits a named generator circuit as OpenQASM on stdout — the fixture
//! factory for CI smokes that need registers too large to check into the
//! repository as literal files (e.g. the 32-qubit adder behind the
//! tensor-network large-n smoke).
//!
//! ```text
//! gen_circuit <family> <size> [--optimize] [--route <rows>x<cols>]
//! families: ghz | qft | clifford_adder | cuccaro_adder
//! ```
//!
//! `<size>` is the family's natural parameter (qubits for ghz/qft, operand
//! width for the adders — `clifford_adder(k)` acts on `2k + 2` qubits).
//! `--optimize` runs the exact optimizer first, so a golden/alternative
//! pair is two invocations apart. `--route` then lowers the circuit to
//! `{1q, CX}` and routes it onto a `rows × cols` grid with the layout
//! restored (a mapped design-flow output; the grid must have exactly the
//! circuit's qubit count for the pair to be checkable).

use std::process::exit;

use qcirc::mapping::CouplingMap;

fn usage() -> ! {
    eprintln!(
        "usage: gen_circuit <family> <size> [--optimize] [--route <rows>x<cols>]\n\
         families: ghz | qft | clifford_adder | cuccaro_adder"
    );
    exit(2);
}

/// Parses `<rows>x<cols>` with both sides positive.
fn grid(spec: &str) -> Option<CouplingMap> {
    let (rows, cols) = spec.split_once('x')?;
    let (rows, cols): (usize, usize) = (rows.parse().ok()?, cols.parse().ok()?);
    (rows > 0 && cols > 0).then(|| CouplingMap::grid(rows, cols))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(family), Some(size)) = (args.next(), args.next()) else {
        usage()
    };
    let (mut optimize, mut device) = (false, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--optimize" => optimize = true,
            "--route" => {
                device = Some(
                    args.next()
                        .as_deref()
                        .and_then(grid)
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    let size: usize = size.parse().unwrap_or_else(|_| usage());
    let mut circuit = match family.as_str() {
        "ghz" => qcirc::generators::ghz(size),
        "qft" => qcirc::generators::qft(size, true),
        "clifford_adder" => qcirc::generators::clifford_adder(size),
        "cuccaro_adder" => qcirc::generators::cuccaro_adder(size),
        _ => usage(),
    };
    if optimize {
        circuit = qcirc::optimize::optimize(&circuit);
    }
    if let Some(device) = device {
        circuit = match bench::mapped(&circuit, &device) {
            Ok(routed) => routed,
            Err(e) => {
                eprintln!("gen_circuit: {e}");
                exit(2);
            }
        };
    }
    print!("{}", qcirc::qasm::write(&circuit));
}

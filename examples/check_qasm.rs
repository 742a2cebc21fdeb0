//! `check_qasm` — a command-line equivalence checker for OpenQASM files,
//! the user-facing tool the paper's flow powers.
//!
//! ```text
//! usage: check_qasm [options] <a.qasm> <b.qasm>
//!   --sims <r>        random simulations before the complete check (default 10)
//!   --seed <s>        RNG seed (default 0)
//!   --deadline <sec>  budget for the complete check (default unbounded)
//!   --backend sv|dd|stab|mps|auto
//!                     simulation backend (default sv; dd for > 24 qubits,
//!                     stab for Clifford-dominated pairs, mps past the
//!                     dense wall, auto to pick per pair)
//!   --scheme sequential|onetoone|proportional|gatecost
//!                     gate-application scheme of the alternating complete
//!                     check (default proportional)
//!   --peel            strip the shared Clifford prefix/suffix first
//!   --strict          require exact equality (no global-phase allowance)
//!   --sim-only        skip the complete check (report probably-equivalent)
//!   --csv             print a CSV row instead of prose
//! ```
//!
//! Exit code: 0 = equivalent (proven), 1 = not equivalent, 2 = probably
//! equivalent (unproven), 64 = usage/parse error.
//!
//! Run with `cargo run --release -p qcec-examples --bin check_qasm -- a.qasm b.qasm`.

use std::process::ExitCode;
use std::time::Duration;

use qcec::{ApplicationScheme, BackendKind, Config, Criterion, Fallback, Outcome};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("check_qasm: {message}");
            ExitCode::from(64)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut config = Config::new();
    let mut csv = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sims" => {
                let v = args.next().ok_or("--sims needs a value")?;
                config = config.with_simulations(v.parse().map_err(|_| "bad --sims value")?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                config = config.with_seed(v.parse().map_err(|_| "bad --seed value")?);
            }
            "--deadline" => {
                let v = args.next().ok_or("--deadline needs a value")?;
                let secs: u64 = v.parse().map_err(|_| "bad --deadline value")?;
                config = config.with_deadline(Some(Duration::from_secs(secs)));
            }
            "--backend" => {
                let v = args.next().ok_or("--backend needs a value")?;
                config = config.with_backend(BackendKind::parse(&v)?);
            }
            "--scheme" => {
                let v = args.next().ok_or("--scheme needs a value")?;
                config = config.with_scheme(ApplicationScheme::parse(&v)?);
            }
            "--peel" => config = config.with_peel(true),
            "--strict" => config = config.with_criterion(Criterion::Strict),
            "--sim-only" => config = config.with_fallback(Fallback::None),
            "--csv" => csv = true,
            "--help" | "-h" => {
                println!(
                    "usage: check_qasm [options] <a.qasm> <b.qasm> (see --help header in source)"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            file => files.push(file.to_string()),
        }
    }
    let [file_a, file_b] = files.as_slice() else {
        return Err("expected exactly two .qasm files (try --help)".into());
    };

    let g = load(file_a)?;
    let g_prime = load(file_b)?;
    // Widen the smaller register: trailing idle qubits are ancillas.
    let n = g.n_qubits().max(g_prime.n_qubits());
    let g = g.widened(n);
    let g_prime = g_prime.widened(n);

    // Statevector memory guard: beyond ~26 qubits suggest the DD backend.
    if config.backend == BackendKind::Statevector && n > 26 {
        return Err(format!(
            "{n} qubits is too large for the statevector backend; pass --backend dd \
             (or --backend stab for Clifford-dominated pairs)"
        ));
    }

    let result = qcec::check_equivalence(&g, &g_prime, &config).map_err(|e| e.to_string())?;
    if csv {
        let mut report = qcec::report::Report::new();
        report.push(
            format!("{file_a} vs {file_b}"),
            n,
            g.len(),
            g_prime.len(),
            result.clone(),
        );
        print!("{}", report.to_csv());
    } else {
        println!("G  = {file_a} ({} qubits, {} gates)", g.n_qubits(), g.len());
        println!(
            "G' = {file_b} ({} qubits, {} gates)",
            g_prime.n_qubits(),
            g_prime.len()
        );
        println!("{result}");
    }
    Ok(match result.outcome {
        Outcome::Equivalent | Outcome::EquivalentUpToGlobalPhase { .. } => ExitCode::SUCCESS,
        Outcome::NotEquivalent { .. } => ExitCode::from(1),
        Outcome::ProbablyEquivalent { .. } => ExitCode::from(2),
    })
}

fn load(path: &str) -> Result<qcirc::Circuit, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if path.ends_with(".real") {
        qcirc::real::parse(&source).map_err(|e| format!("{path}: {e}"))
    } else {
        // Lenient parsing: real benchmark files end in measurements; the
        // equivalence check runs on the unitary prefix.
        let parsed = qcirc::qasm::parse_lenient(&source).map_err(|e| format!("{path}: {e}"))?;
        if !parsed.measurements.is_empty() {
            eprintln!(
                "note: {path}: stripped {} final measurement(s); checking the unitary part",
                parsed.measurements.len()
            );
        }
        for note in &parsed.skipped {
            eprintln!("note: {path}: {note}");
        }
        Ok(parsed.circuit)
    }
}

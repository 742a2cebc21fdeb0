//! Benchmarks of the alternating complete check on routed pairs.
//!
//! `functional_routed` times the whole functional stage
//! (`qcec::run_functional_check`) on mapped pairs, whose SWAPs the stage
//! elides before the alternating check runs.

use criterion::{criterion_group, criterion_main, Criterion};
use qcec::{BackendKind, Config};
use qcirc::decompose::decompose_to_cx_and_single_qubit;
use qcirc::generators;
use qcirc::mapping::CouplingMap;

/// Routed GHZ-48 on a 6×8 grid (the `wide_auto` benchmark pair), routed
/// QFT-12 on a line against the logical circuit on both engines, the
/// routed QFT-12 against its SWAPs lowered to three CXs each (checked as
/// given: both sides exchange the same wires), and, on the MPO, the routed
/// QFT-12 with a cancelling SWAP·SWAP in its middle against its optimized
/// copy (only that pair is elided).
fn bench_functional_routed(c: &mut Criterion) {
    let ghz = generators::ghz(48);
    let ghz_routed = bench::mapped(&ghz, &CouplingMap::grid(6, 8)).expect("48 qubits fit");
    let qft = generators::qft(12, true);
    let qft_routed = bench::mapped(&qft, &CouplingMap::linear(12)).expect("12 qubits fit");
    let qft_lowered = decompose_to_cx_and_single_qubit(&qft_routed);
    let mut qft_padded = qft_routed.clone();
    for _ in 0..2 {
        qft_padded.insert(qft_routed.len() / 2, qcirc::Gate::swap(5, 6));
    }
    let qft_opt = qcirc::optimize::optimize(&qft_padded);
    let dd = Config::default();
    let mps = Config::default().with_backend(BackendKind::Mps);
    let cases = [
        ("ghz48_grid/dd", &ghz, &ghz_routed, &dd),
        ("qft12_line/dd", &qft, &qft_routed, &dd),
        ("qft12_line/mps", &qft, &qft_routed, &mps),
        ("qft12_line_vs_lowered/dd", &qft_routed, &qft_lowered, &dd),
        ("qft12_line_padded_vs_opt/mps", &qft_padded, &qft_opt, &mps),
    ];
    let mut group = c.benchmark_group("functional_routed");
    for (name, g, g_prime, config) in cases {
        group.bench_function(name, |b| {
            b.iter(|| qcec::run_functional_check(g, g_prime, config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_functional_routed);
criterion_main!(benches);

//! Application-scheme benchmarks of the alternating complete check.
//!
//! Every scheme decides the same question — interleave gates of `G` and
//! `G'⁻¹` so the working diagram `U'† · U` stays close to the identity —
//! but with different information: `sequential` ignores `G'` entirely,
//! `onetoone` balances raw gate counts, `proportional` balances gate-count
//! *fractions*, and `gatecost` balances elementary-gate cost fractions.
//! The pairs below are chosen so the policies genuinely diverge: an
//! optimized pair (near 1:1 gate counts) and a decomposed adder (one
//! Toffoli-level gate on the left expands to many elementary gates on the
//! right).
//!
//! `functional_routed` times the whole functional stage
//! (`qcec::run_functional_check`) on mapped pairs, whose SWAPs the stage
//! elides before the alternating check runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcec::{BackendKind, Config};
use qcirc::decompose::decompose_to_cx_and_single_qubit;
use qcirc::generators;
use qcirc::mapping::CouplingMap;
use qdd::{ApplicationScheme, Package};

/// Compiled pairs exercising different gate-count ratios: `qft` after the
/// exact optimizer (counts shrink moderately) and the Cuccaro adder after
/// dirty-ancilla decomposition (counts explode on one side — the regime
/// the lookahead schemes are built for).
fn pairs() -> Vec<(&'static str, qcirc::Circuit, qcirc::Circuit)> {
    let qft = generators::qft(8, true);
    let qft_opt = qcirc::optimize::optimize(&qft);

    let adder = generators::cuccaro_adder(2);
    let lowered = qcirc::decompose::decompose_with_dirty_ancillas(&adder);
    let adder = adder.widened(lowered.n_qubits());

    vec![
        ("qft8_optimized", qft, qft_opt),
        ("adder6_decomposed", adder, lowered),
    ]
}

fn bench_alternating_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("alternating_scheme");
    for (name, g, g_prime) in pairs() {
        for scheme in ApplicationScheme::ALL {
            group.bench_with_input(
                BenchmarkId::new(scheme.slug(), name),
                &(&g, &g_prime),
                |b, (g, g_prime)| {
                    b.iter_batched(
                        || Package::new(g.n_qubits()),
                        |mut p| {
                            let budget = qdd::Budget::new(None);
                            qdd::check_equivalence_alternating(&mut p, g, g_prime, &budget, scheme)
                                .unwrap()
                        },
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

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

criterion_group!(benches, bench_alternating_scheme, bench_functional_routed);
criterion_main!(benches);

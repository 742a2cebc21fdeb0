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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcirc::generators;
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

criterion_group!(benches, bench_alternating_scheme);
criterion_main!(benches);

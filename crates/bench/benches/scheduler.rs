//! Scheduler benchmarks: one worker against 2/4/8-worker pools on an
//! equivalent and a non-equivalent pair. Parallel speed-up on the
//! simulation stage, cancellation payoff on the counterexample case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcec::{Config, Fallback};
use qcirc::generators;

/// A pair big enough (14 qubits) that one simulation costs real work and
/// the pool has something to parallelise.
fn equivalent_pair() -> (qcirc::Circuit, qcirc::Circuit) {
    let g = generators::qft(14, true);
    let optimized = qcirc::optimize::optimize(&g);
    (g, optimized)
}

fn non_equivalent_pair() -> (qcirc::Circuit, qcirc::Circuit) {
    let (g, optimized) = equivalent_pair();
    let mut buggy = optimized;
    // A controlled error: only 1/8 of the columns differ, so several
    // stimuli typically run before the counterexample — the case where
    // cancellation of in-flight work matters.
    buggy.ccx(0, 1, 9);
    (g, buggy)
}

fn bench_worker_sweep(c: &mut Criterion) {
    let (g, g_prime) = equivalent_pair();
    let mut group = c.benchmark_group("scheduler_equivalent_sims");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                // Simulation stage only: the DD fallback would dominate
                // and is identical across worker counts.
                let config = Config::new()
                    .with_simulations(32)
                    .with_threads(threads)
                    .with_fallback(Fallback::None);
                b.iter(|| qcec::check_equivalence(&g, &g_prime, &config).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_counterexample_sweep(c: &mut Criterion) {
    let (g, buggy) = non_equivalent_pair();
    let mut group = c.benchmark_group("scheduler_counterexample");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let config = Config::new()
                    .with_simulations(32)
                    .with_seed(5)
                    .with_threads(threads)
                    .with_fallback(Fallback::None);
                b.iter(|| {
                    let result = qcec::check_equivalence(&g, &buggy, &config).unwrap();
                    assert!(result.outcome.is_not_equivalent());
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_worker_sweep, bench_counterexample_sweep);
criterion_main!(benches);

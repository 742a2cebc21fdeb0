//! Micro-benchmarks of the statevector gate kernels (experiment MB), on
//! one state vector. The `kernel_short_runs` group covers gates whose
//! contiguous runs are shorter than a vector register, which the kernels
//! walk in scalar code.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qnum::Matrix2;
use qsim::kernels;

fn random_state(n: usize) -> Vec<qnum::Complex> {
    let dim = 1usize << n;
    let norm = 1.0 / (dim as f64).sqrt();
    (0..dim)
        .map(|i| qnum::Complex::from_polar(norm, i as f64 * 0.37))
        .collect()
}

fn bench_single_qubit_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_hadamard");
    for n in [10usize, 14, 18] {
        let amps = random_state(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let h = Matrix2::hadamard();
            b.iter_batched(
                || amps.clone(),
                |mut a| kernels::apply_controlled_single(&mut a, 0, n / 2, &h),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_diagonal_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_rz_vs_u3");
    let n = 16;
    let amps = random_state(n);
    let rz = Matrix2::rz(0.3);
    group.bench_function("rz_diagonal", |b| {
        b.iter_batched(
            || amps.clone(),
            |mut a| kernels::apply_controlled_single(&mut a, 0, 8, &rz),
            criterion::BatchSize::LargeInput,
        );
    });
    let u3 = Matrix2::u3(0.3, 0.2, 0.1);
    group.bench_function("u3_general", |b| {
        b.iter_batched(
            || amps.clone(),
            |mut a| kernels::apply_controlled_single(&mut a, 0, 8, &u3),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_controlled_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_cx");
    let n = 16;
    let amps = random_state(n);
    let x = Matrix2::pauli_x();
    group.bench_function("cx", |b| {
        b.iter_batched(
            || amps.clone(),
            |mut a| kernels::apply_controlled_single(&mut a, 1 << 3, 8, &x),
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("swap", |b| {
        b.iter_batched(
            || amps.clone(),
            |mut a| kernels::apply_controlled_swap(&mut a, 0, 3, 8),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Runs of one and two amplitudes: Hadamard on targets 0 and 1, and CX
/// whose control on qubit 0 splits every run to a single amplitude.
fn bench_short_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_short_runs");
    let n = 16;
    let amps = random_state(n);
    let h = Matrix2::hadamard();
    for target in [0usize, 1] {
        group.bench_function(format!("h_t{target}"), |b| {
            b.iter_batched(
                || amps.clone(),
                |mut a| kernels::apply_controlled_single(&mut a, 0, target, &h),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    let x = Matrix2::pauli_x();
    group.bench_function("cx_c0_t8", |b| {
        b.iter_batched(
            || amps.clone(),
            |mut a| kernels::apply_controlled_single(&mut a, 1, 8, &x),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_qubit_kernel,
    bench_diagonal_fast_path,
    bench_controlled_kernel,
    bench_short_runs
);
criterion_main!(benches);

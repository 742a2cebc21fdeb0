//! Micro-benchmarks of the decision-diagram package (experiment MB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcirc::generators;
use qdd::Package;

fn bench_gate_dd_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_gate_construction");
    for n in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let gate = qcirc::Gate::controlled(qcirc::GateKind::X, vec![0, n - 1], n / 2);
            b.iter_batched(
                || Package::new(n),
                |mut p| p.gate_medge(&gate).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_circuit_dd(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_circuit_matrix");
    for n in [6usize, 8, 10] {
        let circuit = generators::qft(n, false);
        group.bench_with_input(BenchmarkId::new("qft", n), &circuit, |b, circuit| {
            b.iter_batched(
                || Package::new(circuit.n_qubits()),
                |mut p| {
                    p.circuit_medge(circuit, &qdd::Budget::new(None), &mut [])
                        .unwrap()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_dd_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_simulation");
    for n in [16usize, 32, 48] {
        let circuit = generators::qft(n, false);
        group.bench_with_input(BenchmarkId::new("qft_basis0", n), &circuit, |b, circuit| {
            b.iter_batched(
                || Package::new(circuit.n_qubits()),
                |mut p| p.apply_to_basis(circuit, 0).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_alternating_vs_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_ec_scheme");
    let g = generators::qft(8, true);
    let routed =
        qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::linear(8)).circuit;
    group.bench_function("alternating", |b| {
        b.iter_batched(
            || Package::new(8),
            |mut p| {
                let budget = qdd::Budget::new(None);
                let scheme = qdd::ApplicationScheme::default();
                qdd::check_equivalence_alternating(&mut p, &g, &routed, &budget, scheme).unwrap()
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("construct", |b| {
        b.iter_batched(
            || Package::new(8),
            |mut p| {
                let budget = qdd::Budget::new(None);
                qdd::check_equivalence_construct(&mut p, &g, &routed, &budget).unwrap()
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_dd_construction,
    bench_circuit_dd,
    bench_dd_simulation,
    bench_alternating_vs_construct
);
criterion_main!(benches);

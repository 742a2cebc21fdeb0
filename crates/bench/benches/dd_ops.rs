//! Micro-benchmarks of the decision-diagram package (experiment MB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcirc::{generators, optimize, Circuit};
use qdd::{Budget, DdBackend, Package};

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
                |mut p| p.circuit_medge(circuit, &qdd::Budget::new(None)).unwrap(),
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

/// `wide_auto`'s QFT pair: QFT-n against its optimized form plus one
/// cancelling H·H per qubit.
fn qft_pair(n: usize) -> (Circuit, Circuit) {
    let g = generators::qft(n, false);
    let mut alt = optimize::optimize(&g);
    for q in 0..n {
        alt.h(q).h(q);
    }
    (g, alt)
}

/// Ten DD probes of `wide_auto`'s three DD pairs (QFT-20 and QFT-24 as in
/// [`qft_pair`], the 26-qubit Cuccaro adder against its `{1q, CX}`
/// lowering), peeled as the flow peels them, on ten fixed basis states
/// spread over the register. Each iteration probes in a fresh package, as
/// a scheduler worker does for each pair, so the time includes building
/// the pair's gate DDs once.
fn bench_dd_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_probe");
    let adder = generators::cuccaro_adder(12);
    let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&adder);
    let pairs = [
        ("qft_ten_probes/20", qft_pair(20)),
        ("qft_ten_probes/24", qft_pair(24)),
        ("cuccaro_ten_probes/26", (adder, lowered)),
    ];
    let engine = DdBackend::new();
    for (id, (g, alt)) in pairs {
        let peeled = qcec::peel::peel(&g, &alt);
        let (g, alt) = (peeled.g, peeled.g_prime);
        let n = g.n_qubits();
        group.bench_function(id, |b| {
            b.iter_batched(
                || Package::with_node_limit(n, engine.node_limit()),
                |mut package| {
                    for k in 1..=10u64 {
                        let basis = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n);
                        let run = engine
                            .probe_in(&mut package, &g, &alt, None, basis, &|| true)
                            .unwrap()
                            .expect("never cancelled");
                        criterion::black_box(run.overlap);
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// One alternating complete check of the QFT pair in a fresh package.
fn bench_dd_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_check");
    for n in [20usize, 24] {
        let (g, alt) = qft_pair(n);
        group.bench_function(BenchmarkId::new("qft_alternating", n), |b| {
            b.iter_batched(
                || Package::new(n),
                |mut p| {
                    qdd::check_equivalence_alternating(&mut p, &g, &alt, &Budget::new(None))
                        .unwrap()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_dd_construction,
    bench_circuit_dd,
    bench_dd_simulation,
    bench_dd_probe,
    bench_dd_check
);
criterion_main!(benches);

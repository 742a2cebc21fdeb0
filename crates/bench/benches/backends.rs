//! Ablation: statevector vs decision-diagram simulation backends
//! (design-choice 1 of DESIGN.md).
//!
//! Statevector simulation is `O(2ⁿ)` regardless of structure; DD simulation
//! is exponentially compact on structured states (GHZ, QFT-of-basis) but
//! can degrade on unstructured ones (supremacy-style).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcec::backend::{SimBackend, StatevectorBackend};
use qcec::Stimulus;
use qcirc::generators;
use qsim::Simulator;

fn bench_structured_circuits(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_structured");
    for n in [12usize, 16] {
        let ghz = generators::ghz(n);
        group.bench_with_input(BenchmarkId::new("statevector_ghz", n), &ghz, |b, circ| {
            let sim = Simulator::new();
            b.iter(|| sim.run_basis(circ, 0));
        });
        group.bench_with_input(BenchmarkId::new("dd_ghz", n), &ghz, |b, circ| {
            b.iter_batched(
                || qdd::Package::new(circ.n_qubits()),
                |mut p| p.apply_to_basis(circ, 0).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
        let qft = generators::qft(n, false);
        group.bench_with_input(BenchmarkId::new("statevector_qft", n), &qft, |b, circ| {
            let sim = Simulator::new();
            b.iter(|| sim.run_basis(circ, 1));
        });
        group.bench_with_input(BenchmarkId::new("dd_qft", n), &qft, |b, circ| {
            b.iter_batched(
                || qdd::Package::new(circ.n_qubits()),
                |mut p| p.apply_to_basis(circ, 1).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_unstructured_circuits(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_unstructured");
    group.sample_size(10);
    let sup = generators::supremacy_2d(3, 4, 8, 7);
    group.bench_function("statevector_supremacy_3x4", |b| {
        let sim = Simulator::new();
        b.iter(|| sim.run_basis(&sup, 0));
    });
    group.bench_function("dd_supremacy_3x4", |b| {
        b.iter_batched(
            || qdd::Package::new(sup.n_qubits()),
            |mut p| p.apply_to_basis(&sup, 0).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The flow-level probe (`SimBackend::probe`): one full equivalence probe —
/// stimulus preparation plus both circuit passes plus the overlap — per
/// backend, on the structured register family the campaign's `adder 16`
/// fixture uses. This is the number EXPERIMENTS.md's backend table records.
fn bench_probe_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_probe");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        // cuccaro_adder(k) acts on 2k + 2 qubits.
        let adder = generators::cuccaro_adder((n - 2) / 2);
        let optimized = qcirc::optimize::optimize(&adder);
        let stimulus = Stimulus::Basis(1);
        group.bench_with_input(BenchmarkId::new("sv_adder", n), &adder, |b, g| {
            let backend = StatevectorBackend::new();
            let mut ws = backend.workspace(g.n_qubits());
            b.iter(|| backend.probe(g, &optimized, &stimulus, &mut ws).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("dd_adder", n), &adder, |b, g| {
            let backend = qdd::DdBackend::new();
            let mut ws = backend.workspace(g.n_qubits());
            b.iter(|| backend.probe(g, &optimized, &stimulus, &mut ws).unwrap());
        });
    }
    group.finish();
}

/// The stabilizer engine's headline: a Clifford-only probe is `O(n²)` per
/// gate in the tableau while the dense path is `O(2ⁿ)` and the DD's size
/// tracks the state's structure. Clifford-dominated Cuccaro-shaped adders
/// ([`generators::clifford_adder`]) at n = 16, 24, 32 qubits:
///
/// * `stab` runs at every width under both a basis stimulus and a random
///   stabilizer stimulus (the prefix is Clifford, so the whole probe
///   stays on the tableau path);
/// * `dd` gets the basis stimulus — its best case — and is only benched
///   to n = 24: at n = 32 the adder's diagram overflows the package;
/// * `sv` is only benched at n = 16: two dense 2²⁴ buffers are already
///   256 MiB, and 2³² cannot be allocated at all.
fn bench_stab_probe(c: &mut Criterion) {
    use qcec::StabBackend;
    use rand::{rngs::StdRng, SeedableRng};
    let mut group = c.benchmark_group("backend_stab");
    group.sample_size(10);
    for n in [16usize, 24, 32] {
        // clifford_adder(k) acts on 2k + 2 qubits.
        let adder = generators::clifford_adder((n - 2) / 2);
        let optimized = qcirc::optimize::optimize(&adder);
        let basis = Stimulus::Basis(1);
        let stab_stim = Stimulus::Stabilizer(qstab::random_stabilizer_circuit(
            n,
            &mut StdRng::seed_from_u64(n as u64),
        ));
        group.bench_with_input(BenchmarkId::new("stab_basis", n), &adder, |b, g| {
            let backend = StabBackend::new();
            let mut ws = backend.workspace(g.n_qubits());
            b.iter(|| backend.probe(g, &optimized, &basis, &mut ws).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("stab_stabilizer", n), &adder, |b, g| {
            let backend = StabBackend::new();
            let mut ws = backend.workspace(g.n_qubits());
            b.iter(|| backend.probe(g, &optimized, &stab_stim, &mut ws).unwrap());
        });
        if n <= 24 {
            group.bench_with_input(BenchmarkId::new("dd_basis", n), &adder, |b, g| {
                let backend = qdd::DdBackend::new();
                let mut ws = backend.workspace(g.n_qubits());
                b.iter(|| backend.probe(g, &optimized, &basis, &mut ws).unwrap());
            });
        }
        if n <= 16 {
            group.bench_with_input(BenchmarkId::new("sv_basis", n), &adder, |b, g| {
                let backend = StatevectorBackend::new();
                let mut ws = backend.workspace(g.n_qubits());
                b.iter(|| backend.probe(g, &optimized, &basis, &mut ws).unwrap());
            });
        }
    }
    group.finish();
}

/// The tensor-network engine past the dense wall: one full equivalence
/// probe per width on the GHZ ladder (bond dimension 2, so the default χ
/// runs exactly) plus a T layer that keeps the pair non-Clifford — the
/// workload neither the tableau fast path nor (past n ≈ 24) the dense
/// engines can take. `sv` is benched at n = 16 only as the dense anchor;
/// `mps` scales through n = 64 at memory `O(n · χ²)`.
fn bench_mps_probe(c: &mut Criterion) {
    use qcec::MpsBackend;
    let mut group = c.benchmark_group("backend_mps");
    group.sample_size(10);
    for n in [16usize, 32, 48, 64] {
        let mut ghz = generators::ghz(n);
        ghz.t(n - 1);
        let optimized = qcirc::optimize::optimize(&ghz);
        let stimulus = Stimulus::Basis(1);
        group.bench_with_input(BenchmarkId::new("mps_ghz_t", n), &ghz, |b, g| {
            let backend = MpsBackend::new(qmpo::DEFAULT_CHI_MAX);
            b.iter(|| backend.probe(g, &optimized, &stimulus, &mut ()).unwrap());
        });
        if n <= 16 {
            group.bench_with_input(BenchmarkId::new("sv_ghz_t", n), &ghz, |b, g| {
                let backend = StatevectorBackend::new();
                let mut ws = backend.workspace(g.n_qubits());
                b.iter(|| backend.probe(g, &optimized, &stimulus, &mut ws).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_structured_circuits,
    bench_unstructured_circuits,
    bench_probe_backends,
    bench_stab_probe,
    bench_mps_probe
);
criterion_main!(benches);

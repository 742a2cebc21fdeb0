//! End-to-end flow benchmarks: the proposed simulation-first flow against
//! the sole DD equivalence check, on equivalent and non-equivalent pairs
//! (the runtime comparison behind Table I).

use criterion::{criterion_group, criterion_main, Criterion};
use qcec::{Config, Fallback};
use qcirc::generators;
use qfault::Mutator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn design_flow_pair() -> (qcirc::Circuit, qcirc::Circuit) {
    let g = generators::trotter_heisenberg(2, 4, 2, 0.1, 0.5);
    let routed =
        qcirc::mapping::route_or_panic(&g, &qcirc::mapping::CouplingMap::grid(2, 4)).circuit;
    (g.widened(routed.n_qubits()), routed)
}

fn bench_non_equivalent(c: &mut Criterion) {
    let (g, alt) = design_flow_pair();
    let mut rng = StdRng::seed_from_u64(99);
    let (buggy, _) = qfault::RemoveGate.apply(&alt, &mut rng).unwrap();
    let mut group = c.benchmark_group("flow_non_equivalent");
    group.bench_function("simulation_flow", |b| {
        let config = Config::new().with_fallback(Fallback::None);
        b.iter(|| qcec::check_equivalence(&g, &buggy, &config).unwrap());
    });
    group.bench_function("dd_ec_alone_2s_budget", |b| {
        // The sole DD check on this non-equivalent pair runs for minutes —
        // exactly the paper's point. Benchmark it under a 2 s budget (the
        // realistic deployment) rather than to completion.
        let deadline = Some(std::time::Duration::from_secs(2));
        let scheme = qdd::ApplicationScheme::default();
        b.iter_batched(
            || qdd::Package::new(g.n_qubits()),
            |mut p| {
                let budget = qdd::Budget::new(deadline);
                let _ = qdd::check_equivalence_alternating(&mut p, &g, &buggy, &budget, scheme);
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_equivalent(c: &mut Criterion) {
    let (g, alt) = design_flow_pair();
    let mut group = c.benchmark_group("flow_equivalent");
    group.bench_function("ten_simulations", |b| {
        let config = Config::new()
            .with_fallback(Fallback::None)
            .with_simulations(10);
        b.iter(|| qcec::check_equivalence(&g, &alt, &config).unwrap());
    });
    group.bench_function("full_flow_with_fallback", |b| {
        let config = Config::new().with_simulations(10);
        b.iter(|| qcec::check_equivalence(&g, &alt, &config).unwrap());
    });
    group.finish();
}

fn bench_r_sweep(c: &mut Criterion) {
    // Ablation for design-choice 2: cost of the simulation stage vs r.
    let (g, alt) = design_flow_pair();
    let mut group = c.benchmark_group("flow_r_sweep");
    for r in [1usize, 5, 10, 20] {
        group.bench_with_input(criterion::BenchmarkId::from_parameter(r), &r, |b, &r| {
            let config = Config::new()
                .with_fallback(Fallback::None)
                .with_simulations(r);
            b.iter(|| qcec::check_equivalence(&g, &alt, &config).unwrap());
        });
    }
    group.finish();
}

fn bench_stimulus_strategies(c: &mut Criterion) {
    // Ablation for design-choice 3: random vs sequential stimuli cost the
    // same per run (the difference is *detection power*, see the
    // `sequential_strategy_misses_high_controlled_errors` test).
    let (g, alt) = design_flow_pair();
    let mut group = c.benchmark_group("flow_stimuli");
    for (name, strategy) in [
        ("random", qcec::StimulusStrategy::Random),
        ("sequential", qcec::StimulusStrategy::Sequential),
    ] {
        group.bench_function(name, |b| {
            let config = Config::new()
                .with_fallback(Fallback::None)
                .with_stimuli(strategy)
                .with_simulations(10);
            b.iter(|| qcec::check_equivalence(&g, &alt, &config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_non_equivalent,
    bench_equivalent,
    bench_r_sweep,
    bench_stimulus_strategies
);
criterion_main!(benches);

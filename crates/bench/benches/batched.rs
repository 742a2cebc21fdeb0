//! Batched stimulus probes vs the one-at-a-time path (experiment BP).
//!
//! Measures the probe stage's core loop — prepare a basis stimulus, branch
//! it through `G` and `G'`, accumulate the overlap — at batch sizes
//! k = 1/4/16 on the cuccaro-adder fixture at n = 8/12/16 qubits. Each
//! measurement probes the *same* 16 stimuli, so the per-element wall time
//! is directly comparable across k: every row calls the one probe,
//! `Simulator::probe_stimuli_while`, with k stimuli as the lanes of its
//! arena, and larger k amortize gate decode and index arithmetic across
//! the lanes (`EXPERIMENTS.md` tracks the measured table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcirc::generators;
use qsim::{ProbeWorkspace, Simulator};

/// Stimuli probed per measurement — every batch size divides it, so each
/// arm does identical total work.
const STIMULI: u64 = 16;

fn bench_batched_probe(c: &mut Criterion) {
    let sim = Simulator::new();
    // cuccaro_adder(k) spans 2k + 2 qubits: n = 8, 12 (the acceptance
    // fixture), 16.
    for width in [3usize, 5, 7] {
        let g = generators::cuccaro_adder(width);
        let g_prime = qcirc::optimize::optimize(&g);
        let n = g.n_qubits();
        // Every arm probes the same STIMULI inputs, so per-iteration wall
        // times are directly comparable across k without a throughput axis.
        let mut group = c.benchmark_group(format!("batched_probe_n{n}"));
        for k in [1usize, 4, 16] {
            group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
                let mut workspace = ProbeWorkspace::new(n);
                b.iter(|| {
                    let mut acc = qnum::Complex::ZERO;
                    for chunk in 0..(STIMULI as usize / k) {
                        let stimuli: Vec<(u64, Option<&qcirc::Circuit>)> = (0..k)
                            .map(|lane| ((chunk * k + lane) as u64, None))
                            .collect();
                        let overlaps = sim
                            .probe_stimuli_while(&g, &g_prime, &stimuli, &mut workspace, &|| true)
                            .expect("uncancellable batch");
                        for overlap in overlaps {
                            acc += *overlap;
                        }
                    }
                    acc
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_batched_probe);
criterion_main!(benches);

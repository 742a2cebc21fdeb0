//! Scheduler acceptance tests: deterministic parallel verdicts, prompt
//! cancellation (observed through the event sink), and parallel/sequential
//! agreement on the on-disk fixture pairs.

use std::path::PathBuf;
use std::sync::Arc;

use qcec::scheduler::CollectingSink;
use qcec::{check_equivalence, BackendKind, Config, Mismatch, Outcome, StimulusStrategy};
use qcirc::Circuit;
use qfault::Mutator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name)
}

/// The verdict-relevant part of a flow result (timings are wall-clock and
/// never reproducible).
fn essence(result: &qcec::FlowResult) -> (Outcome, usize) {
    (result.outcome.clone(), result.stats.simulations_run)
}

#[test]
fn verdicts_are_deterministic_across_thread_counts() {
    // A mix of equivalent and buggy pairs, including errors that survive
    // several runs (controlled-error columns) so the watermark logic is
    // actually exercised, not just run-1 exits.
    let qft = qcirc::generators::qft(6, true);
    let optimized = qcirc::optimize::optimize(&qft);
    let mut shifted = qft.clone();
    shifted.t(3);
    let blank = Circuit::new(9);
    let mut controlled_bug = Circuit::new(9);
    controlled_bug.mcz((0..6).collect(), 8);
    let mut phase_bug_left = Circuit::new(4);
    phase_bug_left.h(0);
    let mut phase_bug_right = phase_bug_left.clone();
    phase_bug_right.s(2); // diagonal: caught only by cross-run phase check
    let pairs: [(&Circuit, &Circuit); 4] = [
        (&qft, &optimized),
        (&qft, &shifted),
        (&blank, &controlled_bug),
        (&phase_bug_left, &phase_bug_right),
    ];

    for (i, (g, g_prime)) in pairs.iter().enumerate() {
        for seed in [0u64, 7, 1234] {
            let base = Config::default().with_seed(seed).with_simulations(32);
            let reference = check_equivalence(g, g_prime, &base.clone().with_threads(1)).unwrap();
            for threads in [2usize, 8] {
                let config = base.clone().with_threads(threads);
                let parallel = check_equivalence(g, g_prime, &config).unwrap();
                assert_eq!(
                    essence(&reference),
                    essence(&parallel),
                    "pair {i}, seed {seed}, {threads} threads"
                );
                // And the parallel run itself is reproducible.
                let again = check_equivalence(g, g_prime, &config).unwrap();
                assert_eq!(essence(&parallel), essence(&again));
            }
        }
    }
}

#[test]
fn a_counterexample_outranks_a_later_overflow_at_every_thread_count() {
    // Sequential stimuli on the DD engine: stimulus 2 exposes the phase
    // fault (its overlap phase differs from stimulus 1's), and stimulus 3
    // overflows the 2000-node budget. In stimulus order the counterexample
    // comes first, so every thread count must report it, not the overflow.
    let g = qcirc::generators::random_clifford_t(12, 400, 3)
        .widened(14)
        .remap(|q| q + 2)
        .controlled_by(1);
    let mut g_prime = g.clone();
    g_prime.s(0);
    let base = Config::default()
        .with_backend(BackendKind::DecisionDiagram)
        .with_stimuli(StimulusStrategy::Sequential)
        .with_simulations(10)
        .with_dd_node_limit(2000);
    for threads in [1usize, 2, 4] {
        let result = check_equivalence(&g, &g_prime, &base.clone().with_threads(threads));
        match result.map(|r| r.outcome) {
            Ok(Outcome::NotEquivalent {
                counterexample: Some(ce),
            }) => {
                assert_eq!(ce.run, 2, "{threads} threads");
                assert!(
                    matches!(ce.mismatch, Mismatch::PhaseInconsistency { .. }),
                    "{threads} threads: {:?}",
                    ce.mismatch
                );
            }
            other => panic!("{threads} threads: expected the run-2 counterexample, got {other:?}"),
        }
    }
}

#[test]
fn one_thread_finishes_exactly_the_decisive_prefix() {
    // One worker probes stimuli one at a time and the judge reads each
    // result as it lands, so a counterexample at run k stops the stage
    // after exactly k probes — a phase inconsistency (needs two runs) and
    // an MPS magnitude mismatch (a truncating engine, judged in order
    // only) included.
    let mut phase_left = Circuit::new(4);
    phase_left.h(0);
    let mut phase_right = phase_left.clone();
    phase_right.s(2);
    let ghz = qcirc::generators::ghz(6);
    let mut ghz_t = ghz.clone();
    ghz_t.t(5);
    let cases = [
        (
            phase_left,
            phase_right,
            Config::default().with_simulations(32),
        ),
        (ghz, ghz_t, Config::default().with_backend(BackendKind::Mps)),
    ];
    for (g, g_prime, config) in cases {
        for seed in [0u64, 7, 1234] {
            let sink = Arc::new(CollectingSink::new());
            let config = config.clone().with_seed(seed).with_event_sink(sink.clone());
            let result = check_equivalence(&g, &g_prime, &config).unwrap();
            let Outcome::NotEquivalent {
                counterexample: Some(ce),
            } = &result.outcome
            else {
                panic!(
                    "seed {seed}: expected a counterexample, got {}",
                    result.outcome
                );
            };
            assert_eq!(sink.simulations_finished(), ce.run, "seed {seed}");
        }
    }
}

#[test]
fn threads_one_is_the_sequential_flow() {
    let g = qcirc::generators::grover(5, 11, 2);
    let mut buggy = g.clone();
    buggy.x(1);
    let sequential = check_equivalence(&g, &buggy, &Config::default()).unwrap();
    let explicit = check_equivalence(&g, &buggy, &Config::default().with_threads(1)).unwrap();
    // Same code path: identical verdict and counterexample, bit for bit.
    assert_eq!(sequential.outcome, explicit.outcome);
    assert_eq!(
        sequential.stats.simulations_run,
        explicit.stats.simulations_run
    );
}

#[test]
fn counterexample_cancels_outstanding_simulations() {
    // An uncontrolled error corrupts every column: run 1 is decisive. Of
    // the r = 64 scheduled stimuli, only the handful already in flight may
    // finish; the rest must be abandoned.
    let g = qcirc::generators::qft(8, true);
    let mut buggy = g.clone();
    buggy.x(4);
    let threads = 8;
    let sink = Arc::new(CollectingSink::new());
    let config = Config::default()
        .with_simulations(64)
        .with_threads(threads)
        .with_event_sink(sink.clone());
    let result = check_equivalence(&g, &buggy, &config).unwrap();

    match &result.outcome {
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => assert_eq!(ce.run, 1, "every column differs: run 1 must decide"),
        other => panic!("expected a counterexample, got {other}"),
    }
    assert_eq!(result.stats.simulations_run, 1);

    // Every stimulus produced exactly one event; at most one completion
    // per worker can sneak in before the watermark lands.
    let finished = sink.simulations_finished();
    let aborted = sink.simulations_aborted();
    assert_eq!(finished + aborted, 64);
    assert!(
        finished <= threads,
        "{finished} simulations finished; cancellation failed to stop the pool"
    );
    assert!(sink.cancellations() >= 1);
}

#[test]
fn equivalent_pair_runs_every_simulation() {
    // The complement of the cancellation test: nothing to cancel means
    // nothing aborted and a full complement of finished runs.
    let g = qcirc::generators::qft(6, true);
    let optimized = qcirc::optimize::optimize(&g);
    let sink = Arc::new(CollectingSink::new());
    let config = Config::default()
        .with_simulations(24)
        .with_threads(4)
        .with_event_sink(sink.clone());
    let result = check_equivalence(&g, &optimized, &config).unwrap();
    assert!(result.outcome.is_equivalent(), "{}", result.outcome);
    assert_eq!(result.stats.simulations_run, 24);
    assert_eq!(sink.simulations_finished(), 24);
    assert_eq!(sink.simulations_aborted(), 0);
}

fn fixture_pairs() -> Vec<(String, Circuit, Circuit)> {
    let adder =
        qcirc::qasm::parse_lenient(&std::fs::read_to_string(fixture("adder_n4.qasm")).unwrap())
            .unwrap()
            .circuit;
    let adder_alt =
        qcirc::qasm::parse(&std::fs::read_to_string(fixture("adder_n4_alt.qasm")).unwrap())
            .unwrap();
    let grover = qcirc::qasm::parse_lenient(
        &std::fs::read_to_string(fixture("grover2_with_defs.qasm")).unwrap(),
    )
    .unwrap()
    .circuit;
    let peres = qcirc::real::parse_file(fixture("peres_3.real")).unwrap();
    let peres_expanded = qcirc::real::parse_file(fixture("peres_3_expanded.real")).unwrap();

    let mut rng = StdRng::seed_from_u64(99);
    let (adder_buggy, _) = qfault::RemoveGate.apply(&adder, &mut rng).unwrap();
    let grover_opt = qcirc::optimize::optimize(&grover);

    vec![
        ("adder/alt".into(), adder.clone(), adder_alt),
        ("adder/buggy".into(), adder, adder_buggy),
        ("grover/opt".into(), grover, grover_opt),
        ("peres/expanded".into(), peres, peres_expanded),
    ]
}

#[test]
fn scheduled_flow_agrees_with_sequential_on_fixture_pairs() {
    for (name, g, g_prime) in fixture_pairs() {
        let sequential = check_equivalence(&g, &g_prime, &Config::default()).unwrap();
        let scheduled =
            check_equivalence(&g, &g_prime, &Config::default().with_threads(8)).unwrap();
        assert_eq!(
            essence(&sequential),
            essence(&scheduled),
            "{name} diverged under the scheduler"
        );
    }
}

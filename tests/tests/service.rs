//! Service-layer invariants: content-addressed fingerprints, the verdict
//! cache's byte-replay contract, and batch determinism across worker
//! counts.

use std::sync::Arc;

use proptest::prelude::*;
use qcec::scheduler::{CollectingSink, RunEvent, Stage};
use qcec::service::Provenance;
use qcec::{CircuitId, Config, EquivalenceCheckingManager, VerdictCache};
use qcirc::{generators, Circuit};
use qfault::{guard, mutator_for, GuardOptions, MutationKind};
use rand::SeedableRng;

fn circuit_seed() -> impl Strategy<Value = (usize, u64)> {
    (3usize..6, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fingerprint is a pure function of the circuit as written: two
    /// independent constructions from the same seed — and a clone — share
    /// one [`CircuitId`].
    #[test]
    fn equal_circuits_share_a_circuit_id((n, seed) in circuit_seed()) {
        let a = generators::random_clifford_t(n, 40, seed);
        let b = generators::random_clifford_t(n, 40, seed);
        prop_assert_eq!(CircuitId::of(&a), CircuitId::of(&b));
        prop_assert_eq!(CircuitId::of(&a), CircuitId::of(&a.clone()));
    }

    /// Any mutation the guard proves to be a real fault changed the
    /// written gate list, so it must land on a different [`CircuitId`] —
    /// the cache can never serve a faulty circuit its golden verdict.
    #[test]
    fn fault_mutations_change_the_circuit_id(
        (n, seed) in circuit_seed(),
        kind_sel in 0usize..MutationKind::ALL.len(),
    ) {
        let golden = generators::random_clifford_t(n, 40, seed);
        let mutator = mutator_for(MutationKind::ALL[kind_sel], 1e-3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Ok((mutated, _)) = mutator.apply(&golden, &mut rng) {
            let verdict = guard::classify(&golden, &mutated, &GuardOptions::default());
            if verdict.is_fault() {
                prop_assert_ne!(CircuitId::of(&golden), CircuitId::of(&mutated));
            }
        }
    }

    /// Writing to QASM and parsing it back lands on the same fingerprint:
    /// serialization is invisible to the cache.
    #[test]
    fn qasm_roundtrip_preserves_fingerprint((n, seed) in circuit_seed()) {
        let c = generators::random_clifford_t(n, 40, seed);
        let parsed = qcirc::qasm::parse(&qcirc::qasm::write(&c)).unwrap();
        prop_assert_eq!(CircuitId::of(&c), CircuitId::of(&parsed));
    }
}

/// A small mixed batch: three distinct jobs (one equivalent, two faulty)
/// plus a duplicate of the first.
fn sample_batch() -> Vec<(String, Circuit, Circuit)> {
    let ghz = generators::ghz(5);
    let ghz_opt = qcirc::optimize::optimize(&ghz);
    let supremacy = generators::supremacy_2d(2, 3, 6, 11);
    let mut flipped = supremacy.clone();
    flipped.x(2);
    let toff = generators::toffoli_network(5, 12, 3, 3);
    let mut dropped = toff.clone();
    dropped.remove(toff.len() / 2);
    vec![
        ("ghz".into(), ghz.clone(), ghz_opt.clone()),
        ("supremacy_flip".into(), supremacy, flipped),
        ("toffoli_drop".into(), toff, dropped),
        ("ghz_again".into(), ghz, ghz_opt),
    ]
}

/// A cache hit replays the exact bytes of the miss that populated it:
/// the default (timings-free) report lines are byte-identical.
#[test]
fn cache_hit_replays_miss_bytes() {
    let config = Config::new().with_simulations(6).with_seed(3);
    let cache = Arc::new(VerdictCache::new(64));

    let mut first = EquivalenceCheckingManager::with_cache(config.clone(), cache.clone());
    first.submit_batch(sample_batch());
    first.run().unwrap();
    assert!(first
        .results()
        .iter()
        .take(3)
        .all(|r| r.provenance == Provenance::Computed));
    assert_eq!(first.results()[3].provenance, Provenance::Deduped);

    let mut second = EquivalenceCheckingManager::with_cache(config, cache.clone());
    second.submit_batch(sample_batch());
    second.run().unwrap();
    assert!(second
        .results()
        .iter()
        .take(3)
        .all(|r| r.provenance == Provenance::CacheHit));

    assert_eq!(first.report_lines(), second.report_lines());
    let stats = cache.stats();
    assert_eq!(stats.misses, 3);
    assert!(stats.hits >= 3);
}

/// The batch queue merges in submission order, so the report stream is
/// byte-identical at any worker count.
#[test]
fn batch_output_is_byte_identical_across_worker_counts() {
    let config = Config::new().with_simulations(6).with_seed(3);
    let mut streams = Vec::new();
    for workers in [1, 2, 8] {
        let mut manager = EquivalenceCheckingManager::new(config.clone()).with_workers(workers);
        manager.submit_batch(sample_batch());
        manager.run().unwrap();
        streams.push(manager.report_lines().to_vec());
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[0], streams[2]);
}

/// The persisted stream file holds exactly the in-memory lines, and reads
/// back verbatim.
#[test]
fn stream_file_replays_report_lines() {
    let dir = std::env::temp_dir().join(format!("qcec-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.jsonl");
    let _ = std::fs::remove_file(&path);

    let config = Config::new().with_simulations(6).with_seed(3);
    let mut manager = EquivalenceCheckingManager::new(config).with_stream_path(&path);
    manager.submit_batch(sample_batch());
    manager.run().unwrap();

    let replayed = EquivalenceCheckingManager::read_stream(&path).unwrap();
    assert_eq!(replayed, manager.report_lines());
    std::fs::remove_file(&path).unwrap();
}

/// A computed job runs under the configuration it was submitted with,
/// event sink included: the caller's sink sees the job's stage events.
#[test]
fn computed_jobs_report_to_the_callers_event_sink() {
    let g = generators::qft(4, true);
    let mut faulty = g.clone();
    faulty.x(1);
    let sink = Arc::new(CollectingSink::new());
    let mut manager =
        EquivalenceCheckingManager::new(Config::default().with_event_sink(sink.clone()));
    manager.submit("qft4_faulty", g, faulty);
    manager.run().unwrap();
    assert_eq!(manager.results()[0].provenance, Provenance::Computed);
    assert!(sink.events().iter().any(|e| matches!(
        e,
        RunEvent::StageStarted {
            stage: Stage::Simulation
        }
    )));
}

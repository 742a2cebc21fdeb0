//! Adversarial cases: inputs crafted to exploit each component's known weak
//! spots. Every case either must be handled correctly or must fail the
//! *documented* way (no silent wrong answers).

use std::sync::Arc;

use qcec::scheduler::{CollectingSink, RunEvent};
use qcec::{
    check_equivalence, check_equivalence_default, BackendKind, Config, Criterion, Fallback,
    FlowError, Outcome, StimulusStrategy,
};
use qcirc::{generators, Circuit};

/// The worst case of Section IV-A: the difference is a fully-controlled
/// gate, so only 2 of 2ⁿ columns differ. Random simulation is *expected* to
/// miss it; the fallback must then catch it.
#[test]
fn fully_controlled_difference_falls_through_to_the_complete_check() {
    let n = 10;
    let g = Circuit::new(n);
    let mut buggy = Circuit::new(n);
    buggy.mcx((0..n - 1).collect(), n - 1);
    let config = Config::new().with_simulations(5).with_seed(0);
    let result = check_equivalence(&g, &buggy, &config).unwrap();
    // Either simulation got lucky (possible) or the DD check decided.
    assert!(result.outcome.is_not_equivalent(), "{}", result.outcome);
}

/// Basis-dependent phases that look like a global phase on every individual
/// run — the trap for per-run up-to-phase comparison. Cross-run phase
/// tracking must catch it.
#[test]
fn basis_dependent_phase_error_is_caught() {
    let n = 6;
    let mut g = Circuit::new(n);
    for q in 0..n {
        g.cx(q, (q + 1) % n);
    }
    let mut buggy = g.clone();
    // T on a classical wire: each basis run sees only a global phase.
    buggy.insert(3, qcirc::Gate::single(qcirc::GateKind::T, 2));
    let result = check_equivalence_default(&g, &buggy).unwrap();
    assert!(result.outcome.is_not_equivalent(), "{}", result.outcome);
}

/// An *honest* global phase must NOT be reported as an error under the
/// physical criterion — and must be under the strict one.
#[test]
fn global_phase_only_difference_is_classified_correctly() {
    let mut g = Circuit::new(3);
    g.h(0).cx(0, 1).ccx(0, 1, 2);
    let mut phased = g.clone();
    // Global −1 via Rz(2π) (affects every column identically).
    phased.rz(2.0 * std::f64::consts::PI, 0);
    let physical = check_equivalence_default(&g, &phased).unwrap();
    assert!(physical.outcome.is_equivalent(), "{}", physical.outcome);
    let strict = check_equivalence(
        &g,
        &phased,
        &Config::new().with_criterion(Criterion::Strict),
    )
    .unwrap();
    assert!(strict.outcome.is_not_equivalent(), "{}", strict.outcome);
}

/// Dirty-ancilla decompositions are equivalence-preserving *as full
/// unitaries*; clean-ancilla-style garbage is not. The checker must
/// distinguish the two.
#[test]
fn ancilla_garbage_is_flagged() {
    let n = 4;
    // "Decomposition" that leaves garbage: compute into the ancilla and
    // forget to uncompute.
    let mut with_garbage = Circuit::new(n + 1);
    with_garbage.h(0).ccx(0, 1, n).cx(n, 2); // ancilla n holds q0·q1
    let mut reference = Circuit::new(n + 1);
    reference.h(0).ccx(0, 1, 2); // intended behaviour, ancilla idle
    let result = check_equivalence_default(&reference, &with_garbage).unwrap();
    assert!(result.outcome.is_not_equivalent());
}

/// Rotations that differ by exactly 4π are the same matrix; by 2π they
/// differ by a global phase. Neither may produce a false non-equivalence
/// under the physical criterion.
#[test]
fn rotation_period_aliasing() {
    let mut a = Circuit::new(2);
    a.rx(0.7, 0).cx(0, 1);
    let mut b4 = Circuit::new(2);
    b4.rx(0.7 + 4.0 * std::f64::consts::PI, 0).cx(0, 1);
    let strict = Config::new().with_criterion(Criterion::Strict);
    let r = check_equivalence(&a, &b4, &strict).unwrap();
    assert!(
        r.outcome.is_equivalent(),
        "4π-shifted rotation: {}",
        r.outcome
    );
    let mut b2 = Circuit::new(2);
    b2.rx(0.7 + 2.0 * std::f64::consts::PI, 0).cx(0, 1);
    let r = check_equivalence_default(&a, &b2).unwrap();
    assert!(
        r.outcome.is_equivalent(),
        "2π-shifted rotation: {}",
        r.outcome
    );
    let r = check_equivalence(&a, &b2, &strict).unwrap();
    assert!(r.outcome.is_not_equivalent(), "strict must see the −1");
}

/// A tiny rotation below any sane simulation tolerance: the simulations
/// cannot see it, but the DD fallback (interning at 1e−13) must.
#[test]
fn near_identity_rotation_is_decided_by_the_fallback() {
    let mut g = Circuit::new(3);
    g.h(0).cx(0, 1).cx(1, 2);
    let mut buggy = g.clone();
    buggy.rz(1e-6, 1); // far beyond fidelity tolerance per run? borderline:
                       // fidelity error ~ (1e-6)² = 1e-12 < 1e-8 → invisible
    let result = check_equivalence_default(&g, &buggy).unwrap();
    match result.outcome {
        // The complete check sees the distinct DD weights.
        Outcome::NotEquivalent { .. } => {}
        // Also acceptable: phases differing below the DD tolerance would be
        // equivalent-up-to-phase — but 1e-6 is far above 1e-13, so anything
        // else is a bug.
        other => panic!("near-identity rotation missed: {other}"),
    }
    // 2³ = 8 ≤ r → the stage enumerated every basis state and all passed.
    assert_eq!(result.stats.simulations_run, 8, "sims must all pass first");
}

/// Swapping two commuting gates is equivalence-preserving; the checker must
/// not be confused by textual reordering.
#[test]
fn commuting_reorder_is_equivalent() {
    let mut a = Circuit::new(4);
    a.h(0).rz(0.3, 1).cx(2, 3).t(1).cx(0, 1);
    let mut b = Circuit::new(4);
    b.cx(2, 3).h(0).t(1).rz(0.3, 1).cx(0, 1); // disjoint/diagonal commutations
    let strict = Config::new().with_criterion(Criterion::Strict);
    let r = check_equivalence(&a, &b, &strict).unwrap();
    assert!(r.outcome.is_equivalent(), "{}", r.outcome);
}

/// Zero simulations plus no fallback must answer "probably equivalent with
/// zero evidence" — never a hard verdict.
#[test]
fn no_evidence_no_verdict() {
    let g = generators::ghz(3);
    let mut buggy = g.clone();
    buggy.x(0);
    let config = Config::new()
        .with_simulations(0)
        .with_fallback(Fallback::None);
    let result = check_equivalence(&g, &buggy, &config).unwrap();
    match result.outcome {
        Outcome::ProbablyEquivalent {
            passed_simulations, ..
        } => assert_eq!(passed_simulations, 0),
        other => panic!("fabricated a verdict from nothing: {other}"),
    }
}

/// The stabilizer path and the dense path agree on Clifford adversaries.
#[test]
fn stabilizer_and_dense_agree_on_sign_errors() {
    let g = generators::ghz(8);
    let mut buggy = g.clone();
    buggy.z(5); // pure sign error
    let dense = check_equivalence_default(&g, &buggy).unwrap();
    assert!(dense.outcome.is_not_equivalent());
    let stab = qstab::check_clifford_equivalence(&g, &buggy, 10, 3).unwrap();
    assert!(matches!(stab, qstab::CliffordVerdict::NotEquivalent { .. }));
}

/// Circuits over different registers are a *user error*, not a verdict.
#[test]
fn register_mismatch_is_rejected_not_guessed() {
    let a = generators::ghz(3);
    let b = generators::ghz(5);
    assert!(check_equivalence_default(&a, &b).is_err());
}

/// A register past the dense engine's width is refused with a typed error
/// naming the width, the limit and the engine, instead of a panic inside
/// qsim: under the default (statevector) backend, and wherever the stab
/// engine would take its dense fallback — a non-Clifford gate, product
/// stimuli or the strict criterion, on `stab` or picked by `Auto`. The
/// refusal comes before the simulation stage starts — the event sink sees
/// no stage at all, only `Auto`'s pick — so no `2ⁿ` buffer is ever
/// allocated. Where the tableau serves every probe, `Auto` still proves a
/// 30-qubit pair.
#[test]
fn over_wide_dense_register_is_refused_before_any_stage_starts() {
    let max_qubits = qsim::StateVector::MAX_QUBITS;
    let stab = Config::default().with_backend(BackendKind::Stab);
    let auto = Config::default().with_backend(BackendKind::Auto);
    let mut non_clifford = generators::ghz(30);
    non_clifford.t(0);
    let cases = [
        (
            generators::ghz(29),
            Config::default(),
            BackendKind::Statevector,
        ),
        (
            generators::ghz(40),
            Config::default(),
            BackendKind::Statevector,
        ),
        (non_clifford, stab.clone(), BackendKind::Stab),
        (
            generators::ghz(30),
            stab.clone().with_stimuli(StimulusStrategy::Product),
            BackendKind::Stab,
        ),
        (
            generators::ghz(30),
            stab.with_criterion(Criterion::Strict),
            BackendKind::Stab,
        ),
        (
            generators::ghz(30),
            auto.clone().with_criterion(Criterion::Strict),
            BackendKind::Stab,
        ),
        (
            generators::ghz(30),
            auto.clone().with_stimuli(StimulusStrategy::Product),
            BackendKind::Stab,
        ),
    ];
    for (g, config, backend) in cases {
        let n_qubits = g.n_qubits();
        let sink = Arc::new(CollectingSink::new());
        let config = config.with_event_sink(sink.clone());
        let err = check_equivalence(&g, &g.clone(), &config).unwrap_err();
        assert_eq!(
            err,
            FlowError::RegisterTooWide {
                n_qubits,
                max_qubits,
                backend
            }
        );
        let engine = match backend {
            BackendKind::Stab => "the stab backend's dense fallback",
            _ => "the statevector backend",
        };
        let message = err.to_string();
        assert!(
            message.contains(engine)
                && message.contains(&format!("at most {max_qubits} qubits"))
                && message.contains(&format!("act on {n_qubits}")),
            "{message}"
        );
        let picked =
            (config.backend == BackendKind::Auto).then_some(RunEvent::BackendSelected { backend });
        assert_eq!(
            sink.events(),
            picked.into_iter().collect::<Vec<_>>(),
            "{backend}, n = {n_qubits}"
        );
    }
    let ghz = generators::ghz(30);
    let result = check_equivalence(&ghz, &ghz.clone(), &auto).unwrap();
    assert_eq!(result.outcome, Outcome::Equivalent);
}

// ---------------------------------------------------------------------------
// Escaped-fault corpus: guard-confirmed real faults that `r = 10` random
// basis-state simulations systematically miss (detection probability
// ~`2^{−c}` per run — Section IV-A's law at its worst). The pairs live in
// `tests/fixtures/escapees/` as `<name>.golden.qasm` / `<name>.faulty.qasm`,
// generated by `cargo run --release -p bench --bin escapees`; each faulty
// file records the stimulus seeds it escapes (`// escapes-seeds: …`).
// Any change to the stimulus strategy is measured against this corpus: a
// fixture "regression" here means the strategy now catches a fault it
// systematically missed before — delete the fixture only with that
// understanding.
// ---------------------------------------------------------------------------

/// One persisted escapee: the circuit pair plus the stimulus seeds the
/// fault is known to escape.
struct Escapee {
    name: String,
    golden: Circuit,
    faulty: Circuit,
    escapes_seeds: Vec<u64>,
}

fn escapee_corpus() -> Vec<Escapee> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/escapees");
    let mut corpus = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("escapee fixture directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".golden.qasm"))
        .collect();
    entries.sort();
    for golden_path in entries {
        let name = golden_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .trim_end_matches(".golden.qasm")
            .to_string();
        let faulty_path = golden_path
            .to_string_lossy()
            .replace(".golden.qasm", ".faulty.qasm");
        let golden_src = std::fs::read_to_string(&golden_path).unwrap();
        let faulty_src = std::fs::read_to_string(&faulty_path)
            .unwrap_or_else(|_| panic!("{name}: faulty half of the pair is missing"));
        let escapes_seeds = faulty_src
            .lines()
            .find_map(|l| l.strip_prefix("// escapes-seeds: "))
            .unwrap_or_else(|| panic!("{name}: no escapes-seeds header"))
            .split(',')
            .map(|s| s.trim().parse().expect("seed"))
            .collect();
        corpus.push(Escapee {
            name,
            golden: qcirc::qasm::parse(&golden_src).unwrap(),
            faulty: qcirc::qasm::parse(&faulty_src).unwrap(),
            escapes_seeds,
        });
    }
    corpus
}

/// The corpus holds the known V-chain CX drop plus at least three hunted
/// escapees, and every pair is a *real* fault: the complete DD check
/// (here via the guard) proves non-equivalence.
#[test]
fn escapee_corpus_is_populated_with_guard_confirmed_faults() {
    let corpus = escapee_corpus();
    assert!(
        corpus.len() >= 4,
        "corpus has only {} pairs — regenerate with `bench --bin escapees`",
        corpus.len()
    );
    assert!(
        corpus.iter().any(|e| e.name == "vchain_cx_drop"),
        "the known V-chain CX-drop escapee is missing"
    );
    for e in &corpus {
        let verdict =
            qfault::guard::classify(&e.golden, &e.faulty, &qfault::GuardOptions::default());
        assert!(
            verdict.is_fault(),
            "{}: expected a guard-confirmed fault, got {verdict}",
            e.name
        );
        assert!(
            !e.escapes_seeds.is_empty(),
            "{}: no escaping seeds recorded",
            e.name
        );
    }
}

/// Each persisted fault still escapes `r = 10` simulations for every
/// recorded stimulus seed: with the fallback disabled the flow can only
/// answer "probably equivalent" — the wrong answer, by design.
#[test]
fn escapees_still_escape_ten_simulations() {
    for e in &escapee_corpus() {
        for &seed in &e.escapes_seeds {
            let config = Config::new()
                .with_simulations(10)
                .with_seed(seed)
                .with_fallback(Fallback::None)
                .with_threads(1);
            let result = check_equivalence(&e.golden, &e.faulty, &config).unwrap();
            assert!(
                matches!(result.outcome, Outcome::ProbablyEquivalent { .. }),
                "{} (seed {seed}): stimulus strategy now detects this fault \
                 ({}) — the corpus contract changed, see the module comment",
                e.name,
                result.outcome
            );
        }
    }
}

/// Non-classical stimuli close the corpus's blind spot: for the *same*
/// seeds that basis stimuli are recorded to escape, product and stabilizer
/// stimuli detect every persisted fault within the same `r = 10` budget —
/// with the fallback disabled, so the detection is the simulation stage's
/// alone. Basis stimuli remain the documented miss
/// (`escapees_still_escape_ten_simulations` above).
#[test]
fn nonclassical_stimuli_detect_every_escapee() {
    for e in &escapee_corpus() {
        for strategy in [StimulusStrategy::Product, StimulusStrategy::Stabilizer] {
            for &seed in &e.escapes_seeds {
                let config = Config::new()
                    .with_simulations(10)
                    .with_seed(seed)
                    .with_stimuli(strategy)
                    .with_fallback(Fallback::None)
                    .with_threads(1);
                let result = check_equivalence(&e.golden, &e.faulty, &config).unwrap();
                let Outcome::NotEquivalent {
                    counterexample: Some(ce),
                } = &result.outcome
                else {
                    panic!(
                        "{} (seed {seed}, {strategy}): non-classical stimuli \
                         missed a fault basis stimuli escape ({})",
                        e.name, result.outcome
                    );
                };
                assert!(
                    ce.run <= 10,
                    "{} (seed {seed}, {strategy}): detection run {} out of budget",
                    e.name,
                    ce.run
                );
            }
        }
    }
}

/// The full flow (simulations + complete-check fallback) must catch every
/// escapee: this is precisely the case that justifies the fallback stage.
#[test]
fn full_flow_catches_every_escapee() {
    for e in &escapee_corpus() {
        let config = Config::new()
            .with_simulations(10)
            .with_seed(e.escapes_seeds[0])
            .with_threads(1);
        let result = check_equivalence(&e.golden, &e.faulty, &config).unwrap();
        assert!(
            result.outcome.is_not_equivalent(),
            "{}: full flow missed a persisted escapee ({})",
            e.name,
            result.outcome
        );
        // The counterexample did NOT come from the simulation stage for
        // the recorded seed — the complete check decided.
        assert!(
            matches!(
                result.outcome,
                Outcome::NotEquivalent {
                    counterexample: None
                }
            ),
            "{}: expected the complete check to decide, got {}",
            e.name,
            result.outcome
        );
    }
}

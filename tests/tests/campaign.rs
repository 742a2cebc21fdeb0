//! End-to-end tests of the fault-injection engine and the campaign
//! runner: small-scale oracles against the complete DD check, the
//! determinism contract, and the shape of the aggregated report.

use qcec::campaign::{run_campaign, Axis, CampaignBenchmark, CampaignConfig, CompileRoute};
use qcec::{check_equivalence, Config, Outcome};
use qcirc::generators;
use qcirc::mapping::CouplingMap;
use qfault::{registry, GuardOptions, MutationKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small (≤ 6 qubit) fixtures on which the complete check is instant.
fn fixtures() -> Vec<qcirc::Circuit> {
    vec![
        generators::ghz(4),
        generators::qft(4, true),
        generators::grover(3, 5, generators::optimal_grover_iterations(3)),
        generators::bernstein_vazirani(5, 0b10110),
    ]
}

/// Oracle: whenever the guard labels a mutation a real fault, the flow
/// must prove non-equivalence — and on these sizes the simulation stage
/// should find a counterexample within a handful of runs.
#[test]
fn guard_confirmed_faults_are_detected_by_the_flow() {
    let guard = GuardOptions::default();
    let config = Config::new().with_simulations(10).with_seed(3);
    let mut faults = 0usize;
    let mut detected_by_sim = 0usize;

    for (c_idx, circuit) in fixtures().iter().enumerate() {
        for (m_idx, mutator) in registry(0.2).iter().enumerate() {
            for trial in 0..3u64 {
                let seed = 1000 * c_idx as u64 + 10 * m_idx as u64 + trial;
                let mut rng = StdRng::seed_from_u64(seed);
                let Ok((mutated, record)) = mutator.apply(circuit, &mut rng) else {
                    continue;
                };
                if !qfault::guard::classify(circuit, &mutated, &guard).is_fault() {
                    continue;
                }
                faults += 1;
                let result = check_equivalence(circuit, &mutated, &config).unwrap();
                assert!(
                    result.outcome.is_not_equivalent(),
                    "{record}: flow missed a guard-confirmed fault"
                );
                if let Outcome::NotEquivalent {
                    counterexample: Some(ce),
                } = &result.outcome
                {
                    detected_by_sim += 1;
                    assert!(ce.run <= 10, "{record}: counterexample after run 10?");
                }
            }
        }
    }

    assert!(
        faults >= 40,
        "only {faults} confirmed faults — oracle too weak"
    );
    // The paper's claim: errors are caught by simulation almost always,
    // within very few runs.
    assert!(
        detected_by_sim * 10 >= faults * 9,
        "simulation found only {detected_by_sim} of {faults} faults"
    );
}

/// Benign mutations (the guard proves the unitary unchanged) must never be
/// flagged non-equivalent — the flow is sound.
#[test]
fn benign_mutations_are_never_flagged() {
    let guard = GuardOptions::default();
    let config = Config::new().with_simulations(10).with_seed(5);
    let mut benign = 0usize;

    for (c_idx, circuit) in fixtures().iter().enumerate() {
        for (m_idx, mutator) in registry(0.2).iter().enumerate() {
            for trial in 0..3u64 {
                let seed = 2000 * c_idx as u64 + 10 * m_idx as u64 + trial;
                let mut rng = StdRng::seed_from_u64(seed);
                let Ok((mutated, record)) = mutator.apply(circuit, &mut rng) else {
                    continue;
                };
                if !qfault::guard::classify(circuit, &mutated, &guard).is_benign() {
                    continue;
                }
                benign += 1;
                let result = check_equivalence(circuit, &mutated, &config).unwrap();
                assert!(
                    result.outcome.is_equivalent(),
                    "{record}: benign mutation flagged as {}",
                    result.outcome
                );
            }
        }
    }
    // SwapTargets on symmetric gates guarantees some benign instances.
    assert!(benign > 0, "no benign mutation sampled — guard never used");
}

#[test]
fn campaign_json_is_reproducible_and_complete() {
    let benches = vec![
        CampaignBenchmark::compile(
            "ghz 4",
            "ghz",
            &generators::ghz(4),
            &CompileRoute::Map(CouplingMap::linear(4)),
        ),
        CampaignBenchmark::optimized("qft 4", "qft", &generators::qft(4, true)),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, 1),
            &CompileRoute::Decompose,
        ),
    ];
    let config = CampaignConfig::default()
        .with_seed(42)
        .with_trials(2)
        .with_simulations(6);

    let first = run_campaign(&benches, &config);
    let second = run_campaign(&benches, &config);
    assert_eq!(
        first.to_json(false),
        second.to_json(false),
        "campaign JSON must be byte-identical for a fixed seed"
    );

    // Report shape: every error class and every family is covered.
    let json = first.to_json(false);
    for kind in MutationKind::ALL {
        assert!(
            json.contains(&format!("\"class\":\"{}\"", kind.slug())),
            "class {kind} missing from report"
        );
    }
    for family in ["ghz", "qft", "grover"] {
        assert!(
            json.contains(&format!("\"family\":\"{family}\"")),
            "family {family} missing from report"
        );
    }

    // Soundness and power, aggregated.
    let mut faults = 0;
    let mut detected = 0;
    for (kind, s) in &first.classes {
        assert_eq!(s.false_positives, 0, "{kind}: benign mutation flagged");
        faults += s.faults;
        detected += s.detected_by_sim + s.detected_by_complete;
    }
    assert!(faults > 0);
    assert!(detected * 2 > faults, "detected {detected} of {faults}");
}

#[test]
fn campaign_markdown_renders_every_section() {
    let benches = vec![CampaignBenchmark::optimized(
        "qft 4",
        "qft",
        &generators::qft(4, true),
    )];
    let config = CampaignConfig::default().with_trials(1).with_simulations(4);
    let md = run_campaign(&benches, &config).to_markdown();
    for section in [
        "# Fault-injection campaign",
        "## Benchmarks",
        "## Detection by error class",
        "## Detected / faults per family",
        "stage summary",
    ] {
        assert!(md.contains(section), "missing section {section:?}");
    }
}

/// The tentpole contract: identical seeds produce byte-identical JSON for
/// any trial-thread count. Workers claim cells dynamically, so completion
/// order varies — the deterministic merge must hide that entirely.
#[test]
fn campaign_json_is_byte_identical_across_trial_thread_counts() {
    let benches = vec![
        CampaignBenchmark::compile(
            "ghz 4",
            "ghz",
            &generators::ghz(4),
            &CompileRoute::Map(CouplingMap::linear(4)),
        ),
        CampaignBenchmark::optimized("qft 4", "qft", &generators::qft(4, true)),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, 1),
            &CompileRoute::Decompose,
        ),
    ];
    let base = CampaignConfig::default()
        .with_seed(11)
        .with_trials(3)
        .with_simulations(6);
    let reference = run_campaign(&benches, &base.clone().with_trial_threads(1)).to_json(false);
    for threads in [2usize, 8] {
        let parallel =
            run_campaign(&benches, &base.clone().with_trial_threads(threads)).to_json(false);
        assert_eq!(
            reference, parallel,
            "trial_threads = {threads} changed the reproducible JSON"
        );
    }
}

/// The default-backend campaign JSON must stay byte-identical to the
/// pre-refactor golden: the backend axis may only change the output when
/// explicitly selected. Mirrors the `campaign` binary's scale-0 benchmark
/// set and the golden's exact flags (`--seed 7 --trials 2 --sims 6`).
#[test]
fn default_backend_json_matches_pre_refactor_golden() {
    let benches = vec![
        CampaignBenchmark::compile(
            "ghz 5",
            "ghz",
            &generators::ghz(5),
            &CompileRoute::Map(CouplingMap::linear(5)),
        ),
        CampaignBenchmark::compile(
            "qft 5",
            "qft",
            &generators::qft(5, true),
            &CompileRoute::Optimize,
        ),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, generators::optimal_grover_iterations(3)),
            &CompileRoute::Decompose,
        ),
    ];
    let config = CampaignConfig::default()
        .with_seed(7)
        .with_trials(2)
        .with_simulations(6)
        .with_threads(2)
        .with_epsilon(0.1);
    let json = run_campaign(&benches, &config).to_json(false);
    let golden = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/campaign_default.json"),
    )
    .expect("golden campaign JSON");
    assert_eq!(json, golden.trim_end(), "default campaign JSON drifted");
}

/// A four-scheme ablation campaign is as deterministic as the default one:
/// reruns and trial-thread variations are byte-identical, every arm
/// renders in the breakdown, and — because the scheme only reorders the
/// complete check's multiplications — all four arms report identical
/// detection statistics.
#[test]
fn scheme_ablation_campaign_is_deterministic_and_arms_agree() {
    use qcec::ApplicationScheme;
    let benches = vec![
        CampaignBenchmark::optimized("qft 4", "qft", &generators::qft(4, true)),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, 1),
            &CompileRoute::Decompose,
        ),
    ];
    let base = CampaignConfig::default()
        .with_seed(17)
        .with_trials(2)
        .with_simulations(6)
        .with_axis(Axis::Scheme(ApplicationScheme::ALL.to_vec()));

    let first = run_campaign(&benches, &base);
    let rerun = run_campaign(&benches, &base).to_json(false);
    assert_eq!(first.to_json(false), rerun, "scheme-ablation rerun drifted");
    for threads in [2usize, 8] {
        let parallel =
            run_campaign(&benches, &base.clone().with_trial_threads(threads)).to_json(false);
        assert_eq!(
            first.to_json(false),
            parallel,
            "trial_threads = {threads} changed the scheme-ablation JSON"
        );
    }

    let json = first.to_json(false);
    for scheme in ApplicationScheme::ALL {
        assert!(
            json.contains(&format!("\"scheme\":\"{}\"", scheme.slug())),
            "scheme {scheme} missing from breakdown"
        );
    }
    // Identical faults, identical verdicts: each arm's per-class stats
    // must equal the first arm's exactly.
    let scheme_arms = &first.arms[2];
    assert!(matches!(first.config.axes[2], Axis::Scheme(_)));
    for (scheme, arm) in ApplicationScheme::ALL.iter().zip(scheme_arms).skip(1) {
        assert_eq!(
            arm.classes, scheme_arms[0].classes,
            "{scheme}: detection stats diverged"
        );
    }
    // The markdown gains its own ablation section only in this mode.
    assert!(first
        .to_markdown()
        .contains("## Detection by application scheme"));
}

/// A single non-default scheme renders as a `"scheme"` config field (and
/// no breakdown); the seed contract means its trials face the same faults
/// as a default campaign's.
#[test]
fn single_scheme_campaign_renders_config_field_only() {
    use qcec::ApplicationScheme;
    let benches = vec![CampaignBenchmark::optimized(
        "qft 4",
        "qft",
        &generators::qft(4, true),
    )];
    let base = CampaignConfig::default().with_trials(1).with_simulations(4);
    let gatecost = run_campaign(
        &benches,
        &base
            .clone()
            .with_axis(Axis::Scheme(vec![ApplicationScheme::GateCost])),
    );
    let json = gatecost.to_json(false);
    assert!(json.contains("\"scheme\":\"gatecost\""));
    assert!(!json.contains("\"schemes\":"));
    // Same faults, same verdicts as the default-scheme campaign — only
    // the config field differs.
    let default = run_campaign(&benches, &base).to_json(false);
    assert_eq!(
        json.replace(",\"scheme\":\"gatecost\"", ""),
        default,
        "a scheme change must not alter detection results"
    );
}

/// Three verdict-neutral axes ablated at once: every combination of arms
/// runs, each axis's arms split the trials between them, and the arms of
/// each axis agree row for row.
#[test]
fn multi_axis_campaign_covers_every_arm_combination() {
    use qcec::campaign::ClassStats;
    use qcec::{ApplicationScheme, BackendKind};
    let benches = vec![
        CampaignBenchmark::optimized("qft 4", "qft", &generators::qft(4, true)),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, 1),
            &CompileRoute::Decompose,
        ),
    ];
    let config = CampaignConfig::default()
        .with_seed(19)
        .with_trials(2)
        .with_simulations(6)
        .with_axis(Axis::Backend(vec![
            BackendKind::Statevector,
            BackendKind::DecisionDiagram,
        ]))
        .with_axis(Axis::Scheme(vec![
            ApplicationScheme::Proportional,
            ApplicationScheme::GateCost,
        ]))
        .with_axis(Axis::Chi(vec![4, 64]));
    let result = run_campaign(&benches, &config);
    let combinations: usize = config.axes.iter().map(Axis::arm_count).product();
    assert_eq!(combinations, 8);
    assert_eq!(
        result.trials.len(),
        combinations * config.classes.len() * config.trials * benches.len()
    );

    for (axis, arms) in config.axes.iter().zip(&result.arms) {
        assert_eq!(arms.len(), axis.arm_count());
        for (k, (kind, whole)) in result.classes.iter().enumerate() {
            let mut sum = ClassStats::default();
            for arm in arms {
                sum.add(&arm.classes[k].1);
            }
            assert_eq!(&sum, whole, "{} arms do not sum to {kind}", axis.flag());
        }
        for arm in &arms[1..] {
            assert_eq!(
                arm.classes,
                arms[0].classes,
                "{} arms disagree",
                axis.flag()
            );
        }
    }

    let json = result.to_json(false);
    let pooled = run_campaign(&benches, &config.clone().with_trial_threads(3));
    assert_eq!(json, pooled.to_json(false), "trial_threads = 3 drifted");
    assert!(!json.contains("t_ec_s"));
    // One `t_ec_s` per rendered arm — the strategy, two backends, two
    // schemes and two χ caps — plus the stage summary's own.
    let timed = result.to_json(true);
    assert_eq!(timed.matches("\"t_ec_s\"").count(), 7 + 1);
    assert!(!timed.contains("t_ec_proportional_s"));
}

/// Double faults that cancel are guard-labelled benign; the accounting must
/// file such trials under `benign` and never under `missed`, whatever the
/// flow answered.
#[test]
fn benign_trials_are_never_counted_as_detection_misses() {
    use qcec::campaign::{ClassStats, Detection, TrialRecord};
    let benign_trial = |detection| TrialRecord {
        benchmark: 0,
        arms: vec![0; 5],
        kind: MutationKind::AddGate,
        trial: 0,
        seed: 7,
        mutations: vec!["add_gate then remove_gate, cancelling".into()],
        guard: qfault::GuardVerdict::Benign { phase: Some(0.0) },
        detection: Some(detection),
        sims_run: 6,
    };
    let mut stats = ClassStats::default();
    // The flow correctly found no difference.
    stats.record(&benign_trial(Detection::Missed));
    assert_eq!((stats.benign, stats.missed), (1, 0));
    assert_eq!(stats.false_positives, 0);
    // Even a (hypothetically unsound) flow verdict must not leak a benign
    // trial into the missed-fault count — it is a false positive instead.
    stats.record(&benign_trial(Detection::Simulation { sims: 1 }));
    assert_eq!((stats.benign, stats.missed), (2, 0));
    assert_eq!(stats.false_positives, 1);
    assert_eq!(stats.faults, 0, "benign trials are not faults");
}

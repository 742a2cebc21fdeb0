//! Cross-engine agreement: the dense reference, the statevector simulator
//! and the decision-diagram package must compute identical semantics.

use qcirc::{generators, Circuit};
use qsim::Simulator;

fn workloads() -> Vec<Circuit> {
    vec![
        generators::bell().widened(4),
        generators::ghz(4),
        generators::qft(4, true),
        generators::grover(4, 11, 2),
        generators::supremacy_2d(2, 2, 6, 3),
        generators::trotter_heisenberg(2, 2, 1, 0.2, 0.4),
        generators::cuccaro_adder(1),
        generators::random_clifford_t(4, 60, 8),
        generators::toffoli_network(4, 25, 2, 9),
    ]
}

#[test]
fn statevector_matches_dense_reference() {
    let sim = Simulator::new();
    for c in workloads() {
        let u = qcirc::dense::unitary(&c);
        for basis in 0..(1u64 << c.n_qubits().min(3)) {
            let out = sim.run_basis(&c, basis);
            for (row, amp) in out.amplitudes().iter().enumerate() {
                assert!(
                    amp.approx_eq(u.entry(row, basis as usize)),
                    "{}: basis {basis}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn dd_simulation_matches_statevector() {
    let sim = Simulator::new();
    for c in workloads() {
        let mut p = qdd::Package::new(c.n_qubits());
        for basis in [0u64, 1, 5] {
            let v = p.apply_to_basis(&c, basis).unwrap();
            let expect = sim.run_basis(&c, basis);
            for (i, amp) in p.to_statevector(v).iter().enumerate() {
                assert!(
                    amp.approx_eq(expect.amplitudes()[i]),
                    "{}: basis {basis} index {i}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn dd_matrix_matches_dense_reference() {
    for c in workloads() {
        let mut p = qdd::Package::new(c.n_qubits());
        let u = p.circuit_medge(&c, &qdd::Budget::new(None)).unwrap();
        assert!(
            p.to_matrix(u).approx_eq(&qcirc::dense::unitary(&c)),
            "{}",
            c.name()
        );
    }
}

#[test]
fn both_flow_backends_reach_the_same_verdicts() {
    use qcec::{BackendKind, Config};
    let g = generators::grover(4, 7, 2);
    let mut buggy = g.clone();
    buggy.t(2);
    for backend in BackendKind::ALL {
        let config = Config::new().with_backend(backend);
        let eq = qcec::check_equivalence(&g, &g, &config).unwrap();
        assert!(eq.outcome.is_equivalent(), "{backend:?}");
        let ne = qcec::check_equivalence(&g, &buggy, &config).unwrap();
        assert!(ne.outcome.is_not_equivalent(), "{backend:?}");
    }
}

// ---------------------------------------------------------------------------
// Backend-agreement suite: the statevector and decision-diagram probe
// engines must return identical verdicts — and, on non-equivalence, the
// identical decisive run index and witnessing stimulus — on every escapee
// fixture and on generated circuit pairs, across 1/2/8 scheduler threads.
// The backends share the pre-drawn stimulus list and the sequential-replay
// judge, so any divergence here is an engine bug, not noise.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use qcec::{check_equivalence, BackendKind, Config, Outcome, Stimulus};

/// The verdict class plus (for simulation counterexamples) the decisive
/// run index and stimulus — everything that must match across engines.
/// Overlap values are deliberately excluded: sv and DD arithmetic agree to
/// ~1e-12, not bitwise.
#[derive(Debug, Clone, PartialEq)]
enum VerdictShape {
    Equivalent,
    NotEquivalentAt(usize, Stimulus),
    NotEquivalentByCompleteCheck,
    ProbablyEquivalent,
}

fn shape(outcome: &Outcome) -> VerdictShape {
    match outcome {
        Outcome::Equivalent | Outcome::EquivalentUpToGlobalPhase { .. } => VerdictShape::Equivalent,
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => VerdictShape::NotEquivalentAt(ce.run, ce.stimulus.clone()),
        Outcome::NotEquivalent {
            counterexample: None,
        } => VerdictShape::NotEquivalentByCompleteCheck,
        Outcome::ProbablyEquivalent { .. } => VerdictShape::ProbablyEquivalent,
    }
}

/// Checks one pair on the given backends across 1/2/8 worker threads and
/// asserts every run produces the same verdict shape.
fn assert_backends_agree(
    name: &str,
    g: &Circuit,
    g_prime: &Circuit,
    base: &Config,
    backends: &[BackendKind],
) {
    let mut reference: Option<VerdictShape> = None;
    for threads in [1usize, 2, 8] {
        for &backend in backends {
            let config = base.clone().with_threads(threads).with_backend(backend);
            let result = check_equivalence(g, g_prime, &config)
                .unwrap_or_else(|e| panic!("{name}: flow failed ({e})"));
            let got = shape(&result.outcome);
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(
                    expected, &got,
                    "{name}: {backend:?} × {threads} threads diverged"
                ),
            }
        }
    }
}

fn escapee_pairs() -> Vec<(String, Circuit, Circuit, u64)> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/escapees");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("escapee fixture directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".golden.qasm"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|golden_path| {
            let name = golden_path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .trim_end_matches(".golden.qasm")
                .to_string();
            let faulty_src = std::fs::read_to_string(
                golden_path
                    .to_string_lossy()
                    .replace(".golden.qasm", ".faulty.qasm"),
            )
            .unwrap();
            let seed: u64 = faulty_src
                .lines()
                .find_map(|l| l.strip_prefix("// escapes-seeds: "))
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.trim().parse().ok())
                .expect("escapes-seeds header");
            let golden = qcirc::qasm::parse(&std::fs::read_to_string(&golden_path).unwrap());
            (
                name,
                golden.unwrap(),
                qcirc::qasm::parse(&faulty_src).unwrap(),
                seed,
            )
        })
        .collect()
}

/// Escapee fixtures under their recorded escaping seeds: basis stimuli
/// miss on both engines (agreeing "probably equivalent" with the fallback
/// off), while stabilizer stimuli produce the *same* decisive run and
/// witness stimulus on both.
///
/// Every engine — the tensor-network one included — runs the basis arm:
/// on basis inputs the v-chain fixtures stay rank-compressed, so the MPS
/// evolution is exact and cheap at 9–13 qubits. The stabilizer arm is
/// restricted to the dense, DD and tableau engines: a random stabilizer
/// stimulus is a volume-law state that saturates every bond, and driving
/// hundreds of long-range gates through saturated χ costs minutes per
/// fixture — the regime the MPS engine is explicitly not built for.
/// MPS-vs-dense agreement *under stabilizer stimuli* is covered at small
/// widths by `backends_agree_on_clifford_pairs` below.
#[test]
fn backends_agree_on_every_escapee_fixture() {
    use qcec::{Fallback, StimulusStrategy};
    const STABILIZER_ARM: &[BackendKind] = &[
        BackendKind::Statevector,
        BackendKind::DecisionDiagram,
        BackendKind::Stab,
    ];
    for (name, golden, faulty, seed) in escapee_pairs() {
        let sim_only = Config::new()
            .with_simulations(10)
            .with_seed(seed)
            .with_fallback(Fallback::None);
        assert_backends_agree(&name, &golden, &faulty, &sim_only, &BackendKind::ALL);
        let stabilizer = sim_only.clone().with_stimuli(StimulusStrategy::Stabilizer);
        assert_backends_agree(
            &format!("{name} [stabilizer]"),
            &golden,
            &faulty,
            &stabilizer,
            STABILIZER_ARM,
        );
    }
}

/// A trailing Z on an untouched qubit is a *phase-only* fault: every basis
/// stimulus comes back with `|⟨u|u′⟩| = 1` and only the sign varies with
/// the input bit. The stabilizer tableau certifies overlap magnitudes
/// alone, so on this all-Clifford pair its fast path can never convict —
/// under the default criterion the stab backend must let all simulations
/// pass and defer to the complete check, which still reaches
/// non-equivalence. Under [`Criterion::Strict`] the tableau path is
/// disabled entirely (it cannot observe the phase Strict cares about), so
/// the dense probes convict in simulation — same verdict class as sv,
/// reached through the sound path.
#[test]
fn stab_tableau_path_defers_phase_only_faults_to_the_complete_check() {
    use qcec::Criterion;
    let mut g = Circuit::new(3);
    g.h(1);
    g.cx(1, 2);
    let mut phased = g.clone();
    phased.z(0);

    // Default criterion: sv convicts by cross-run phase inconsistency; the
    // stab tableau path sees magnitude 1 on every run and must defer.
    let base = Config::new().with_simulations(10).with_seed(3);
    let sv = check_equivalence(
        &g,
        &phased,
        &base.clone().with_backend(BackendKind::Statevector),
    )
    .unwrap();
    assert!(
        matches!(
            &sv.outcome,
            Outcome::NotEquivalent {
                counterexample: Some(_)
            }
        ),
        "sv must catch the phase fault in simulation, got {}",
        sv.outcome
    );
    let stab =
        check_equivalence(&g, &phased, &base.clone().with_backend(BackendKind::Stab)).unwrap();
    assert_eq!(
        stab.outcome,
        Outcome::NotEquivalent {
            counterexample: None
        },
        "the tableau path cannot see phases: the complete check must convict"
    );
    // (`counterexample: None` already proves no simulation convicted; the
    // scheduler may cancel trailing sims once the complete check wins the
    // race, so the exact count is not pinned.)
    assert!(stab.stats.simulations_run > 0, "simulations must have run");

    // Strict: the tableau path is disabled, probes run densely, and the
    // −1 overlap is a first-class output mismatch.
    let strict = base.with_criterion(Criterion::Strict);
    let stab_strict =
        check_equivalence(&g, &phased, &strict.with_backend(BackendKind::Stab)).unwrap();
    assert!(
        matches!(
            &stab_strict.outcome,
            Outcome::NotEquivalent {
                counterexample: Some(_)
            }
        ),
        "under Strict the dense fallback must convict in simulation, got {}",
        stab_strict.outcome
    );
}

/// The MPS probe path past the dense wall: a 32-qubit pair no statevector
/// can hold. The GHZ ladder keeps the bond dimension at 2, so the default
/// χ runs exactly — an equivalent routing is proven (`truncation_error ==
/// 0` means the "all agreed" verdict carries full weight) and a stray T
/// gate on the entangled register is convicted in simulation.
#[test]
fn mps_flow_reaches_verdicts_past_the_dense_wall() {
    use qcec::Fallback;
    let n = 32;
    let g = generators::ghz(n);
    // An equivalent realization: the same ladder with a cancelled pair.
    let mut same = g.clone();
    same.x(7).x(7);
    let mut buggy = g.clone();
    buggy.t(n - 1);
    let config = Config::new()
        .with_simulations(6)
        .with_seed(11)
        .with_backend(BackendKind::Mps)
        .with_fallback(Fallback::None);
    let eq = check_equivalence(&g, &same, &config).unwrap();
    assert!(
        matches!(eq.outcome, Outcome::ProbablyEquivalent { .. }),
        "sim-only equivalent run: {}",
        eq.outcome
    );
    let ne = check_equivalence(&g, &buggy, &config).unwrap();
    assert!(
        matches!(
            ne.outcome,
            Outcome::NotEquivalent {
                counterexample: Some(_)
            }
        ),
        "T after the ladder phases only the |1…1⟩ branch: {}",
        ne.outcome
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exact-regime cross-check of the tensor-network arithmetic itself:
    /// with an uncapped bond dimension the MPS evolution is exact, so the
    /// inner product of two evolved stimuli must match the dense
    /// statevector overlap to near machine precision — and report zero
    /// truncation error while doing it.
    #[test]
    fn mps_inner_products_match_dense_overlaps_exactly(
        n in 2usize..6,
        basis in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let c = generators::random_clifford_t(n, 40, seed);
        let optimized = qcirc::optimize::optimize(&c);
        let basis = basis % (1u64 << n);
        let chi = 1 << n; // ≥ any Schmidt rank at this width: exact
        let mut a = qmpo::Mps::basis_state(n, basis);
        let mut b = qmpo::Mps::basis_state(n, basis);
        for gate in c.gates() {
            a.apply_gate(gate, chi);
        }
        for gate in optimized.gates() {
            b.apply_gate(gate, chi);
        }
        prop_assert_eq!(a.truncation_error(), 0.0);
        prop_assert_eq!(b.truncation_error(), 0.0);
        let sim = Simulator::new();
        let u = sim.run_basis(&c, basis);
        let v = sim.run_basis(&optimized, basis);
        let dense: qnum::Complex = u
            .amplitudes()
            .iter()
            .zip(v.amplitudes())
            .map(|(x, y)| x.conj() * *y)
            .sum();
        let tn = a.inner_product(&b);
        prop_assert!(
            (tn - dense).norm_sqr() < 1e-18,
            "n={} basis={}: mps {} vs dense {}", n, basis, tn, dense
        );
    }

    /// Generated pairs — an equivalent optimization and a seeded injected
    /// fault — keep both engines in lockstep across scheduler widths.
    #[test]
    fn backends_agree_on_generated_pairs(n in 3usize..6, seed in any::<u64>()) {
        let c = generators::random_clifford_t(n, 50, seed);
        let optimized = qcirc::optimize::optimize(&c);
        let base = Config::new().with_seed(seed);
        assert_backends_agree("optimized pair", &c, &optimized, &base, &BackendKind::ALL);
        let mut buggy = c.clone();
        buggy.x((seed % n as u64) as usize);
        assert_backends_agree("injected fault", &c, &buggy, &base, &BackendKind::ALL);
    }

    /// Pure-Clifford pairs: the stabilizer engine takes its O(n²) tableau
    /// path end to end (no dense fallback), and must reach the same
    /// verdict *class* as the engines that simulate amplitudes for real,
    /// across 1/2/8 scheduler threads. The comparison is by class, not by
    /// decisive run: the tableau path certifies overlap magnitudes, so a
    /// fault visible only as a stimulus-dependent *phase* is — by design,
    /// see the `StabBackend` docs — left to the complete check, which can
    /// shift the detection stage relative to sv without changing the
    /// verdict.
    #[test]
    fn backends_agree_on_clifford_pairs(n in 3usize..7, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let c = qstab::random_stabilizer_circuit(n, &mut rng);
        let optimized = qcirc::optimize::optimize(&c);
        let mut buggy = c.clone();
        buggy.x((seed % n as u64) as usize);
        for (name, g, g_prime, want_equal) in [
            ("clifford optimized", &c, &optimized, true),
            ("clifford fault", &c, &buggy, false),
        ] {
            for threads in [1usize, 2, 8] {
                for backend in BackendKind::ALL {
                    let config = Config::new()
                        .with_seed(seed)
                        .with_threads(threads)
                        .with_backend(backend)
                        .with_stimuli(qcec::StimulusStrategy::Stabilizer);
                    let result = check_equivalence(g, g_prime, &config).unwrap();
                    prop_assert_eq!(
                        result.outcome.is_equivalent(),
                        want_equal,
                        "{}: {:?} x {} threads: {}",
                        name, backend, threads, result.outcome
                    );
                }
            }
        }
    }
}

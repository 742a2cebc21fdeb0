//! Properties of the `qstim` stimulus sources — the contracts the
//! scheduler's determinism guarantees are built on.

use proptest::prelude::*;
use qcec::{BackendKind, Config, Outcome, StimulusStrategy};
use qstim::{ProductSource, StabilizerSource, Stimulus, StimulusSource};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stabilizer stimulus is a valid Clifford prefix whose tableau
    /// round-trips: simulating the prefix on the tableau, re-synthesizing a
    /// circuit from the canonical stabilizers, and simulating *that* lands
    /// on the same stabilizer state.
    #[test]
    fn stabilizer_prefixes_roundtrip_their_tableau(
        n in 1usize..7,
        seed in any::<u64>(),
        index in 0usize..16,
    ) {
        let s = StabilizerSource::sample(n, seed, index);
        let prefix = s.prefix_circuit().expect("stabilizer stimuli carry a prefix");
        prop_assert_eq!(prefix.n_qubits(), n);
        prop_assert!(qstab::is_clifford(&prefix));

        let tableau = qstab::run(&prefix, 0).expect("prefix is Clifford");
        let resynth = qstab::synthesize_state(&tableau.canonical_stabilizers());
        let tableau2 = qstab::run(&resynth, 0).expect("synthesis is Clifford");
        prop_assert!(
            tableau.same_state(&tableau2),
            "re-synthesized circuit prepares a different stabilizer state"
        );
    }

    /// Product stimuli are pure per index: stimulus `i` of any draw equals
    /// the direct sample and never depends on `count` or earlier draws.
    #[test]
    fn product_draws_are_per_index_pure(
        n in 1usize..8,
        seed in any::<u64>(),
        count in 1usize..12,
    ) {
        let full = ProductSource.draw(n, seed, count);
        prop_assert_eq!(full.len(), count);
        for (i, s) in full.iter().enumerate() {
            prop_assert_eq!(s, &ProductSource::sample(n, seed, i));
            let Stimulus::Product(angles) = s else {
                panic!("product source drew {s}");
            };
            prop_assert_eq!(angles.len(), n);
        }
        // A longer draw is an extension, not a reshuffle.
        let longer = ProductSource.draw(n, seed, count + 3);
        prop_assert_eq!(&longer[..count], &full[..]);
    }

    /// Same per-index purity for stabilizer stimuli.
    #[test]
    fn stabilizer_draws_are_per_index_pure(
        n in 1usize..6,
        seed in any::<u64>(),
        count in 1usize..8,
    ) {
        let full = StabilizerSource.draw(n, seed, count);
        let longer = StabilizerSource.draw(n, seed, count + 2);
        prop_assert_eq!(&longer[..count], &full[..]);
        for (i, s) in full.iter().enumerate() {
            prop_assert_eq!(s, &StabilizerSource::sample(n, seed, i));
        }
    }

    /// `draw_stimuli` under the default (basis) strategy is a pure function
    /// of `(n_qubits, seed, simulations)`.
    #[test]
    fn basis_draws_are_pure(n in 1usize..20, seed in any::<u64>(), r in 1usize..12) {
        let config = Config::new().with_seed(seed).with_simulations(r);
        prop_assert_eq!(
            qcec::draw_stimuli(n, &config),
            qcec::draw_stimuli(n, &config)
        );
    }
}

/// The basis strategy reproduces the pre-`qstim` `draw_stimuli` RNG stream
/// bit for bit — golden values captured from the tree before the stimulus
/// sources were extracted. Seeds recorded in reports and the escapee corpus
/// stay replayable.
#[test]
fn basis_strategy_matches_pre_qstim_golden_draws() {
    let golden: [(usize, u64, usize, &[u64]); 4] = [
        (
            20,
            42,
            10,
            &[
                419999, 997265, 322956, 538040, 289395, 56957, 669014, 576326, 380103, 303316,
            ],
        ),
        (6, 0, 10, &[31, 7, 60, 26, 42, 46, 25, 63, 22, 40]),
        // 2³ ≤ r ⇒ full enumeration, seed irrelevant.
        (3, 7, 10, &[0, 1, 2, 3, 4, 5, 6, 7]),
        (
            12,
            123,
            8,
            &[2170, 1582, 2175, 3067, 2624, 1577, 3448, 2266],
        ),
    ];
    for (n, seed, r, expected) in golden {
        let config = Config::new().with_seed(seed).with_simulations(r);
        let drawn: Vec<u64> = qcec::draw_stimuli(n, &config)
            .into_iter()
            .map(|s| match s {
                Stimulus::Basis(b) => b,
                other => panic!("basis strategy drew {other}"),
            })
            .collect();
        assert_eq!(drawn, expected, "n={n} seed={seed} r={r}");
    }
}

#[test]
fn basis_draws_cover_registers_of_64_qubits_and_more() {
    for n in [64usize, 65, 128, 200] {
        for strategy in [StimulusStrategy::Random, StimulusStrategy::Sequential] {
            let config = Config::new()
                .with_seed(9)
                .with_simulations(10)
                .with_stimuli(strategy);
            let mut bases: Vec<u64> = qcec::draw_stimuli(n, &config)
                .iter()
                .map(Stimulus::basis_state)
                .collect();
            assert_eq!(bases.len(), 10, "n={n} {strategy}");
            bases.sort_unstable();
            bases.dedup();
            assert_eq!(bases.len(), 10, "n={n} {strategy}: duplicate stimuli");
        }
    }
}

#[test]
fn auto_checks_ghz_pairs_of_64_qubits_and_more() {
    // GHZ is Clifford (the tableau engine); the T twin is not (MPS). Past
    // 64 qubits the basis stimuli leave the top qubits in |0⟩.
    for n in [64usize, 70] {
        let g = qcirc::generators::ghz(n);
        let optimized = qcirc::optimize::optimize(&g);
        let mut faulty = optimized.clone();
        faulty.t(n - 1);
        let config = Config::new().with_backend(BackendKind::Auto);
        let same = qcec::check_equivalence(&g, &optimized, &config).unwrap();
        assert!(same.outcome.is_equivalent(), "n={n}: {}", same.outcome);
        let different = qcec::check_equivalence(&g, &faulty, &config).unwrap();
        assert!(
            matches!(different.outcome, Outcome::NotEquivalent { .. }),
            "n={n}: {}",
            different.outcome
        );
    }
}

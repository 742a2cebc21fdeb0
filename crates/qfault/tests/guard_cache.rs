//! The trimming guard must be *label-identical* to the stateless per-call
//! guard (trimming a shared prefix and suffix is exact), and composed
//! mutations that cancel each other must be labelled benign — the campaign
//! may swap one for the other freely without changing a single verdict.

use proptest::prelude::*;
use qcirc::generators;
use qfault::{mutator_for, registry, GuardCache, GuardOptions, MutationKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every cached-guard label on 50 seeded mutants exactly matches the
/// uncached per-trial guard label — including the benign phase payload.
#[test]
fn cached_guard_labels_match_uncached_on_50_seeded_mutants() {
    let goldens = [
        generators::qft(5, true),
        generators::grover(3, 5, generators::optimal_grover_iterations(3)),
    ];
    let opts = GuardOptions::default();
    let mut checked = 0usize;
    'outer: for golden in &goldens {
        let cache = GuardCache::new(golden, &opts);
        for (m_idx, mutator) in registry(0.2).iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(1000 * m_idx as u64 + seed);
                let Ok((mutated, record)) = mutator.apply(golden, &mut rng) else {
                    continue;
                };
                let cached = cache.classify(&mutated);
                let uncached = qfault::guard::classify(golden, &mutated, &opts);
                assert_eq!(
                    cached, uncached,
                    "{record}: cached guard labelled {cached}, uncached {uncached}"
                );
                checked += 1;
                if checked >= 50 {
                    break 'outer;
                }
            }
        }
    }
    assert!(checked >= 50, "only {checked} mutants labelled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mixed-class double faults that cancel — a spurious insertion undone
    /// by a removal drawn from a *different* mutator class — compose to the
    /// identity and must be guard-labelled benign, never fault.
    #[test]
    fn mixed_class_double_faults_cancelling_are_benign(seed in 0u64..10_000) {
        let golden = match seed % 3 {
            0 => generators::qft(4, true),
            1 => generators::ghz(5),
            _ => generators::grover(3, 5, 1),
        };
        let pairs = [
            (MutationKind::AddGate, MutationKind::RemoveGate),
            (MutationKind::AddControl, MutationKind::RemoveControl),
        ];
        let mut composed = 0usize;
        for (add_kind, remove_kind) in pairs {
            let add = mutator_for(add_kind, 0.1);
            let remove = mutator_for(remove_kind, 0.1);
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok((broken, _)) = add.apply(&golden, &mut rng) else {
                continue;
            };
            // Hunt the removal draw that undoes exactly this insertion
            // (mutators rename their output, so compare the gate lists);
            // uniform site choice makes one appear within a few hundred
            // seeds for these circuit sizes.
            let restored = (0..400u64).find_map(|rs| {
                let mut rrng = StdRng::seed_from_u64(rs);
                match remove.apply(&broken, &mut rrng) {
                    Ok((candidate, _)) if candidate.gates() == golden.gates() => Some(candidate),
                    _ => None,
                }
            });
            let Some(restored) = restored else { continue };
            composed += 1;
            let verdict =
                qfault::guard::classify(&golden, &restored, &GuardOptions::default());
            prop_assert!(
                verdict.is_benign(),
                "{add_kind}+{remove_kind} cancel to identity yet labelled {verdict}"
            );
        }
        prop_assert!(composed > 0, "no cancelling pair composed for seed {seed}");
    }
}

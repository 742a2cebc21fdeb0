//! Stimulus generation for simulation-based equivalence checking.
//!
//! The paper's flow feeds both circuits `r` random *computational basis*
//! states. That choice has a structural blind spot: an error gated on `c`
//! control qubits differs from the specification on a `2^{−c}` fraction of
//! basis columns, so each run misses it with probability `1 − 2^{−c}` — the
//! escapee corpus in this workspace pins real instances. Burgholzer,
//! Raymond & Wille's follow-up work shows that richer stimuli — random
//! local *product* states and random *stabilizer* states — spread every
//! input over all columns and drive the per-run miss probability toward
//! `2^{−n}` regardless of where the error sits.
//!
//! This crate packages all of those choices behind one trait:
//!
//! * [`Stimulus`] — one input state: a basis index, a layer of per-qubit
//!   `U3` rotations, or a Clifford prefix circuit preparing a stabilizer
//!   state. Non-basis stimuli are *prefix circuits* prepended to both
//!   circuits under check, so any backend that can simulate circuits can
//!   consume them.
//! * [`StimulusSource`] — draws the full pre-run stimulus list as a pure
//!   function of `(n_qubits, seed, count)`. Purity is the load-bearing
//!   contract: schedulers pre-draw the list once and fan indices across
//!   workers, so verdicts stay byte-identical for any worker count.
//! * [`BasisSource`], [`SequentialSource`], [`ProductSource`],
//!   [`StabilizerSource`] — the four strategies. Product and stabilizer
//!   stimuli are additionally pure *per index*
//!   ([`ProductSource::sample`], [`StabilizerSource::sample`]): stimulus
//!   `i` depends only on `(n_qubits, seed, i)`, never on the draws before
//!   it.
//!
//! # Examples
//!
//! ```
//! use qstim::{StimulusSource, StabilizerSource, Stimulus};
//!
//! let stimuli = StabilizerSource.draw(4, 7, 3);
//! assert_eq!(stimuli.len(), 3);
//! for s in &stimuli {
//!     let prefix = s.prefix_circuit().expect("stabilizer stimuli carry a prefix");
//!     assert_eq!(prefix.n_qubits(), 4);
//!     assert!(qstab::is_clifford(&prefix));
//! }
//! // Same (n, seed, count) ⇒ same stimuli, always.
//! assert_eq!(stimuli, StabilizerSource.draw(4, 7, 3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::f64::consts::TAU;
use std::fmt;

use qcirc::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `U3` angles preparing one qubit of a product-state stimulus:
/// `U3(θ, φ, λ)|0⟩ = cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductAngles {
    /// Polar angle θ, drawn so `cos θ` is uniform (the Haar marginal).
    pub theta: f64,
    /// Relative phase φ, uniform in `[0, 2π)`.
    pub phi: f64,
    /// Trailing phase λ, uniform in `[0, 2π)` (irrelevant on `|0⟩` input
    /// but kept so the prefix is a fully specified unitary).
    pub lambda: f64,
}

/// One simulation stimulus: the input state fed to both circuits of an
/// equivalence probe.
#[derive(Debug, Clone, PartialEq)]
pub enum Stimulus {
    /// The computational basis state `|b⟩` — the paper's choice. No prefix
    /// circuit; backends start directly from the basis state.
    Basis(u64),
    /// An unentangled product state: one `U3` rotation per qubit, applied
    /// to `|0…0⟩` as a depth-1 prefix.
    Product(Vec<ProductAngles>),
    /// A stabilizer state, carried as the Clifford circuit preparing it
    /// from `|0…0⟩` (synthesized by [`qstab::synthesize_state`]).
    Stabilizer(Circuit),
}

impl Stimulus {
    /// The basis state the backend starts from: `b` for [`Stimulus::Basis`],
    /// `|0…0⟩` for the prefixed variants.
    #[must_use]
    pub fn basis_state(&self) -> u64 {
        match self {
            Stimulus::Basis(b) => *b,
            Stimulus::Product(_) | Stimulus::Stabilizer(_) => 0,
        }
    }

    /// The preparation circuit to prepend to *both* circuits under check,
    /// or `None` for plain basis stimuli.
    #[must_use]
    pub fn prefix_circuit(&self) -> Option<Circuit> {
        match self {
            Stimulus::Basis(_) => None,
            Stimulus::Product(angles) => {
                let mut c = Circuit::with_name(angles.len(), "product-stimulus");
                for (q, a) in angles.iter().enumerate() {
                    c.u3(a.theta, a.phi, a.lambda, q);
                }
                Some(c)
            }
            Stimulus::Stabilizer(c) => Some(c.clone()),
        }
    }

    /// Short machine-readable kind tag: `basis`, `product` or `stabilizer`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Stimulus::Basis(_) => "basis",
            Stimulus::Product(_) => "product",
            Stimulus::Stabilizer(_) => "stabilizer",
        }
    }
}

impl fmt::Display for Stimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stimulus::Basis(b) => write!(f, "|{b}⟩"),
            Stimulus::Product(angles) => write!(f, "product state ({} qubits)", angles.len()),
            Stimulus::Stabilizer(c) => write!(
                f,
                "stabilizer state ({} qubits, {}-gate prefix)",
                c.n_qubits(),
                c.len()
            ),
        }
    }
}

/// A deterministic stimulus generator.
///
/// # Determinism contract
///
/// `draw(n_qubits, seed, count)` must be a **pure function** of its three
/// arguments: no hidden state, no dependence on call order. The checking
/// flow pre-draws the full list once and fans indices across worker
/// threads; purity is what keeps parallel verdicts byte-identical to the
/// sequential flow for any worker count.
pub trait StimulusSource {
    /// The strategy's machine-readable name (`basis`, `sequential`,
    /// `product`, `stabilizer`).
    fn name(&self) -> &'static str;

    /// Draws the stimulus list for one flow invocation.
    fn draw(&self, n_qubits: usize, seed: u64, count: usize) -> Vec<Stimulus>;
}

/// Uniformly random *distinct* computational basis states — the paper's
/// strategy. When the state space is no larger than `count`, every basis
/// state is enumerated instead (making the simulation stage complete).
///
/// The draw reproduces the RNG stream of the original
/// `qcec::sim_check::draw_stimuli` bit for bit: one `StdRng` seeded with
/// `seed`, rejection-sampling distinct states. Distinctness makes the
/// stimuli *jointly* dependent, so this source is pure per draw, not per
/// index.
///
/// A basis index is a `u64`, one bit per qubit: on registers of 64 or
/// more qubits the draw covers the whole `u64` range and qubits ≥ 64 start
/// in `|0⟩`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasisSource;

impl StimulusSource for BasisSource {
    fn name(&self) -> &'static str {
        "basis"
    }

    fn draw(&self, n_qubits: usize, seed: u64, count: usize) -> Vec<Stimulus> {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = basis_space(n_qubits);
        if let Some(space) = space.filter(|&space| space <= count as u64) {
            return (0..space).map(Stimulus::Basis).collect();
        }
        let mut chosen: Vec<u64> = Vec::with_capacity(count);
        while chosen.len() < count {
            let candidate = match space {
                Some(space) => rng.gen_range(0..space),
                None => rng.gen_range(0..=u64::MAX),
            };
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        chosen.into_iter().map(Stimulus::Basis).collect()
    }
}

/// The first `count` basis states `|0⟩, |1⟩, …` — the naive ablation
/// baseline. Ignores the seed by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialSource;

impl StimulusSource for SequentialSource {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn draw(&self, n_qubits: usize, _seed: u64, count: usize) -> Vec<Stimulus> {
        let space = basis_space(n_qubits).unwrap_or(u64::MAX);
        (0..space.min(count as u64)).map(Stimulus::Basis).collect()
    }
}

/// The number of `n_qubits`-qubit basis states, or `None` when it does not
/// fit a `u64` (64 qubits or more).
fn basis_space(n_qubits: usize) -> Option<u64> {
    u32::try_from(n_qubits)
        .ok()
        .and_then(|n| 1u64.checked_shl(n))
}

/// Random unentangled product states: per qubit, an independent Haar-random
/// single-qubit state expressed as `U3` angles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProductSource;

impl ProductSource {
    /// Samples stimulus `index` as a pure function of
    /// `(n_qubits, seed, index)`.
    #[must_use]
    pub fn sample(n_qubits: usize, seed: u64, index: usize) -> Stimulus {
        let mut rng = StdRng::seed_from_u64(index_seed(seed, index));
        let angles = (0..n_qubits)
            .map(|_| ProductAngles {
                // cos θ uniform in [−1, 1] ⇒ |⟨0|ψ⟩|² uniform: the Haar
                // marginal of a single qubit.
                theta: (1.0 - 2.0 * rng.gen::<f64>()).acos(),
                phi: TAU * rng.gen::<f64>(),
                lambda: TAU * rng.gen::<f64>(),
            })
            .collect();
        Stimulus::Product(angles)
    }
}

impl StimulusSource for ProductSource {
    fn name(&self) -> &'static str {
        "product"
    }

    fn draw(&self, n_qubits: usize, seed: u64, count: usize) -> Vec<Stimulus> {
        (0..count)
            .map(|i| ProductSource::sample(n_qubits, seed, i))
            .collect()
    }
}

/// Uniformly random stabilizer states, carried as Clifford preparation
/// circuits (drawn by [`qstab::random_stabilizer_rows`], lowered by
/// [`qstab::synthesize_state`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StabilizerSource;

impl StabilizerSource {
    /// Samples stimulus `index` as a pure function of
    /// `(n_qubits, seed, index)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`.
    #[must_use]
    pub fn sample(n_qubits: usize, seed: u64, index: usize) -> Stimulus {
        let mut rng = StdRng::seed_from_u64(index_seed(seed, index));
        Stimulus::Stabilizer(qstab::random_stabilizer_circuit(n_qubits, &mut rng))
    }
}

impl StimulusSource for StabilizerSource {
    fn name(&self) -> &'static str {
        "stabilizer"
    }

    fn draw(&self, n_qubits: usize, seed: u64, count: usize) -> Vec<Stimulus> {
        (0..count)
            .map(|i| StabilizerSource::sample(n_qubits, seed, i))
            .collect()
    }
}

/// Derives the per-index RNG seed, SplitMix64-style: nearby `(seed, index)`
/// pairs get unrelated streams, and stimulus `i` never depends on how many
/// stimuli were drawn before it.
fn index_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed;
    for salt in [0xC0FF_EE00_5EED_5EEDu64, index as u64] {
        z = z
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_draws_are_distinct_and_in_range() {
        let stimuli = BasisSource.draw(10, 1, 50);
        assert_eq!(stimuli.len(), 50);
        let mut seen = std::collections::HashSet::new();
        for s in &stimuli {
            let Stimulus::Basis(b) = s else {
                panic!("basis source drew {s}");
            };
            assert!(*b < 1024);
            assert!(seen.insert(*b), "duplicate basis state {b}");
        }
    }

    #[test]
    fn small_spaces_enumerate() {
        let stimuli = BasisSource.draw(2, 9, 10);
        assert_eq!(
            stimuli,
            (0..4).map(Stimulus::Basis).collect::<Vec<_>>(),
            "2² ≤ 10 must enumerate every basis state"
        );
    }

    #[test]
    fn sequential_ignores_the_seed() {
        assert_eq!(
            SequentialSource.draw(5, 0, 4),
            SequentialSource.draw(5, 77, 4)
        );
        assert_eq!(
            SequentialSource.draw(2, 0, 10).len(),
            4,
            "sequential stimuli stop at the space boundary"
        );
    }

    #[test]
    fn product_samples_are_per_index_pure() {
        let full = ProductSource.draw(6, 3, 8);
        for (i, s) in full.iter().enumerate() {
            assert_eq!(*s, ProductSource::sample(6, 3, i));
        }
        assert_ne!(
            full[0], full[1],
            "independent indices draw different states"
        );
        let Stimulus::Product(angles) = &full[0] else {
            panic!("product source drew {}", full[0]);
        };
        assert_eq!(angles.len(), 6);
        for a in angles {
            assert!((0.0..=std::f64::consts::PI).contains(&a.theta));
            assert!((0.0..TAU).contains(&a.phi));
            assert!((0.0..TAU).contains(&a.lambda));
        }
    }

    #[test]
    fn stabilizer_samples_are_per_index_pure_and_clifford() {
        let full = StabilizerSource.draw(5, 11, 6);
        for (i, s) in full.iter().enumerate() {
            assert_eq!(*s, StabilizerSource::sample(5, 11, i));
            let prefix = s.prefix_circuit().unwrap();
            assert_eq!(prefix.n_qubits(), 5);
            assert!(qstab::is_clifford(&prefix), "stimulus {i} is not Clifford");
        }
    }

    #[test]
    fn product_prefix_prepares_the_sampled_amplitudes() {
        let s = ProductSource::sample(3, 5, 0);
        let Stimulus::Product(angles) = &s else {
            unreachable!()
        };
        let prefix = s.prefix_circuit().unwrap();
        let out = qsim::Simulator::new().run_basis(&prefix, 0);
        // |⟨0…0|ψ⟩| = ∏ cos(θ_q / 2).
        let expected: f64 = angles.iter().map(|a| (a.theta / 2.0).cos()).product();
        assert!((out.amplitude(0).norm_sqr().sqrt() - expected.abs()).abs() < 1e-12);
        assert!(out.is_normalized());
    }

    #[test]
    fn display_names_the_kind() {
        assert_eq!(Stimulus::Basis(5).to_string(), "|5⟩");
        assert_eq!(Stimulus::Basis(5).kind(), "basis");
        let p = ProductSource::sample(2, 0, 0);
        assert!(p.to_string().contains("product"));
        let st = StabilizerSource::sample(2, 0, 0);
        assert!(st.to_string().contains("stabilizer"));
        assert_eq!(st.basis_state(), 0);
        assert_eq!(Stimulus::Basis(5).basis_state(), 5);
        assert!(Stimulus::Basis(5).prefix_circuit().is_none());
    }
}

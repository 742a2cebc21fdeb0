//! Content-addressed identities for circuits, configurations, and jobs.
//!
//! The verdict cache ([`crate::service::cache`]) must answer "have we
//! checked this exact pair under this exact configuration before?" without
//! holding the circuits themselves. This module supplies the keys:
//!
//! - [`CircuitId`] — a 128-bit fingerprint of a circuit's canonical byte
//!   encoding ([`qcirc::canon`]), a pure function of the circuit
//!   semantics-as-written: gate list, normalized angles, sorted control
//!   sets, qubit count. Names and other metadata don't contribute.
//! - [`ConfigDigest`] — a 64-bit fingerprint of every [`Config`] field
//!   that can change a verdict. `threads` is deliberately excluded (the
//!   scheduler's determinism contract makes verdicts thread-count
//!   invariant), as is the `event_sink` (observability, not semantics).
//! - [`JobKey`] — `(CircuitId, CircuitId, ConfigDigest)`: the cache key
//!   for one equivalence-checking job. Direction matters: checking
//!   `(G, G′)` and `(G′, G)` are distinct jobs.
//!
//! The hash is a seeded two-lane FNV-1a-64 variant with a SplitMix64
//! finalizer — streaming, dependency-free, and stable across platforms
//! (all arithmetic is wrapping on fixed-width integers). It is **not**
//! cryptographic; the cache tolerates the astronomically unlikely
//! collision the same way any content-addressed store of 2⁻¹²⁸ risk does.

use std::fmt;

use qcirc::Circuit;

use crate::config::{BackendKind, Config, Criterion, Fallback, StimulusStrategy};

/// Domain-separation seed for the service fingerprints. Changing it
/// invalidates every persisted cache key, so treat it as part of the
/// format version.
const SERVICE_SEED: u64 = 0x51a5_e9c3_0b7d_2f11;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64 mixing step: a cheap bijective avalanche on 64 bits.
#[must_use]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded streaming hasher producing 128 bits from two decorrelated
/// FNV-1a lanes.
#[derive(Debug, Clone)]
struct Fingerprinter {
    lane_lo: u64,
    lane_hi: u64,
}

impl Fingerprinter {
    fn new(seed: u64) -> Self {
        Fingerprinter {
            lane_lo: FNV_OFFSET ^ splitmix64(seed),
            lane_hi: FNV_OFFSET ^ splitmix64(seed ^ 0x5ee5_1eaf_0ddb_a11d),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane_lo = (self.lane_lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            // The high lane sees each byte complemented so the lanes
            // diverge even though they share the FNV prime.
            self.lane_hi = (self.lane_hi ^ u64::from(!b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u128 {
        let lo = splitmix64(self.lane_lo);
        let hi = splitmix64(self.lane_hi ^ self.lane_lo.rotate_left(32));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// The 128-bit content-addressed identity of a circuit.
///
/// Two circuits get the same id exactly when their canonical encodings
/// ([`qcirc::canon::encode_circuit`]) are byte-identical: same qubit
/// count, same gate sequence, same (normalized) parameters.
///
/// # Examples
///
/// ```
/// use qcec::CircuitId;
///
/// let g = qcirc::generators::ghz(4);
/// assert_eq!(CircuitId::of(&g), CircuitId::of(&g.clone()));
/// assert_ne!(CircuitId::of(&g), CircuitId::of(&qcirc::generators::ghz(5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(u128);

impl CircuitId {
    /// Fingerprints a circuit.
    #[must_use]
    pub fn of(circuit: &Circuit) -> Self {
        let mut h = Fingerprinter::new(SERVICE_SEED);
        h.write(&qcirc::canon::encode_circuit(circuit));
        CircuitId(h.finish())
    }
}

impl fmt::Display for CircuitId {
    /// Renders as 32 lowercase hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The 64-bit digest of the verdict-relevant [`Config`] fields.
///
/// Excluded by design: `threads` (verdicts are thread-count invariant per
/// the scheduler's determinism contract) and `event_sink` (pure
/// observability). Everything
/// else — simulation count, seed, tolerance, criterion, backend,
/// fallback, stimulus strategy, deadline, DD node limit, bond cap,
/// Clifford peeling — contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigDigest(u64);

impl ConfigDigest {
    /// Digests a configuration.
    #[must_use]
    pub fn of(config: &Config) -> Self {
        let mut h = Fingerprinter::new(SERVICE_SEED ^ 0xc0f1_6d16_e570_0001);
        h.write_u64(config.simulations as u64);
        h.write_u64(config.seed);
        h.write_u64(config.fidelity_tolerance.to_bits());
        h.write(&[
            match config.criterion {
                Criterion::Strict => 0,
                Criterion::UpToGlobalPhase => 1,
            },
            match config.backend {
                BackendKind::Statevector => 0,
                BackendKind::DecisionDiagram => 1,
                BackendKind::Stab => 2,
                BackendKind::Mps => 3,
                // Distinct from every concrete engine: an `Auto` job's
                // verdict depends on the resolution heuristic, so it must
                // not share cache entries with an explicit selection.
                BackendKind::Auto => 4,
            },
            match config.fallback {
                Fallback::Alternating => 0,
                Fallback::None => 1,
            },
            match config.stimuli {
                StimulusStrategy::Random => 0,
                StimulusStrategy::Sequential => 1,
                StimulusStrategy::Product => 2,
                StimulusStrategy::Stabilizer => 3,
            },
            u8::from(config.peel),
        ]);
        match config.deadline {
            None => h.write(&[0]),
            Some(d) => {
                h.write(&[1]);
                h.write_u64(d.as_nanos() as u64);
            }
        }
        h.write_u64(config.dd_node_limit as u64);
        h.write_u64(config.chi_max as u64);
        ConfigDigest(h.finish() as u64)
    }
}

impl fmt::Display for ConfigDigest {
    /// Renders as 16 lowercase hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The cache key of one equivalence-checking job:
/// `(CircuitId(G), CircuitId(G′), ConfigDigest)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey {
    /// Fingerprint of the left circuit `G`.
    pub g: CircuitId,
    /// Fingerprint of the right circuit `G′`.
    pub g_prime: CircuitId,
    /// Digest of the verdict-relevant configuration.
    pub config: ConfigDigest,
}

impl JobKey {
    /// Computes the key for a `(G, G′, config)` job.
    #[must_use]
    pub fn new(g: &Circuit, g_prime: &Circuit, config: &Config) -> Self {
        JobKey {
            g: CircuitId::of(g),
            g_prime: CircuitId::of(g_prime),
            config: ConfigDigest::of(config),
        }
    }

    /// A well-mixed 64-bit hash of the key, used for shard selection.
    #[must_use]
    pub(crate) fn shard_hash(&self) -> u64 {
        splitmix64(
            (self.g.0 as u64)
                ^ (self.g.0 >> 64) as u64
                ^ ((self.g_prime.0 as u64).rotate_left(17))
                ^ ((self.g_prime.0 >> 64) as u64).rotate_left(31)
                ^ self.config.0.rotate_left(7),
        )
    }
}

impl fmt::Display for JobKey {
    /// Renders as `g:g_prime:config` in hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.g, self.g_prime, self.config)
    }
}

/// Derives the per-job RNG seed from the base seed and the two circuit
/// fingerprints, so that (a) every distinct pair gets its own stimulus
/// stream and (b) resubmitting the same pair reuses the same stream —
/// which is what lets identical submissions share one [`JobKey`].
#[must_use]
pub fn derive_seed(base: u64, g: &CircuitId, g_prime: &CircuitId) -> u64 {
    let mut s = splitmix64(base ^ SERVICE_SEED);
    s = splitmix64(s ^ (g.0 as u64) ^ ((g.0 >> 64) as u64).rotate_left(13));
    splitmix64(s ^ (g_prime.0 as u64) ^ ((g_prime.0 >> 64) as u64).rotate_left(29))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn circuit_id_is_content_addressed() {
        let g = qcirc::generators::qft(4, true);
        assert_eq!(CircuitId::of(&g), CircuitId::of(&g.clone()));
        let mut g2 = g.clone();
        g2.x(0);
        assert_ne!(CircuitId::of(&g), CircuitId::of(&g2));
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let id = CircuitId::of(&qcirc::generators::ghz(3));
        let s = id.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        let key = JobKey::new(
            &qcirc::generators::ghz(3),
            &qcirc::generators::ghz(3),
            &Config::default(),
        );
        assert_eq!(key.to_string().len(), 32 + 1 + 32 + 1 + 16);
    }

    #[test]
    fn config_digest_tracks_semantics_not_observability() {
        use std::sync::Arc;
        let base = Config::default();
        assert_eq!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default())
        );
        // Verdict-relevant knobs change the digest…
        assert_ne!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_simulations(11))
        );
        assert_ne!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_seed(1))
        );
        assert_ne!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_deadline(Some(Duration::from_secs(1))))
        );
        // The bond cap changes what a truncated MPS verdict can claim.
        assert_ne!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_chi_max(8))
        );
        assert_ne!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_backend(BackendKind::Mps))
        );
        assert_ne!(
            ConfigDigest::of(&Config::default().with_backend(BackendKind::Auto)),
            ConfigDigest::of(&Config::default().with_backend(BackendKind::Mps))
        );
        // …thread count and sinks do not.
        assert_eq!(
            ConfigDigest::of(&base),
            ConfigDigest::of(&Config::default().with_threads(8))
        );
        assert_eq!(
            ConfigDigest::of(&base),
            ConfigDigest::of(
                &Config::default()
                    .with_event_sink(Arc::new(crate::scheduler::CollectingSink::new()))
            )
        );
    }

    #[test]
    fn job_key_is_directional() {
        let g = qcirc::generators::ghz(3);
        let mut g2 = g.clone();
        g2.z(0);
        let c = Config::default();
        assert_ne!(JobKey::new(&g, &g2, &c), JobKey::new(&g2, &g, &c));
        assert_eq!(JobKey::new(&g, &g2, &c), JobKey::new(&g, &g2, &c));
    }

    #[test]
    fn derived_seeds_differ_across_pairs_and_bases() {
        let a = CircuitId::of(&qcirc::generators::ghz(3));
        let b = CircuitId::of(&qcirc::generators::ghz(4));
        assert_ne!(derive_seed(0, &a, &b), derive_seed(0, &b, &a));
        assert_ne!(derive_seed(0, &a, &b), derive_seed(1, &a, &b));
        assert_eq!(derive_seed(7, &a, &b), derive_seed(7, &a, &b));
    }
}

//! The one hasher behind every table of the package.
//!
//! Hash-consing is a loop of lookups on small fixed-size keys (a node, a
//! pair of node ids, a weight-bucket coordinate), and std's SipHash-1-3
//! costs more than the lookups it guards. Every qdd map therefore keys
//! through this multiply-rotate hasher (the Fx hash of rustc and
//! Firefox): one rotate, xor and multiply per word.
//!
//! Results cannot depend on the hash function: every lookup is exact (a
//! hit needs an equal key) and no qdd map is iterated, so the hasher
//! decides how fast a lookup is, never what it returns. Keys are arena
//! indices and bucket coordinates the package mints itself, and every
//! check runs under a deadline and a node limit, so even colliding keys
//! can only slow a run down within those bounds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx hash's multiplier: an odd constant with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: per word, the state is rotated, xored with the word and
/// multiplied by [`SEED`].
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    // No qdd key hashes raw bytes; integers take the one-word paths below.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

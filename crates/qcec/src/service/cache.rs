//! The sharded, bounded, thread-safe verdict cache.
//!
//! Maps [`JobKey`] → [`CachedVerdict`]: the verdict class, the
//! counterexample witness, and the timings-free report fragment rendered
//! exactly once at miss time — so a cache hit can replay a byte-identical
//! report line without re-rendering anything.
//!
//! The cache is sharded (key-hash-selected `Mutex<HashMap>` shards) so
//! batch workers rarely contend, bounded by a total capacity with
//! per-shard least-recently-used eviction, and instrumented with atomic
//! hit/miss/insertion/eviction counters ([`CacheStats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::outcome::{FlowResult, Outcome};
use crate::report::json::Obj;

use super::fingerprint::JobKey;

/// A verdict as stored in (and served from) the cache.
///
/// Carries no wall-clock data at all: two runs of the same job at
/// different speeds must cache identically, and a hit must be
/// byte-identical to the miss that populated it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// The typed verdict (including any counterexample).
    pub outcome: Outcome,
    /// How many simulations the original run performed.
    pub simulations_run: usize,
    /// The timings-free verdict fragment, rendered once at miss time:
    /// `{"verdict":…,"sims":…,"counterexample":…}`.
    pub json: String,
}

impl CachedVerdict {
    /// Distils a flow result into its cacheable form (verdict + witness +
    /// pre-rendered fragment; timings dropped).
    #[must_use]
    pub fn from_result(result: &FlowResult) -> Self {
        let (verdict, witness) = crate::report::verdict_and_witness(&result.outcome);
        let mut o = Obj::new();
        o.str("verdict", verdict)
            .int("sims", result.stats.simulations_run as u64);
        if witness.is_empty() {
            o.raw("counterexample", "null");
        } else {
            o.str("counterexample", &witness);
        }
        CachedVerdict {
            outcome: result.outcome.clone(),
            simulations_run: result.stats.simulations_run,
            json: o.render(),
        }
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Renders the counters as a stable JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.int("hits", self.hits)
            .int("misses", self.misses)
            .int("insertions", self.insertions)
            .int("evictions", self.evictions)
            .int("entries", self.entries as u64);
        o.render()
    }
}

#[derive(Debug)]
struct Entry {
    verdict: CachedVerdict,
    last_used: u64,
}

/// A sharded, bounded, thread-safe `JobKey → CachedVerdict` map.
///
/// # Examples
///
/// ```
/// use qcec::{CachedVerdict, Config, JobKey, VerdictCache};
///
/// let g = qcirc::generators::ghz(3);
/// let key = JobKey::new(&g, &g, &Config::default());
/// let cache = VerdictCache::new(64);
/// assert!(cache.get(&key).is_none());
/// let result = qcec::check_equivalence_default(&g, &g).unwrap();
/// cache.insert(key, CachedVerdict::from_result(&result));
/// assert!(cache.get(&key).is_some());
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct VerdictCache {
    shards: Vec<Mutex<HashMap<JobKey, Entry>>>,
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictCache {
    /// Default shard count: enough that a small worker pool rarely
    /// contends, few enough that tiny caches still hold entries.
    const DEFAULT_SHARDS: usize = 8;

    /// Creates a cache bounded to roughly `capacity` entries total
    /// (rounded up to a multiple of the shard count), evicting LRU.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (power of two not
    /// required). Each shard holds up to `⌈capacity / shards⌉` entries,
    /// with a minimum of one.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        VerdictCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &JobKey) -> &Mutex<HashMap<JobKey, Entry>> {
        let idx = (key.shard_hash() % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Looks a key up, bumping its recency and the hit/miss counters.
    #[must_use]
    pub fn get(&self, key: &JobKey) -> Option<CachedVerdict> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.get_mut(key) {
            Some(entry) => {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.verdict.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a verdict, evicting the least recently used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: JobKey, verdict: CachedVerdict) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if !shard.contains_key(&key) && shard.len() >= self.shard_capacity {
            let victim = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        shard.insert(
            key,
            Entry {
                verdict,
                last_used: now,
            },
        );
    }

    /// The number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FlowStats;
    use crate::Config;

    fn verdict(sims: usize) -> CachedVerdict {
        CachedVerdict::from_result(&FlowResult {
            outcome: Outcome::Equivalent,
            stats: FlowStats {
                simulations_run: sims,
                ..FlowStats::default()
            },
        })
    }

    fn key_for(tag: u64) -> JobKey {
        let mut g = qcirc::Circuit::new(3);
        g.h(0);
        let mut g2 = g.clone();
        g2.x((tag % 3) as usize);
        JobKey::new(&g, &g2, &Config::default().with_seed(tag))
    }

    #[test]
    fn hit_returns_what_was_inserted() {
        let cache = VerdictCache::new(16);
        let key = key_for(0);
        assert!(cache.get(&key).is_none());
        cache.insert(key, verdict(5));
        let got = cache.get(&key).unwrap();
        assert_eq!(got.simulations_run, 5);
        assert_eq!(
            got.json,
            r#"{"verdict":"equivalent","sims":5,"counterexample":null}"#
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn capacity_bounds_and_lru_evicts() {
        // One shard makes the LRU order fully observable.
        let cache = VerdictCache::with_shards(3, 1);
        let keys: Vec<JobKey> = (0..4).map(key_for).collect();
        for (i, k) in keys.iter().take(3).enumerate() {
            cache.insert(*k, verdict(i));
        }
        assert_eq!(cache.len(), 3);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[3], verdict(3));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[3]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stats_json_is_stable() {
        let cache = VerdictCache::new(8);
        let _ = cache.get(&key_for(9));
        assert_eq!(
            cache.stats().to_json(),
            r#"{"hits":0,"misses":1,"insertions":0,"evictions":0,"entries":0}"#
        );
    }
}

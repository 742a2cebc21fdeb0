//! The long-running equivalence-checking service layer.
//!
//! The paper's flow is one-shot: parse `G` and `G′`, run the
//! simulation/complete-check pipeline, print a verdict. A checker serving
//! a CI fleet sees the *same* circuits over and over — most pairs of a
//! regression suite don't change between runs — so this layer makes the
//! flow persistent:
//!
//! - [`fingerprint`] gives every circuit a content-addressed identity
//!   ([`CircuitId`]) and every `(G, G′, Config)` job a cache key
//!   ([`JobKey`]);
//! - [`cache`] is the sharded, bounded, thread-safe verdict store
//!   ([`VerdictCache`]) answering repeat submissions without simulating;
//! - [`queue`] batches submissions, dedupes in-flight keys, and fans
//!   unique jobs across the shared ordered worker pool with results
//!   merged in submission order (byte-identical at any worker count);
//! - [`manager`] is the `EquivalenceCheckingManager`-shaped facade tying
//!   them together, with an append-only, replayable JSONL report stream.
//!
//! ```
//! use qcec::{Config, EquivalenceCheckingManager};
//!
//! let g = qcirc::generators::qft(4, true);
//! let mut buggy = g.clone();
//! buggy.x(2);
//! let mut manager = EquivalenceCheckingManager::new(Config::default());
//! manager.submit("qft4/buggy", g, buggy);
//! manager.run().unwrap();
//! assert!(manager.results()[0].verdict.outcome.is_not_equivalent());
//! ```

pub mod cache;
pub mod fingerprint;
pub mod manager;
pub mod queue;

pub use cache::{CacheStats, CachedVerdict, VerdictCache};
pub use fingerprint::{derive_seed, CircuitId, ConfigDigest, JobKey};
pub use manager::{EquivalenceCheckingManager, ServiceError};
pub use queue::{run_batch, Job, JobResult, Provenance};

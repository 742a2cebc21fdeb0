//! The batch job queue: dedupe, fan out, merge in submission order.
//!
//! A batch is a list of `(G, G′, Config)` jobs. The queue:
//!
//! 1. computes every job's [`JobKey`] (done at submit time by the
//!    [`manager`](super::manager), which also derives the per-job seed);
//! 2. **dedupes in-flight keys** — jobs sharing a key run once, every
//!    other occurrence is served from the first run's verdict;
//! 3. fans the unique jobs across the shared ordered worker pool
//!    ([`crate::pool`]) — deterministic per-job seeds mean the fan-out
//!    needs no coordination beyond index claiming;
//! 4. merges results back **in submission order**, so batch output is
//!    byte-identical at any worker count.

use qcirc::Circuit;

use crate::flow::FlowError;
use crate::Config;

use super::cache::{CachedVerdict, VerdictCache};
use super::fingerprint::JobKey;

/// One queued equivalence-checking job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-supplied label, carried into the report stream.
    pub name: String,
    /// The left circuit `G`.
    pub g: Circuit,
    /// The right circuit `G′`.
    pub g_prime: Circuit,
    /// The job's full configuration (seed already derived per pair).
    pub config: Config,
    /// The content-addressed key (precomputed at submit time).
    pub key: JobKey,
}

/// How a job's verdict was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The flow ran for this job.
    Computed,
    /// Answered from the verdict cache (a previous batch or process).
    CacheHit,
    /// Another job earlier in this batch shared the key; its verdict was
    /// reused without a cache round-trip.
    Deduped,
}

impl Provenance {
    /// Stable lowercase identifier.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::CacheHit => "cache_hit",
            Provenance::Deduped => "deduped",
        }
    }

    /// Whether the verdict was served without running the flow.
    #[must_use]
    pub fn is_cached(self) -> bool {
        !matches!(self, Provenance::Computed)
    }
}

/// The completed form of one job, in submission order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub name: String,
    /// The job's key.
    pub key: JobKey,
    /// Register size of the pair.
    pub n_qubits: usize,
    /// `|G|`.
    pub g_len: usize,
    /// `|G′|`.
    pub g_prime_len: usize,
    /// The verdict (typed outcome + pre-rendered fragment).
    pub verdict: CachedVerdict,
    /// Where the verdict came from.
    pub provenance: Provenance,
}

/// Runs a batch through the cache and the worker pool.
///
/// Results come back in submission order regardless of `workers`. The
/// cache is consulted once per *unique* key; unique misses run
/// [`crate::check_equivalence`] under the job's own configuration (its
/// event sink included) and populate the cache.
///
/// # Errors
///
/// Propagates the first (in submission order) structural [`FlowError`] —
/// mismatched register sizes or an oversized register. Such jobs are
/// malformed submissions, not verdicts, so they abort the batch rather
/// than poison the cache.
pub fn run_batch(
    jobs: &[Job],
    cache: &VerdictCache,
    workers: usize,
) -> Result<Vec<JobResult>, FlowError> {
    // Dedupe: the first occurrence of each key runs; later occurrences
    // alias it. `first_of[u]` is the job index that runs unique job `u`;
    // `alias[j]` is job `j`'s unique index.
    let mut first_of: Vec<usize> = Vec::new();
    let mut alias: Vec<usize> = Vec::with_capacity(jobs.len());
    for (job_idx, job) in jobs.iter().enumerate() {
        match first_of.iter().position(|&f| jobs[f].key == job.key) {
            Some(u) => alias.push(u),
            None => {
                alias.push(first_of.len());
                first_of.push(job_idx);
            }
        }
    }

    // Run every unique job (cache lookup inside the worker so hits cost
    // no pool slot time beyond the probe itself).
    let outcomes: Vec<Result<(CachedVerdict, Provenance), FlowError>> =
        crate::pool::run_ordered(first_of.len(), workers, |u| {
            let job = &jobs[first_of[u]];
            if let Some(verdict) = cache.get(&job.key) {
                return Ok((verdict, Provenance::CacheHit));
            }
            let result = crate::check_equivalence(&job.g, &job.g_prime, &job.config)?;
            let verdict = CachedVerdict::from_result(&result);
            cache.insert(job.key, verdict.clone());
            Ok((verdict, Provenance::Computed))
        });

    let mut unique_results: Vec<(CachedVerdict, Provenance)> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        unique_results.push(outcome?);
    }

    Ok(jobs
        .iter()
        .enumerate()
        .map(|(job_idx, job)| {
            let u = alias[job_idx];
            let (verdict, provenance) = &unique_results[u];
            let is_first = first_of[u] == job_idx;
            JobResult {
                name: job.name.clone(),
                key: job.key,
                n_qubits: job.g.n_qubits().max(job.g_prime.n_qubits()),
                g_len: job.g.len(),
                g_prime_len: job.g_prime.len(),
                verdict: verdict.clone(),
                provenance: if is_first {
                    *provenance
                } else {
                    Provenance::Deduped
                },
            }
        })
        .collect())
}

//! Fault-injection campaigns: the paper's detection-power evaluation.
//!
//! Table I of the paper is produced by taking compiled benchmark circuits,
//! injecting design-flow errors, and measuring how quickly the
//! simulation-driven flow detects them. This module turns that experiment
//! into a library routine: [`run_campaign`] injects `k` seeded faults per
//! trial with the [`qfault`] mutators, labels each mutation with the
//! complete-check guard (so accidentally benign mutations never count as
//! missed errors), runs the full flow (scheduler, instrumentation and all)
//! on every faulty pair, and aggregates per-error-class detection
//! statistics — sims-to-first-counterexample histograms, detection rates
//! after `r` runs, per-family breakdowns, and stage timings.
//!
//! The whole campaign is a pure function of its seed: every injected fault
//! is reproducible from `(seed, benchmark index, class index, trial
//! index)`, and the default JSON rendering excludes wall-clock time so two
//! runs with the same seed are byte-identical.
//!
//! # Scaling
//!
//! Two knobs make thousands-of-trials sweeps tractable without touching
//! the contract above:
//!
//! * **trial-level parallelism** ([`CampaignConfig::with_trial_threads`]):
//!   the (benchmark × class × trial) cells fan across a worker pool. Trial
//!   seeds are independent SplitMix derivations, workers claim cells from
//!   a shared counter, and results are merged in deterministic trial order
//!   — never completion order — so the reproducible JSON is byte-identical
//!   for any worker count;
//! * **memoized guarding** ([`CampaignConfig::with_guard_cache`], default
//!   on): golden-side guard work is done once per benchmark
//!   ([`qfault::GuardCache`]) instead of once per trial — each mutant is
//!   diffed against the memoized golden gate list so only the differing
//!   gates are completely checked (exact, by unitary conjugation), with
//!   the golden DD built once as the whole-circuit fallback. Labels are
//!   identical either way.
//!
//! # Examples
//!
//! ```
//! use qcec::campaign::{run_campaign, CampaignBenchmark, CampaignConfig};
//!
//! let bench = CampaignBenchmark::optimized("qft4", "qft", &qcirc::generators::qft(4, true));
//! let config = CampaignConfig::default().with_trials(2).with_simulations(4);
//! let result = run_campaign(&[bench], &config);
//! assert_eq!(result.classes.len(), qfault::MutationKind::ALL.len());
//! assert_eq!(result.to_json(false), result.to_json(false));
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qcirc::mapping::{route, CouplingMap, RouterOptions};
use qcirc::{decompose, optimize, Circuit};
use qfault::{mutator_for, GuardCache, GuardOptions, GuardVerdict, MutationKind, Mutator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ApplicationScheme, BackendKind, Config, Fallback, StimulusStrategy};
use crate::flow::check_equivalence;
use crate::outcome::Outcome;
use crate::report::{json, StageTimings};
use crate::scheduler::CollectingSink;

/// How a [`CampaignBenchmark`]'s alternative realization `G'` is derived
/// from `G` — the verified design-flow step that faults are injected into.
#[derive(Debug, Clone)]
pub enum CompileRoute {
    /// Exact optimization passes ([`qcirc::optimize::optimize`]).
    Optimize,
    /// Lowering to `{1q, CX}` followed by SWAP-insertion routing onto a
    /// device.
    Map(CouplingMap),
    /// Lowering with dirty ancillas (register may grow; `G` is widened).
    Decompose,
}

/// One benchmark of a campaign: a name, its family (the row group of the
/// rendered tables), and the verified pair `(G, G')`.
#[derive(Debug, Clone)]
pub struct CampaignBenchmark {
    /// Instance name, e.g. `"qft 6"`.
    pub name: String,
    /// Family name, e.g. `"qft"` — statistics are also broken down per
    /// family.
    pub family: String,
    /// The specification circuit `G`.
    pub original: Circuit,
    /// The compiled realization `G'`; faults are injected here.
    pub alternative: Circuit,
}

impl CampaignBenchmark {
    /// Compiles `g` along `route` into a campaign benchmark.
    ///
    /// # Panics
    ///
    /// Panics if routing fails (the circuit does not fit the device).
    #[must_use]
    pub fn compile(
        name: impl Into<String>,
        family: impl Into<String>,
        g: &Circuit,
        route_kind: &CompileRoute,
    ) -> Self {
        let (original, alternative) = match route_kind {
            CompileRoute::Optimize => (g.clone(), optimize::optimize(g)),
            CompileRoute::Map(device) => {
                let lowered = decompose::decompose_to_cx_and_single_qubit(g);
                let routed = route(&lowered, device, RouterOptions::default())
                    .expect("campaign benchmark must fit its device");
                let n = routed.circuit.n_qubits();
                (g.widened(n), routed.circuit)
            }
            CompileRoute::Decompose => {
                let lowered = decompose::decompose_with_dirty_ancillas(g);
                (g.widened(lowered.n_qubits()), lowered)
            }
        };
        CampaignBenchmark {
            name: name.into(),
            family: family.into(),
            original,
            alternative,
        }
    }

    /// Shorthand for [`CampaignBenchmark::compile`] with
    /// [`CompileRoute::Optimize`].
    #[must_use]
    pub fn optimized(name: impl Into<String>, family: impl Into<String>, g: &Circuit) -> Self {
        CampaignBenchmark::compile(name, family, g, &CompileRoute::Optimize)
    }

    /// The register size shared by `G` and `G'`.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.original.n_qubits()
    }
}

/// Parameters of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base RNG seed; every trial derives its own seed from this.
    pub seed: u64,
    /// Trials per (benchmark, error class) pair.
    pub trials: usize,
    /// Faults injected per trial (all of the trial's class).
    pub faults: usize,
    /// Mixed-class composition width `k`: after the cell's own class has
    /// injected its `faults` mutations, `k − 1` further faults are
    /// injected whose classes are drawn uniformly from `classes` by the
    /// trial RNG — modelling compiler bugs that corrupt a circuit in more
    /// than one way at once. The cell keeps its class label (the *first*
    /// mutation is always the cell's class). `1` — the default — draws
    /// nothing and reproduces the single-class campaign bit-for-bit.
    pub compose: usize,
    /// Random basis-state simulations `r` per equivalence check.
    pub simulations: usize,
    /// Simulation workers per check ([`Config::threads`]).
    pub threads: usize,
    /// Worker threads at the *trial* level: (benchmark × class × trial)
    /// cells are fanned across this many workers. Every trial is a pure
    /// function of its derived seed and results are merged in trial order,
    /// so the campaign's reproducible JSON is byte-identical for any value
    /// here (1 = the sequential inner loop).
    pub trial_threads: usize,
    /// Memoize the golden circuit `G'`'s decision diagram per benchmark
    /// (build once, check every mutant against the cached DD) instead of
    /// rebuilding it inside each trial's guard check. Labels are identical
    /// either way; `false` is the ablation baseline.
    pub guard_cache: bool,
    /// Magnitude of [`qfault::PerturbAngle`] offsets.
    pub epsilon: f64,
    /// Budget for the benign-mutation guard.
    pub guard: GuardOptions,
    /// Wall-clock budget for each complete check inside the flow.
    pub deadline: Option<Duration>,
    /// Simulation engines to ablate over: every (benchmark × strategy ×
    /// class × trial) cell is checked once per backend, against the *same*
    /// injected fault (the trial seed is keyed on the cell coordinates,
    /// not the backend), so per-backend detection statistics are directly
    /// comparable. Default: just the dense statevector engine.
    pub backends: Vec<BackendKind>,
    /// Stimulus strategies to ablate over: every (benchmark × class ×
    /// trial) cell is checked once per strategy, against the *same*
    /// injected fault (the trial seed is keyed on the cell coordinates,
    /// not the strategy), so per-strategy detection rates are directly
    /// comparable. Default: just the paper's random basis states.
    pub strategies: Vec<StimulusStrategy>,
    /// Application schemes of the alternating complete check to ablate
    /// over: every (benchmark × backend × strategy × class × trial) cell
    /// is checked once per scheme, against the *same* injected fault (the
    /// trial seed is keyed on the cell coordinates, not the scheme), so
    /// per-scheme detection statistics *and* complete-check wall-clock
    /// are directly comparable. Default: just the proportional scheme.
    pub schemes: Vec<ApplicationScheme>,
    /// Bond-dimension caps to ablate over — the tensor-network accuracy
    /// axis. Every cell is checked once per χ, against the *same*
    /// injected fault (the trial seed excludes the χ coordinate), so the
    /// detection-power cost of truncation is directly measurable. Only
    /// meaningful for [`BackendKind::Mps`] arms (dense engines ignore χ).
    /// Default: just [`qmpo::DEFAULT_CHI_MAX`].
    pub chis: Vec<usize>,
    /// Probe batch sizes to ablate over — the throughput axis. Every cell
    /// is checked once per batch size, against the *same* injected fault
    /// (the trial seed excludes the batch coordinate). Per-stimulus probe
    /// outcomes are bit-identical at any batch size
    /// ([`Config::batch_size`]), so the arms must report identical
    /// verdicts; the axis exists to demonstrate exactly that while the
    /// wall-clock ([`StageTimings`]) shows the amortization win.
    /// Default: just `1` (the historical one-stimulus-at-a-time path).
    pub batches: Vec<usize>,
    /// Fault classes to inject, in reporting order. Default: all of
    /// [`MutationKind::ALL`]. Trial seeds are keyed on each class's
    /// position in `ALL` (not its position here), so a filtered campaign
    /// injects exactly the same faults for its classes as the full
    /// campaign does.
    pub classes: Vec<MutationKind>,
    /// Run every flow invocation with Clifford peeling
    /// ([`Config::with_peel`]). Peeling preserves verdict classes but not
    /// verdict bytes (the residual pair sees different stimuli), so the
    /// flag renders in the reproducible config JSON whenever it is set.
    pub peel: bool,
}

impl Default for CampaignConfig {
    /// Paper-shaped defaults: `r = 10` simulations, one fault per trial,
    /// 10 trials per class, two worker threads.
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            trials: 10,
            faults: 1,
            compose: 1,
            simulations: 10,
            threads: 2,
            trial_threads: 1,
            guard_cache: true,
            epsilon: 0.1,
            guard: GuardOptions::default(),
            deadline: Some(Duration::from_secs(30)),
            backends: vec![BackendKind::Statevector],
            strategies: vec![StimulusStrategy::Random],
            schemes: vec![ApplicationScheme::Proportional],
            chis: vec![qmpo::DEFAULT_CHI_MAX],
            batches: vec![1],
            classes: MutationKind::ALL.to_vec(),
            peel: false,
        }
    }
}

impl CampaignConfig {
    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trials per (benchmark, class) pair.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the number of faults injected per trial.
    #[must_use]
    pub fn with_faults(mut self, faults: usize) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the mixed-class composition width `k`: each trial injects its
    /// cell's own fault(s) first, then `k − 1` extras of classes drawn
    /// from the configured class set by the trial RNG. `1` reproduces the
    /// single-class campaign bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `compose` is zero.
    #[must_use]
    pub fn with_compose(mut self, compose: usize) -> Self {
        assert!(compose >= 1, "compose width must be at least 1");
        self.compose = compose;
        self
    }

    /// Enables or disables Clifford peeling in every flow invocation.
    #[must_use]
    pub fn with_peel(mut self, peel: bool) -> Self {
        self.peel = peel;
        self
    }

    /// Sets the simulations `r` per equivalence check.
    #[must_use]
    pub fn with_simulations(mut self, r: usize) -> Self {
        self.simulations = r;
        self
    }

    /// Sets the flow's worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the trial-level worker count (1 = sequential trials).
    #[must_use]
    pub fn with_trial_threads(mut self, trial_threads: usize) -> Self {
        self.trial_threads = trial_threads;
        self
    }

    /// Enables or disables the per-benchmark memoized guard DD.
    #[must_use]
    pub fn with_guard_cache(mut self, guard_cache: bool) -> Self {
        self.guard_cache = guard_cache;
        self
    }

    /// Sets the angle-perturbation magnitude ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Replaces the backend ablation set.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    #[must_use]
    pub fn with_backends(mut self, backends: Vec<BackendKind>) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        self.backends = backends;
        self
    }

    /// Shorthand for a single-backend campaign.
    #[must_use]
    pub fn with_backend(self, backend: BackendKind) -> Self {
        self.with_backends(vec![backend])
    }

    /// Replaces the stimulus-strategy ablation set.
    ///
    /// # Panics
    ///
    /// Panics if `strategies` is empty.
    #[must_use]
    pub fn with_strategies(mut self, strategies: Vec<StimulusStrategy>) -> Self {
        assert!(!strategies.is_empty(), "need at least one strategy");
        self.strategies = strategies;
        self
    }

    /// Shorthand for a single-strategy campaign.
    #[must_use]
    pub fn with_stimuli(self, strategy: StimulusStrategy) -> Self {
        self.with_strategies(vec![strategy])
    }

    /// Replaces the application-scheme ablation set.
    ///
    /// # Panics
    ///
    /// Panics if `schemes` is empty.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<ApplicationScheme>) -> Self {
        assert!(!schemes.is_empty(), "need at least one application scheme");
        self.schemes = schemes;
        self
    }

    /// Shorthand for a single-scheme campaign.
    #[must_use]
    pub fn with_scheme(self, scheme: ApplicationScheme) -> Self {
        self.with_schemes(vec![scheme])
    }

    /// Replaces the bond-dimension ablation set (MPS arms only; dense
    /// engines ignore χ).
    ///
    /// # Panics
    ///
    /// Panics if `chis` is empty or contains a zero.
    #[must_use]
    pub fn with_chis(mut self, chis: Vec<usize>) -> Self {
        assert!(!chis.is_empty(), "need at least one bond-dimension cap");
        assert!(chis.iter().all(|&c| c > 0), "χ caps must be positive");
        self.chis = chis;
        self
    }

    /// Shorthand for a single-χ campaign.
    #[must_use]
    pub fn with_chi(self, chi: usize) -> Self {
        self.with_chis(vec![chi])
    }

    /// Replaces the probe-batch-size ablation set.
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty or contains a zero.
    #[must_use]
    pub fn with_batches(mut self, batches: Vec<usize>) -> Self {
        assert!(!batches.is_empty(), "need at least one batch size");
        assert!(
            batches.iter().all(|&k| k > 0),
            "batch sizes must be positive"
        );
        self.batches = batches;
        self
    }

    /// Shorthand for a single-batch-size campaign.
    #[must_use]
    pub fn with_batch(self, batch: usize) -> Self {
        self.with_batches(vec![batch])
    }

    /// Restricts injection to the given fault classes (e.g. a `--inject`
    /// sweep over one error model). Seeds stay aligned with the full
    /// campaign: each class injects the same faults it would in an
    /// unfiltered run.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<MutationKind>) -> Self {
        assert!(!classes.is_empty(), "need at least one fault class");
        self.classes = classes;
        self
    }
}

/// How one injected fault was (or was not) detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// A simulation counterexample on run `sims` (1-based) — the paper's
    /// `#sims` column.
    Simulation {
        /// Which run found the counterexample.
        sims: usize,
    },
    /// All simulations agreed; the complete DD check found the difference.
    Complete,
    /// The flow concluded (or strongly suggested) equivalence — the fault
    /// escaped.
    Missed,
}

/// One trial of a campaign: the injected mutations, the guard's label, and
/// the flow's verdict.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Index of the benchmark in the campaign's benchmark list.
    pub benchmark: usize,
    /// The probe backend the flow checked this trial with.
    pub backend: BackendKind,
    /// The stimulus strategy the flow checked this trial with.
    pub strategy: StimulusStrategy,
    /// The application scheme the flow's complete check used this trial.
    pub scheme: ApplicationScheme,
    /// The bond-dimension cap the flow ran under (only consequential for
    /// MPS arms).
    pub chi: usize,
    /// The probe batch size the flow ran under (verdict-neutral by the
    /// batch contract; ablated for throughput).
    pub batch: usize,
    /// The injected error class.
    pub kind: MutationKind,
    /// Trial index within the (benchmark, class) pair.
    pub trial: usize,
    /// The derived seed driving both injection and checking.
    pub seed: u64,
    /// Human-readable descriptions of the injected mutations (empty when
    /// the class was inapplicable to the circuit).
    pub mutations: Vec<String>,
    /// The guard's label for the combined mutation.
    pub guard: GuardVerdict,
    /// The flow's detection result (`None` when the class was
    /// inapplicable and no check ran).
    pub detection: Option<Detection>,
    /// Simulations actually run by the flow.
    pub sims_run: usize,
}

/// Aggregated statistics for one error class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Trials attempted.
    pub trials: usize,
    /// Trials where the class had no applicable fault site.
    pub inapplicable: usize,
    /// Trials whose mutation the guard proved benign (excluded from
    /// detection rates).
    pub benign: usize,
    /// Trials where the guard abstained (register too large or budget
    /// exhausted); detection is still recorded but kept separate from the
    /// proven-fault rate.
    pub unchecked: usize,
    /// Guard-confirmed real faults.
    pub faults: usize,
    /// Faults detected by a simulation counterexample.
    pub detected_by_sim: usize,
    /// Faults detected only by the complete check.
    pub detected_by_complete: usize,
    /// Guard-confirmed faults the flow failed to flag.
    pub missed: usize,
    /// Benign mutations the flow (unsoundly) flagged non-equivalent —
    /// always zero unless something is broken.
    pub false_positives: usize,
    /// `histogram[i]` = number of sim detections on run `i + 1`.
    pub sims_histogram: Vec<usize>,
    /// Total simulations run across the class's trials.
    pub total_sims: usize,
}

impl ClassStats {
    /// Folds one trial into the aggregate. Benign mutations are excluded
    /// from the detection-rate population by construction: they can add to
    /// `false_positives` (flow unsoundness) but never to `missed`.
    pub fn record(&mut self, t: &TrialRecord) {
        self.trials += 1;
        self.total_sims += t.sims_run;
        let Some(detection) = t.detection else {
            self.inapplicable += 1;
            return;
        };
        match &t.guard {
            GuardVerdict::Benign { .. } => {
                self.benign += 1;
                if detection != Detection::Missed {
                    self.false_positives += 1;
                }
                return;
            }
            GuardVerdict::Unchecked { .. } => self.unchecked += 1,
            GuardVerdict::Fault => self.faults += 1,
        }
        match detection {
            Detection::Simulation { sims } => {
                self.detected_by_sim += 1;
                if self.sims_histogram.len() < sims {
                    self.sims_histogram.resize(sims, 0);
                }
                self.sims_histogram[sims - 1] += 1;
            }
            Detection::Complete => self.detected_by_complete += 1,
            Detection::Missed => {
                if t.guard.is_fault() {
                    self.missed += 1;
                }
            }
        }
    }

    /// Fraction of guard-confirmed faults detected (by either stage);
    /// `None` when no faults were confirmed.
    #[must_use]
    pub fn detection_rate(&self) -> Option<f64> {
        let detected = (self.detected_by_sim + self.detected_by_complete + self.missed) as f64;
        if detected == 0.0 {
            return None;
        }
        Some((detected - self.missed as f64) / detected)
    }

    /// Fraction of sim-detected faults found within the first `r` runs.
    #[must_use]
    pub fn detection_within(&self, r: usize) -> Option<f64> {
        if self.detected_by_sim == 0 {
            return None;
        }
        let within: usize = self.sims_histogram.iter().take(r).sum();
        Some(within as f64 / self.detected_by_sim as f64)
    }

    /// Mean number of simulations until the first counterexample, over the
    /// sim-detected trials.
    #[must_use]
    pub fn mean_sims_to_detect(&self) -> Option<f64> {
        if self.detected_by_sim == 0 {
            return None;
        }
        let weighted: usize = self
            .sims_histogram
            .iter()
            .enumerate()
            .map(|(i, c)| (i + 1) * c)
            .sum();
        Some(weighted as f64 / self.detected_by_sim as f64)
    }
}

/// Detection counts for one (family, class) cell of the breakdown matrix.
#[derive(Debug, Clone, Default)]
pub struct FamilyCell {
    /// Guard-confirmed faults in the cell.
    pub faults: usize,
    /// Of those, how many either stage detected.
    pub detected: usize,
}

/// Cost accounting for the benign-mutation guard across a whole campaign.
/// Wall-clock fields are scheduling-dependent; the build/check counters
/// depend on `trial_threads` and `guard_cache` but not on the seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Total wall time spent labelling mutations.
    pub guard_time: Duration,
    /// Golden-circuit DD constructions. With the cache on this is at most
    /// `benchmarks × concurrent workers` (exactly `benchmarks` when
    /// sequential); without it, one per checked trial.
    pub golden_builds: usize,
    /// Mutations labelled by a complete check.
    pub checks: usize,
}

/// The complete outcome of [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// Benchmark metadata in campaign order: `(name, family, n, |G|, |G'|)`.
    pub benchmarks: Vec<(String, String, usize, usize, usize)>,
    /// Per-class aggregates over *all* strategies, in
    /// [`MutationKind::ALL`] order.
    pub classes: Vec<(MutationKind, ClassStats)>,
    /// Per-strategy breakdown of the same aggregates, in
    /// `config.strategies` order — the stimulus-ablation axis.
    pub strategy_classes: Vec<(StimulusStrategy, Vec<(MutationKind, ClassStats)>)>,
    /// Per-backend breakdown of the same aggregates, in `config.backends`
    /// order — the engine-ablation axis. Identical trial seeds per cell
    /// mean every backend faces the same injected faults.
    pub backend_classes: Vec<(BackendKind, Vec<(MutationKind, ClassStats)>)>,
    /// Per-application-scheme breakdown of the same aggregates, in
    /// `config.schemes` order — the complete-check ablation axis. Trial
    /// seeds exclude the scheme, so every arm faces the same faults; the
    /// per-scheme complete-check wall-clock lives in
    /// [`StageTimings::functional_time_for`].
    pub scheme_classes: Vec<(ApplicationScheme, Vec<(MutationKind, ClassStats)>)>,
    /// Per-χ breakdown of the same aggregates, in `config.chis` order —
    /// the tensor-network truncation-ablation axis. Trial seeds exclude
    /// the χ coordinate, so every cap faces the same faults.
    pub chi_classes: Vec<(usize, Vec<(MutationKind, ClassStats)>)>,
    /// Per-batch-size breakdown of the same aggregates, in
    /// `config.batches` order — the probe-throughput ablation axis. Trial
    /// seeds exclude the batch coordinate and per-stimulus outcomes are
    /// bit-identical at any batch size, so matching rows here are the
    /// campaign-level witness of the batch contract.
    pub batch_classes: Vec<(usize, Vec<(MutationKind, ClassStats)>)>,
    /// `families[f]` is the family name; `cells[f][k]` the counts for
    /// family `f` under class `MutationKind::ALL[k]`.
    pub families: Vec<String>,
    /// The family × class detection matrix.
    pub cells: Vec<Vec<FamilyCell>>,
    /// Every trial, in deterministic campaign order.
    pub trials: Vec<TrialRecord>,
    /// Scheduler-event summary accumulated over all flow invocations
    /// (wall-clock fields are only rendered on request).
    pub stage_timings: StageTimings,
    /// Guard cost accounting (wall-clock; never part of reproducible JSON).
    pub guard_stats: GuardStats,
    /// Campaign wall-clock from first to last trial (never part of
    /// reproducible JSON).
    pub wall_time: Duration,
}

/// Derives the seed of one trial from the campaign seed and the trial's
/// coordinates, SplitMix64-style: nearby coordinates get unrelated seeds.
#[must_use]
pub fn trial_seed(seed: u64, benchmark: usize, class: usize, trial: usize) -> u64 {
    let mut z = seed;
    for salt in [benchmark as u64, class as u64, trial as u64] {
        z = z
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// One (benchmark × backend × scheme × strategy × χ × batch × class ×
/// trial) cell of the campaign's work list. The seed is keyed on
/// everything *except* the backend, scheme, strategy, χ, and batch size,
/// so all ablation arms face the identical injected fault.
#[derive(Debug, Clone, Copy)]
struct TrialCell {
    benchmark: usize,
    backend: usize,
    scheme: usize,
    strategy: usize,
    chi: usize,
    batch: usize,
    class: usize,
    trial: usize,
    seed: u64,
}

/// What one executed cell hands back to the deterministic merge.
struct TrialOutput {
    record: TrialRecord,
    timings: StageTimings,
    guard_time: Duration,
}

/// Runs the detection-power experiment: for every benchmark × error class ×
/// trial, inject `faults` seeded mutations into `G'`, label them with the
/// guard, and run the full checking flow against `G`.
///
/// Cells are executed by `config.trial_threads` workers. Each trial is a
/// pure function of its [`trial_seed`]-derived seed, and results are merged
/// back in deterministic trial order (never completion order), so the
/// reproducible JSON rendering ([`CampaignResult::to_json`] without
/// timings) is a pure function of `(benchmarks, config.seed, …)` —
/// byte-identical for any worker count. See the module docs.
#[must_use]
pub fn run_campaign(benchmarks: &[CampaignBenchmark], config: &CampaignConfig) -> CampaignResult {
    let start = Instant::now();
    let mutators: Vec<Box<dyn Mutator>> = config
        .classes
        .iter()
        .map(|&kind| mutator_for(kind, config.epsilon))
        .collect();
    // Seeds are keyed on each class's position in `MutationKind::ALL`,
    // so filtering classes never changes which faults the kept classes
    // inject.
    let class_seed_idx: Vec<usize> = config
        .classes
        .iter()
        .map(|kind| {
            MutationKind::ALL
                .iter()
                .position(|a| a == kind)
                .expect("every MutationKind is in ALL")
        })
        .collect();
    let mut families: Vec<String> = Vec::new();
    for b in benchmarks {
        if !families.contains(&b.family) {
            families.push(b.family.clone());
        }
    }

    // The work list, in the deterministic order results are merged in.
    let cells: Vec<TrialCell> = benchmarks
        .iter()
        .enumerate()
        .flat_map(|(b_idx, _)| {
            let trials = config.trials;
            let n_backends = config.backends.len();
            let n_schemes = config.schemes.len();
            let n_strategies = config.strategies.len();
            let n_chis = config.chis.len();
            let n_batches = config.batches.len();
            let n_classes = mutators.len();
            let class_seed_idx = &class_seed_idx;
            (0..n_backends).flat_map(move |e_idx| {
                (0..n_schemes).flat_map(move |a_idx| {
                    (0..n_strategies).flat_map(move |s_idx| {
                        (0..n_chis).flat_map(move |x_idx| {
                            (0..n_batches).flat_map(move |q_idx| {
                                (0..n_classes).flat_map(move |k_idx| {
                                    (0..trials).map(move |t_idx| TrialCell {
                                        benchmark: b_idx,
                                        backend: e_idx,
                                        scheme: a_idx,
                                        strategy: s_idx,
                                        chi: x_idx,
                                        batch: q_idx,
                                        class: k_idx,
                                        trial: t_idx,
                                        seed: trial_seed(
                                            config.seed,
                                            b_idx,
                                            class_seed_idx[k_idx],
                                            t_idx,
                                        ),
                                    })
                                })
                            })
                        })
                    })
                })
            })
        })
        .collect();

    // One memoized guard per benchmark: golden-side work (the gate list
    // mutants are diffed against, and the golden DD for whole-circuit
    // fallbacks) happens here once, instead of inside every trial. The
    // eager builds are charged to guard time below, so the cached/uncached
    // comparison stays honest.
    let guard_setup = Instant::now();
    let guards: Option<Vec<GuardCache>> = config.guard_cache.then(|| {
        benchmarks
            .iter()
            .map(|b| GuardCache::new(&b.alternative, &config.guard))
            .collect()
    });
    let guard_setup_time = guard_setup.elapsed();

    // Fan the cells across the shared ordered pool: trial order in, trial
    // order out, byte-identical at any worker count.
    let outputs: Vec<TrialOutput> =
        crate::pool::run_ordered(cells.len(), config.trial_threads, |i| {
            run_cell(benchmarks, &mutators, guards.as_deref(), &cells[i], config)
        });

    // Deterministic merge: aggregate in trial order, exactly as the
    // sequential inner loop would have.
    let mut cell_stats = vec![vec![FamilyCell::default(); mutators.len()]; families.len()];
    let mut classes: Vec<(MutationKind, ClassStats)> = mutators
        .iter()
        .map(|m| (m.kind(), ClassStats::default()))
        .collect();
    let mut strategy_classes: Vec<(StimulusStrategy, Vec<(MutationKind, ClassStats)>)> = config
        .strategies
        .iter()
        .map(|s| (*s, classes.clone()))
        .collect();
    let mut backend_classes: Vec<(BackendKind, Vec<(MutationKind, ClassStats)>)> = config
        .backends
        .iter()
        .map(|b| (*b, classes.clone()))
        .collect();
    let mut scheme_classes: Vec<(ApplicationScheme, Vec<(MutationKind, ClassStats)>)> = config
        .schemes
        .iter()
        .map(|s| (*s, classes.clone()))
        .collect();
    let mut chi_classes: Vec<(usize, Vec<(MutationKind, ClassStats)>)> =
        config.chis.iter().map(|c| (*c, classes.clone())).collect();
    let mut batch_classes: Vec<(usize, Vec<(MutationKind, ClassStats)>)> = config
        .batches
        .iter()
        .map(|k| (*k, classes.clone()))
        .collect();
    let mut trials = Vec::with_capacity(outputs.len());
    let mut stage_timings = StageTimings::default();
    let mut guard_stats = GuardStats::default();
    for output in outputs {
        stage_timings = stage_timings.merged(output.timings);
        guard_stats.guard_time += output.guard_time;
        let record = output.record;
        let cell = cells[trials.len()];
        let k_idx = cell.class;
        let family = families
            .iter()
            .position(|f| f == &benchmarks[record.benchmark].family)
            .expect("every benchmark's family is registered");
        classes[k_idx].1.record(&record);
        strategy_classes[cell.strategy].1[k_idx].1.record(&record);
        backend_classes[cell.backend].1[k_idx].1.record(&record);
        scheme_classes[cell.scheme].1[k_idx].1.record(&record);
        chi_classes[cell.chi].1[k_idx].1.record(&record);
        batch_classes[cell.batch].1[k_idx].1.record(&record);
        if record.guard.is_fault() {
            let cell = &mut cell_stats[family][k_idx];
            cell.faults += 1;
            if !matches!(record.detection, Some(Detection::Missed) | None) {
                cell.detected += 1;
            }
        }
        trials.push(record);
    }
    match &guards {
        Some(caches) => {
            guard_stats.guard_time += guard_setup_time;
            guard_stats.golden_builds = caches.iter().map(GuardCache::golden_builds).sum();
            guard_stats.checks = caches.iter().map(GuardCache::mutants_checked).sum();
        }
        None => {
            // Without memoization every applicable trial built the golden
            // DD from scratch inside its own check.
            guard_stats.checks = trials.iter().filter(|t| !t.mutations.is_empty()).count();
            guard_stats.golden_builds = guard_stats.checks;
        }
    }

    CampaignResult {
        config: config.clone(),
        benchmarks: benchmarks
            .iter()
            .map(|b| {
                (
                    b.name.clone(),
                    b.family.clone(),
                    b.n_qubits(),
                    b.original.len(),
                    b.alternative.len(),
                )
            })
            .collect(),
        classes,
        strategy_classes,
        backend_classes,
        scheme_classes,
        chi_classes,
        batch_classes,
        families,
        cells: cell_stats,
        trials,
        stage_timings,
        guard_stats,
        wall_time: start.elapsed(),
    }
}

fn run_cell(
    benchmarks: &[CampaignBenchmark],
    mutators: &[Box<dyn Mutator>],
    guards: Option<&[GuardCache]>,
    cell: &TrialCell,
    config: &CampaignConfig,
) -> TrialOutput {
    run_trial(
        &benchmarks[cell.benchmark],
        cell.benchmark,
        config.backends[cell.backend],
        config.schemes[cell.scheme],
        config.strategies[cell.strategy],
        config.chis[cell.chi],
        config.batches[cell.batch],
        mutators[cell.class].as_ref(),
        guards.map(|g| &g[cell.benchmark]),
        cell.trial,
        cell.seed,
        config,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_trial(
    bench: &CampaignBenchmark,
    b_idx: usize,
    backend: BackendKind,
    scheme: ApplicationScheme,
    strategy: StimulusStrategy,
    chi: usize,
    batch: usize,
    mutator: &dyn Mutator,
    guard_cache: Option<&GuardCache>,
    t_idx: usize,
    seed: u64,
    config: &CampaignConfig,
) -> TrialOutput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mutated = bench.alternative.clone();
    let mut mutations = Vec::new();
    for _ in 0..config.faults.max(1) {
        match mutator.apply(&mutated, &mut rng) {
            Ok((next, record)) => {
                mutated = next;
                mutations.push(record.to_string());
            }
            Err(_) if mutations.is_empty() => {
                // The class has no applicable site at all — record and bail.
                return TrialOutput {
                    record: TrialRecord {
                        benchmark: b_idx,
                        backend,
                        scheme,
                        strategy,
                        chi,
                        batch,
                        kind: mutator.kind(),
                        trial: t_idx,
                        seed,
                        mutations,
                        guard: GuardVerdict::Unchecked {
                            reason: "inapplicable".to_string(),
                        },
                        detection: None,
                        sims_run: 0,
                    },
                    timings: StageTimings::default(),
                    guard_time: Duration::ZERO,
                };
            }
            // Later faults may become inapplicable (e.g. RemoveGate emptied
            // the circuit); keep what was injected so far.
            Err(_) => break,
        }
    }
    // Mixed-class composition: `compose − 1` extra faults of classes drawn
    // from the configured set, stacked on top of the cell's own. With
    // `compose == 1` this loop never touches the RNG, so plain campaigns
    // keep injecting bit-identical faults. A drawn class with no
    // applicable site is skipped — unlike the cell's own class, it says
    // nothing about this cell.
    for _ in 1..config.compose.max(1) {
        let kind = config.classes[rng.gen_range(0..config.classes.len())];
        if let Ok((next, record)) = mutator_for(kind, config.epsilon).apply(&mutated, &mut rng) {
            mutated = next;
            mutations.push(record.to_string());
        }
    }

    let guard_start = Instant::now();
    let guard = match guard_cache {
        Some(cache) => cache.classify(&mutated),
        None => qfault::guard::classify(&bench.alternative, &mutated, &config.guard),
    };
    let guard_time = guard_start.elapsed();

    let sink = Arc::new(CollectingSink::new());
    let flow_config = Config::new()
        .with_simulations(config.simulations)
        .with_seed(seed)
        .with_stimuli(strategy)
        .with_threads(config.threads.max(1))
        .with_backend(backend)
        .with_fallback(Fallback::Alternating)
        .with_deadline(config.deadline)
        .with_peel(config.peel)
        .with_scheme(scheme)
        .with_chi_max(chi)
        .with_batch_size(batch)
        .with_event_sink(sink.clone());
    let result = check_equivalence(&bench.original, &mutated, &flow_config)
        .expect("mutators preserve the register, so the flow must accept the pair");
    let mut timings = StageTimings::from_events(&sink.events());
    // Charge this trial's complete-check time to its scheme's bucket, so
    // the ablation report can compare wall-clock per scheme. The buckets
    // render only under `with_timings`, so reproducible JSON is untouched.
    timings.attribute_functional_to_scheme(scheme);

    let detection = Some(match &result.outcome {
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => Detection::Simulation { sims: ce.run },
        Outcome::NotEquivalent {
            counterexample: None,
        } => Detection::Complete,
        _ => Detection::Missed,
    });

    TrialOutput {
        record: TrialRecord {
            benchmark: b_idx,
            backend,
            scheme,
            strategy,
            chi,
            batch,
            kind: mutator.kind(),
            trial: t_idx,
            seed,
            mutations,
            guard,
            detection,
            sims_run: result.stats.simulations_run,
        },
        timings,
        guard_time,
    }
}

impl CampaignResult {
    /// Renders the campaign as deterministic JSON. With
    /// `with_timings = false` (the reproducible default) wall-clock fields
    /// are omitted and two same-seed runs are byte-identical.
    #[must_use]
    pub fn to_json(&self, with_timings: bool) -> String {
        let mut root = json::Obj::new();

        let mut cfg = json::Obj::new();
        cfg.int("seed", self.config.seed)
            .int("trials", self.config.trials as u64)
            .int("faults", self.config.faults as u64);
        // Composition and peeling render only when engaged, keeping
        // campaigns that predate the knobs byte-identical to their goldens.
        if self.config.compose > 1 {
            cfg.int("compose", self.config.compose as u64);
        }
        if self.config.peel {
            cfg.int("peel", 1);
        }
        cfg.int("simulations", self.config.simulations as u64)
            .int("threads", self.config.threads as u64)
            .num("epsilon", self.config.epsilon)
            .raw(
                "stimuli",
                json::array(
                    self.config
                        .strategies
                        .iter()
                        .map(|s| format!("\"{}\"", s.slug())),
                ),
            );
        // The backend field is stable across reruns but only rendered for
        // non-default selections, keeping campaigns that predate backend
        // ablation byte-identical.
        if self.config.backends != [BackendKind::Statevector] {
            if let [backend] = self.config.backends[..] {
                cfg.str("backend", backend.slug());
            } else {
                cfg.raw(
                    "backends",
                    json::array(
                        self.config
                            .backends
                            .iter()
                            .map(|b| format!("\"{}\"", b.slug())),
                    ),
                );
            }
        }
        // Like the backend field: the scheme only renders for non-default
        // selections, keeping campaigns that predate scheme ablation
        // byte-identical.
        if self.config.schemes != [ApplicationScheme::Proportional] {
            if let [scheme] = self.config.schemes[..] {
                cfg.str("scheme", scheme.slug());
            } else {
                cfg.raw(
                    "schemes",
                    json::array(
                        self.config
                            .schemes
                            .iter()
                            .map(|s| format!("\"{}\"", s.slug())),
                    ),
                );
            }
        }
        // Like the backend field: the χ cap only renders for non-default
        // selections, keeping campaigns that predate the tensor-network
        // axis byte-identical.
        if self.config.chis != [qmpo::DEFAULT_CHI_MAX] {
            if let [chi] = self.config.chis[..] {
                cfg.int("chi", chi as u64);
            } else {
                cfg.raw(
                    "chis",
                    json::array(self.config.chis.iter().map(ToString::to_string)),
                );
            }
        }
        // Like the backend field: the batch size only renders for
        // non-default selections, keeping campaigns that predate the
        // batched probe path byte-identical.
        if self.config.batches != [1] {
            if let [batch] = self.config.batches[..] {
                cfg.int("batch", batch as u64);
            } else {
                cfg.raw(
                    "batches",
                    json::array(self.config.batches.iter().map(ToString::to_string)),
                );
            }
        }
        // Like the backend field: only a filtered class selection renders,
        // keeping full campaigns byte-identical to pre-filter goldens.
        if self.config.classes != MutationKind::ALL {
            cfg.raw(
                "inject",
                json::array(
                    self.config
                        .classes
                        .iter()
                        .map(|k| format!("\"{}\"", k.slug())),
                ),
            );
        }
        root.raw("config", cfg.render());

        root.raw(
            "benchmarks",
            json::array(self.benchmarks.iter().map(|(name, family, n, g, gp)| {
                let mut o = json::Obj::new();
                o.str("name", name)
                    .str("family", family)
                    .int("n", *n as u64)
                    .int("gates_g", *g as u64)
                    .int("gates_g_prime", *gp as u64);
                o.render()
            })),
        );

        root.raw("classes", class_stats_json(&self.classes));

        root.raw(
            "strategies",
            json::array(self.strategy_classes.iter().map(|(strategy, classes)| {
                let mut o = json::Obj::new();
                o.str("strategy", strategy.slug())
                    .raw("classes", class_stats_json(classes));
                o.render()
            })),
        );

        // The per-backend breakdown only exists when there is an ablation
        // to report (≥ 2 backends); a single-backend campaign's aggregate
        // is already the `classes` section.
        if self.backend_classes.len() > 1 {
            root.raw(
                "backends",
                json::array(self.backend_classes.iter().map(|(backend, classes)| {
                    let mut o = json::Obj::new();
                    o.str("backend", backend.slug())
                        .raw("classes", class_stats_json(classes));
                    o.render()
                })),
            );
        }

        // Likewise the per-scheme breakdown: only rendered when there is a
        // scheme ablation to report.
        if self.scheme_classes.len() > 1 {
            root.raw(
                "schemes",
                json::array(self.scheme_classes.iter().map(|(scheme, classes)| {
                    let mut o = json::Obj::new();
                    o.str("scheme", scheme.slug())
                        .raw("classes", class_stats_json(classes));
                    o.render()
                })),
            );
        }

        // Likewise the per-χ breakdown: only rendered when there is a
        // truncation ablation to report.
        if self.chi_classes.len() > 1 {
            root.raw(
                "chis",
                json::array(self.chi_classes.iter().map(|(chi, classes)| {
                    let mut o = json::Obj::new();
                    o.int("chi", *chi as u64)
                        .raw("classes", class_stats_json(classes));
                    o.render()
                })),
            );
        }

        // Likewise the per-batch-size breakdown: only rendered when there
        // is a throughput ablation to report. Identical rows are expected
        // — that is the batch contract made visible.
        if self.batch_classes.len() > 1 {
            root.raw(
                "batches",
                json::array(self.batch_classes.iter().map(|(batch, classes)| {
                    let mut o = json::Obj::new();
                    o.int("batch", *batch as u64)
                        .raw("classes", class_stats_json(classes));
                    o.render()
                })),
            );
        }

        root.raw(
            "families",
            json::array(self.families.iter().enumerate().map(|(f, name)| {
                let mut o = json::Obj::new();
                o.str("family", name);
                for (k, (kind, _)) in self.classes.iter().enumerate() {
                    let cell = &self.cells[f][k];
                    o.raw(kind.slug(), format!("[{},{}]", cell.detected, cell.faults));
                }
                o.render()
            })),
        );

        // The stage summary is entirely timing-dependent: even its
        // counters (how many in-flight runs finish before a cancellation
        // lands) vary between runs, so it only renders on request. The
        // guard summary likewise (its build counter depends on worker
        // overlap). Execution knobs (`trial_threads`, `guard_cache`) are
        // deliberately absent from the config object above: they must not
        // change the reproducible rendering.
        if with_timings {
            root.raw("stage_summary", self.stage_timings.to_json(true));
            let mut guard = json::Obj::new();
            guard
                .num("t_guard_s", self.guard_stats.guard_time.as_secs_f64())
                .int("golden_builds", self.guard_stats.golden_builds as u64)
                .int("checks", self.guard_stats.checks as u64);
            root.raw("guard_summary", guard.render());
            let mut run = json::Obj::new();
            run.num("wall_s", self.wall_time.as_secs_f64())
                .int("trial_threads", self.config.trial_threads as u64)
                .int("guard_cache", u64::from(self.config.guard_cache));
            root.raw("run_summary", run.render());
        }
        root.render()
    }

    /// Renders the campaign as a human-readable Markdown report.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Fault-injection campaign\n\n");
        out.push_str(&format!(
            "seed {}, {} trials × {} fault(s) per class, r = {} simulations, {} threads\n\n",
            self.config.seed,
            self.config.trials,
            self.config.faults,
            self.config.simulations,
            self.config.threads,
        ));
        if self.config.compose > 1 {
            out.push_str(&format!(
                "composed trials: {} extra mixed-class fault(s) stacked per trial\n\n",
                self.config.compose - 1,
            ));
        }
        if self.config.peel {
            out.push_str("Clifford peeling enabled for every check\n\n");
        }

        out.push_str(
            "## Benchmarks\n\n| name | family | n | |G| | |G'| |\n|---|---|---|---|---|\n",
        );
        for (name, family, n, g, gp) in &self.benchmarks {
            out.push_str(&format!("| {name} | {family} | {n} | {g} | {gp} |\n"));
        }

        out.push_str(
            "\n## Detection by error class\n\n\
             | class | faults | benign | det. sim | det. complete | missed | mean #sims | rate |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for (kind, s) in &self.classes {
            let mean = s
                .mean_sims_to_detect()
                .map_or_else(|| "—".to_string(), |m| format!("{m:.2}"));
            let rate = s
                .detection_rate()
                .map_or_else(|| "—".to_string(), |r| format!("{:.0}%", r * 100.0));
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                kind.slug(),
                s.faults,
                s.benign,
                s.detected_by_sim,
                s.detected_by_complete,
                s.missed,
                mean,
                rate,
            ));
        }

        out.push_str(
            "\n## Detection by stimulus strategy\n\n\
             | strategy | faults | det. sim | det. complete | missed | mean #sims | rate |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for (strategy, classes) in &self.strategy_classes {
            out.push_str(&ablation_row(strategy.slug(), classes));
        }

        if self.backend_classes.len() > 1 {
            out.push_str(
                "\n## Detection by backend\n\n\
                 | backend | faults | det. sim | det. complete | missed | mean #sims | rate |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            for (backend, classes) in &self.backend_classes {
                out.push_str(&ablation_row(backend.slug(), classes));
            }
        }

        if self.chi_classes.len() > 1 {
            out.push_str(
                "\n## Detection by bond dimension\n\n\
                 | chi | faults | det. sim | det. complete | missed | mean #sims | rate |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            for (chi, classes) in &self.chi_classes {
                out.push_str(&ablation_row(&chi.to_string(), classes));
            }
        }

        if self.batch_classes.len() > 1 {
            out.push_str(
                "\n## Detection by batch size\n\n\
                 | batch | faults | det. sim | det. complete | missed | mean #sims | rate |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            // Rows here must be identical by construction (per-stimulus
            // outcomes are bit-identical at any batch size); what differs
            // between arms is only wall-clock.
            for (batch, classes) in &self.batch_classes {
                out.push_str(&ablation_row(&batch.to_string(), classes));
            }
        }

        if self.scheme_classes.len() > 1 {
            out.push_str(
                "\n## Detection by application scheme\n\n\
                 | scheme | faults | det. sim | det. complete | missed | mean #sims | t_ec (s) |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            // The last column is the scheme's complete-check wall-clock
            // rather than a detection rate: the verdicts per arm are
            // identical by construction (same faults, same flow); what
            // differs between schemes is how long the alternating check
            // takes to reach them.
            for (scheme, classes) in &self.scheme_classes {
                let total = ablation_totals(classes);
                let mean = total
                    .mean_sims_to_detect()
                    .map_or_else(|| "—".to_string(), |m| format!("{m:.2}"));
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.3} |\n",
                    scheme.slug(),
                    total.faults,
                    total.detected_by_sim,
                    total.detected_by_complete,
                    total.missed,
                    mean,
                    self.stage_timings
                        .functional_time_for(*scheme)
                        .as_secs_f64(),
                ));
            }
        }

        out.push_str("\n## Detected / faults per family\n\n| family |");
        for (kind, _) in &self.classes {
            out.push_str(&format!(" {} |", kind.slug()));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.classes {
            out.push_str("---|");
        }
        out.push('\n');
        for (f, family) in self.families.iter().enumerate() {
            out.push_str(&format!("| {family} |"));
            for k in 0..self.classes.len() {
                let cell = &self.cells[f][k];
                out.push_str(&format!(" {}/{} |", cell.detected, cell.faults));
            }
            out.push('\n');
        }

        out.push_str(&format!(
            "\nstage summary: {} sims finished, {} aborted, {} cancellations; \
             t_sim {:.3}s, t_ec {:.3}s\n",
            self.stage_timings.simulations_finished,
            self.stage_timings.simulations_aborted,
            self.stage_timings.cancellations,
            self.stage_timings.simulation_time.as_secs_f64(),
            self.stage_timings.functional_time.as_secs_f64(),
        ));
        out.push_str(&format!(
            "guard summary: {} checks, {} golden DD build(s) ({}), t_guard {:.3}s\n",
            self.guard_stats.checks,
            self.guard_stats.golden_builds,
            if self.config.guard_cache {
                "memoized"
            } else {
                "per-trial"
            },
            self.guard_stats.guard_time.as_secs_f64(),
        ));
        out.push_str(&format!(
            "campaign wall-clock: {:.3}s with {} trial worker(s)\n",
            self.wall_time.as_secs_f64(),
            self.config.trial_threads.max(1),
        ));
        out
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// One flow invocation of a pair audit.
#[derive(Debug, Clone)]
pub struct PairTrial {
    /// The derived flow seed.
    pub seed: u64,
    /// The detection result.
    pub detection: Detection,
    /// Simulations the flow actually ran.
    pub sims_run: usize,
}

/// The result of [`audit_pair`]: per-strategy detection results for one
/// explicit `(golden, faulty)` circuit pair.
#[derive(Debug, Clone)]
pub struct PairAudit {
    /// Label for the pair (e.g. the faulty file's name).
    pub name: String,
    /// Register size.
    pub n_qubits: usize,
    /// The guard's label for the pair — [`GuardVerdict::Benign`] means the
    /// two circuits are actually equivalent and every "miss" below is
    /// correct behaviour.
    pub guard: GuardVerdict,
    /// Trials per strategy, in `config.strategies` order.
    pub strategies: Vec<(StimulusStrategy, Vec<PairTrial>)>,
}

impl PairAudit {
    /// Detected / total counts for one strategy row.
    #[must_use]
    pub fn detection_counts(&self, strategy: StimulusStrategy) -> Option<(usize, usize)> {
        self.strategies
            .iter()
            .find(|(s, _)| *s == strategy)
            .map(|(_, trials)| {
                let detected = trials
                    .iter()
                    .filter(|t| t.detection != Detection::Missed)
                    .count();
                (detected, trials.len())
            })
    }

    /// Deterministic JSON rendering (no wall-clock content).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = json::Obj::new();
        let guard = match &self.guard {
            GuardVerdict::Benign { .. } => "benign",
            GuardVerdict::Unchecked { .. } => "unchecked",
            GuardVerdict::Fault => "fault",
        };
        root.str("name", &self.name)
            .int("n", self.n_qubits as u64)
            .str("guard", guard)
            .raw(
                "strategies",
                json::array(self.strategies.iter().map(|(strategy, trials)| {
                    let mut o = json::Obj::new();
                    o.str("strategy", strategy.slug()).raw(
                        "trials",
                        json::array(trials.iter().map(|t| {
                            let mut o = json::Obj::new();
                            o.int("seed", t.seed);
                            match t.detection {
                                Detection::Simulation { sims } => {
                                    o.int("detected_on_run", sims as u64)
                                }
                                Detection::Complete => o.str("detected_by", "complete"),
                                Detection::Missed => o.raw("detected_on_run", "null"),
                            };
                            o.int("sims_run", t.sims_run as u64);
                            o.render()
                        })),
                    );
                    o.render()
                })),
            );
        root.render()
    }

    /// Human-readable Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## Pair audit: {} ({} qubits, guard: {})\n\n\
             | strategy | detected | mean #sims |\n|---|---|---|\n",
            self.name,
            self.n_qubits,
            match &self.guard {
                GuardVerdict::Benign { .. } => "benign — pair is equivalent",
                GuardVerdict::Unchecked { .. } => "unchecked",
                GuardVerdict::Fault => "real fault",
            }
        );
        for (strategy, trials) in &self.strategies {
            let (detected, total) = self
                .detection_counts(*strategy)
                .expect("strategy taken from the audit's own list");
            let sims: Vec<usize> = trials
                .iter()
                .filter_map(|t| match t.detection {
                    Detection::Simulation { sims } => Some(sims),
                    _ => None,
                })
                .collect();
            let mean = if sims.is_empty() {
                "—".to_string()
            } else {
                format!(
                    "{:.2}",
                    sims.iter().sum::<usize>() as f64 / sims.len() as f64
                )
            };
            out.push_str(&format!(
                "| {} | {}/{} | {} |\n",
                strategy.slug(),
                detected,
                total,
                mean
            ));
        }
        out
    }
}

/// Audits one explicit `(golden, faulty)` pair: labels it with the guard,
/// then runs the simulation stage alone (`Fallback::None`) `config.trials`
/// times per configured strategy, so the per-strategy detection power is
/// measured without the complete check masking misses.
///
/// The trial seeds are shared across strategies
/// ([`trial_seed`]`(seed, 0, 0, t)`), making rows directly comparable; the
/// audit is a pure function of the pair and the configuration.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ.
#[must_use]
pub fn audit_pair(
    name: impl Into<String>,
    golden: &Circuit,
    faulty: &Circuit,
    config: &CampaignConfig,
) -> PairAudit {
    assert_eq!(
        golden.n_qubits(),
        faulty.n_qubits(),
        "pair audit requires equal qubit counts"
    );
    let guard = qfault::guard::classify(golden, faulty, &config.guard);
    let strategies = config
        .strategies
        .iter()
        .map(|&strategy| {
            let trials = (0..config.trials.max(1))
                .map(|t| {
                    let seed = trial_seed(config.seed, 0, 0, t);
                    let flow_config = Config::new()
                        .with_simulations(config.simulations)
                        .with_seed(seed)
                        .with_stimuli(strategy)
                        .with_threads(config.threads.max(1))
                        .with_backend(config.backends[0])
                        .with_chi_max(config.chis[0])
                        .with_batch_size(config.batches[0])
                        .with_peel(config.peel)
                        .with_fallback(Fallback::None);
                    let result = check_equivalence(golden, faulty, &flow_config)
                        .expect("equal registers were asserted above");
                    let detection = match &result.outcome {
                        Outcome::NotEquivalent {
                            counterexample: Some(ce),
                        } => Detection::Simulation { sims: ce.run },
                        Outcome::NotEquivalent {
                            counterexample: None,
                        } => Detection::Complete,
                        _ => Detection::Missed,
                    };
                    PairTrial {
                        seed,
                        detection,
                        sims_run: result.stats.simulations_run,
                    }
                })
                .collect();
            (strategy, trials)
        })
        .collect();
    PairAudit {
        name: name.into(),
        n_qubits: golden.n_qubits(),
        guard,
        strategies,
    }
}

/// Renders one row of an ablation Markdown table (strategy or backend):
/// the class-summed detection counts behind a single label.
fn ablation_totals(classes: &[(MutationKind, ClassStats)]) -> ClassStats {
    let mut total = ClassStats::default();
    for (_, s) in classes {
        total.faults += s.faults;
        total.detected_by_sim += s.detected_by_sim;
        total.detected_by_complete += s.detected_by_complete;
        total.missed += s.missed;
        if total.sims_histogram.len() < s.sims_histogram.len() {
            total.sims_histogram.resize(s.sims_histogram.len(), 0);
        }
        for (i, c) in s.sims_histogram.iter().enumerate() {
            total.sims_histogram[i] += c;
        }
    }
    total
}

fn ablation_row(label: &str, classes: &[(MutationKind, ClassStats)]) -> String {
    let total = ablation_totals(classes);
    let mean = total
        .mean_sims_to_detect()
        .map_or_else(|| "—".to_string(), |m| format!("{m:.2}"));
    let rate = total
        .detection_rate()
        .map_or_else(|| "—".to_string(), |r| format!("{:.0}%", r * 100.0));
    format!(
        "| {} | {} | {} | {} | {} | {} | {} |\n",
        label,
        total.faults,
        total.detected_by_sim,
        total.detected_by_complete,
        total.missed,
        mean,
        rate,
    )
}

/// Renders one per-class statistics table as a JSON array (shared by the
/// overall aggregate and the per-strategy/per-backend breakdowns).
fn class_stats_json(classes: &[(MutationKind, ClassStats)]) -> String {
    json::array(classes.iter().map(|(kind, s)| {
        let mut o = json::Obj::new();
        o.str("class", kind.slug())
            .int("trials", s.trials as u64)
            .int("inapplicable", s.inapplicable as u64)
            .int("benign", s.benign as u64)
            .int("unchecked", s.unchecked as u64)
            .int("faults", s.faults as u64)
            .int("detected_by_sim", s.detected_by_sim as u64)
            .int("detected_by_complete", s.detected_by_complete as u64)
            .int("missed", s.missed as u64)
            .int("false_positives", s.false_positives as u64)
            .int("total_sims", s.total_sims as u64)
            .raw(
                "sims_histogram",
                json::array(s.sims_histogram.iter().map(|c| c.to_string())),
            );
        match s.mean_sims_to_detect() {
            Some(m) => o.num("mean_sims_to_detect", m),
            None => o.raw("mean_sims_to_detect", "null"),
        };
        match s.detection_rate() {
            Some(r) => o.num("detection_rate", r),
            None => o.raw("detection_rate", "null"),
        };
        o.render()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    fn tiny_campaign() -> (Vec<CampaignBenchmark>, CampaignConfig) {
        let benches = vec![
            CampaignBenchmark::optimized("qft 4", "qft", &generators::qft(4, true)),
            CampaignBenchmark::compile(
                "ghz 4",
                "ghz",
                &generators::ghz(4),
                &CompileRoute::Map(CouplingMap::linear(4)),
            ),
        ];
        let config = CampaignConfig::default()
            .with_trials(2)
            .with_simulations(4)
            .with_threads(2);
        (benches, config)
    }

    #[test]
    fn filtered_classes_inject_the_same_faults_as_the_full_campaign() {
        let (benches, config) = tiny_campaign();
        let full = run_campaign(&benches, &config);
        let picked = vec![MutationKind::RemoveGate, MutationKind::PerturbAngle];
        let filtered = run_campaign(&benches, &config.clone().with_classes(picked.clone()));
        assert_eq!(
            filtered.classes.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            picked
        );
        // Seeds are keyed on the class's position in ALL, so every kept
        // class reproduces exactly the trials of the unfiltered run.
        for (kind, stats) in &filtered.classes {
            let full_stats = full
                .classes
                .iter()
                .find(|(k, _)| k == kind)
                .map(|(_, s)| s)
                .unwrap();
            assert_eq!(stats, full_stats, "{kind}: stats diverged under filtering");
        }
        // The filtered selection renders in config JSON; the full one not.
        assert!(filtered
            .to_json(false)
            .contains(r#""inject":["remove_gate","perturb_angle"]"#));
        assert!(!full.to_json(false).contains(r#""inject""#));
    }

    #[test]
    fn campaign_covers_every_class_and_family() {
        let (benches, config) = tiny_campaign();
        let result = run_campaign(&benches, &config);
        assert_eq!(result.classes.len(), MutationKind::ALL.len());
        assert_eq!(result.families, vec!["qft", "ghz"]);
        assert_eq!(
            result.trials.len(),
            benches.len() * MutationKind::ALL.len() * config.trials
        );
        // Detection is sound: no benign mutation is ever flagged.
        for (kind, s) in &result.classes {
            assert_eq!(s.false_positives, 0, "{kind}: unsound verdicts");
        }
        // The experiment has power: real faults exist and most are caught.
        let faults: usize = result.classes.iter().map(|(_, s)| s.faults).sum();
        let detected: usize = result
            .classes
            .iter()
            .map(|(_, s)| s.detected_by_sim + s.detected_by_complete)
            .sum();
        assert!(faults > 0, "guard never confirmed a fault");
        assert!(detected * 2 > faults, "detected {detected} of {faults}");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let (benches, config) = tiny_campaign();
        let a = run_campaign(&benches, &config).to_json(false);
        let b = run_campaign(&benches, &config).to_json(false);
        assert_eq!(a, b, "same seed must render byte-identical JSON");
        let other = run_campaign(&benches, &config.clone().with_seed(99)).to_json(false);
        assert_ne!(a, other, "different seeds explore different faults");
    }

    #[test]
    fn trial_pool_preserves_the_byte_identical_contract() {
        let (benches, config) = tiny_campaign();
        let sequential = run_campaign(&benches, &config);
        for workers in [2, 5] {
            let pooled = run_campaign(&benches, &config.clone().with_trial_threads(workers));
            assert_eq!(
                sequential.to_json(false),
                pooled.to_json(false),
                "{workers} trial workers changed the reproducible JSON"
            );
            // Stronger than the JSON: every trial record agrees.
            assert_eq!(sequential.trials.len(), pooled.trials.len());
            for (a, b) in sequential.trials.iter().zip(&pooled.trials) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.mutations, b.mutations);
                assert_eq!(a.detection, b.detection);
                assert_eq!(a.guard.is_fault(), b.guard.is_fault());
            }
        }
    }

    #[test]
    fn guard_cache_ablation_changes_labels_not_at_all() {
        let (benches, config) = tiny_campaign();
        let cached = run_campaign(&benches, &config);
        let uncached = run_campaign(&benches, &config.clone().with_guard_cache(false));
        assert_eq!(cached.to_json(false), uncached.to_json(false));
        // The memoized run built one golden DD per benchmark; the ablation
        // paid one build per checked trial.
        assert_eq!(cached.guard_stats.golden_builds, benches.len());
        assert_eq!(
            uncached.guard_stats.golden_builds,
            uncached.guard_stats.checks
        );
        assert!(uncached.guard_stats.golden_builds > cached.guard_stats.golden_builds);
    }

    #[test]
    fn trial_seeds_are_well_spread() {
        let mut seen = std::collections::HashSet::new();
        for b in 0..4 {
            for k in 0..8 {
                for t in 0..4 {
                    assert!(seen.insert(trial_seed(7, b, k, t)), "seed collision");
                }
            }
        }
        assert_eq!(trial_seed(7, 1, 2, 3), trial_seed(7, 1, 2, 3));
        assert_ne!(trial_seed(7, 1, 2, 3), trial_seed(8, 1, 2, 3));
    }

    #[test]
    fn markdown_mentions_all_sections() {
        let (benches, config) = tiny_campaign();
        let md = run_campaign(&benches, &config.with_trials(1)).to_markdown();
        assert!(md.contains("## Benchmarks"));
        assert!(md.contains("## Detection by error class"));
        assert!(md.contains("remove_gate"));
        assert!(md.contains("per family"));
    }

    #[test]
    fn stimulus_ablation_adds_a_strategy_axis() {
        let benches = vec![CampaignBenchmark::optimized(
            "qft 4",
            "qft",
            &generators::qft(4, true),
        )];
        let config = CampaignConfig::default()
            .with_trials(1)
            .with_simulations(4)
            .with_strategies(vec![StimulusStrategy::Random, StimulusStrategy::Stabilizer]);
        let result = run_campaign(&benches, &config);
        assert_eq!(result.strategy_classes.len(), 2);
        assert_eq!(result.trials.len(), 2 * MutationKind::ALL.len());
        // The strategy axis re-checks the *same* faults: trial seeds and
        // injected mutations repeat between the two halves.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.strategy, StimulusStrategy::Random);
            assert_eq!(b.strategy, StimulusStrategy::Stabilizer);
        }
        let js = result.to_json(false);
        assert!(js.contains(r#""stimuli":["basis","stabilizer"]"#));
        assert!(js.contains(r#""strategy":"stabilizer""#));
        // The byte-identity contract holds per strategy set, including
        // across trial-pool sizes.
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
        let pooled = run_campaign(&benches, &config.clone().with_trial_threads(3));
        assert_eq!(js, pooled.to_json(false));
        assert!(result
            .to_markdown()
            .contains("## Detection by stimulus strategy"));
    }

    #[test]
    fn backend_ablation_adds_an_engine_axis() {
        let benches = vec![CampaignBenchmark::optimized(
            "qft 4",
            "qft",
            &generators::qft(4, true),
        )];
        let config = CampaignConfig::default()
            .with_trials(1)
            .with_simulations(4)
            .with_backends(vec![BackendKind::Statevector, BackendKind::DecisionDiagram]);
        let result = run_campaign(&benches, &config);
        assert_eq!(result.backend_classes.len(), 2);
        assert_eq!(result.trials.len(), 2 * MutationKind::ALL.len());
        // The backend axis re-checks the *same* faults with the same
        // stimuli: seeds and mutations repeat between the halves, and the
        // two engines must agree on every guard label and verdict.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.backend, BackendKind::Statevector);
            assert_eq!(b.backend, BackendKind::DecisionDiagram);
            assert_eq!(a.guard.is_fault(), b.guard.is_fault());
            assert_eq!(a.detection, b.detection, "engines disagree: {a:?} {b:?}");
        }
        let js = result.to_json(false);
        assert!(js.contains(r#""backends":["sv","dd"]"#));
        assert!(js.contains(r#""backend":"dd""#));
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
        let pooled = run_campaign(&benches, &config.clone().with_trial_threads(3));
        assert_eq!(js, pooled.to_json(false));
        assert!(result.to_markdown().contains("## Detection by backend"));
    }

    #[test]
    fn chi_ablation_adds_a_truncation_axis() {
        let benches = vec![CampaignBenchmark::optimized(
            "ghz 5",
            "ghz",
            &generators::ghz(5),
        )];
        let config = CampaignConfig::default()
            .with_trials(1)
            .with_simulations(4)
            .with_backend(BackendKind::Mps)
            .with_classes(vec![MutationKind::RemoveGate, MutationKind::AddGate])
            .with_chis(vec![1, 64]);
        let result = run_campaign(&benches, &config);
        assert_eq!(result.chi_classes.len(), 2);
        // The χ axis re-checks the *same* faults: seeds and mutations
        // repeat between the two arms.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.chi, 1);
            assert_eq!(b.chi, 64);
        }
        // Soundness survives truncation: even at χ = 1 no benign mutation
        // is flagged non-equivalent (truncated runs abort, never accuse).
        for (kind, s) in &result.classes {
            assert_eq!(s.false_positives, 0, "{kind}: unsound under truncation");
        }
        let js = result.to_json(false);
        assert!(js.contains(r#""chis":[1,64]"#));
        assert!(js.contains(r#""chi":64"#));
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
        let pooled = run_campaign(&benches, &config.clone().with_trial_threads(3));
        assert_eq!(js, pooled.to_json(false));
        assert!(result
            .to_markdown()
            .contains("## Detection by bond dimension"));
        // The default single-χ campaign renders no χ field at all.
        let default_js = run_campaign(
            &benches,
            &CampaignConfig::default()
                .with_trials(1)
                .with_simulations(4)
                .with_classes(vec![MutationKind::RemoveGate]),
        )
        .to_json(false);
        assert!(!default_js.contains("chi"));
    }

    #[test]
    fn batch_ablation_arms_report_identical_verdicts() {
        let benches = vec![CampaignBenchmark::optimized(
            "qft 5",
            "qft",
            &generators::qft(5, true),
        )];
        let config = CampaignConfig::default()
            .with_trials(2)
            .with_simulations(6)
            .with_classes(vec![MutationKind::RemoveGate, MutationKind::AddGate])
            .with_batches(vec![1, 8]);
        let result = run_campaign(&benches, &config);
        assert_eq!(result.batch_classes.len(), 2);
        // The batch axis re-checks the *same* faults, and per-stimulus
        // outcomes are bit-identical at any batch size — so the arms must
        // agree not only on seeds and mutations but on every verdict and
        // sims-run count.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.batch, 1);
            assert_eq!(b.batch, 8);
            assert_eq!(a.detection, b.detection, "batch changed a verdict");
            assert_eq!(a.sims_run, b.sims_run);
        }
        assert_eq!(result.batch_classes[0].1, result.batch_classes[1].1);
        let js = result.to_json(false);
        assert!(js.contains(r#""batches":[1,8]"#));
        assert!(js.contains(r#""batch":8"#));
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
        let pooled = run_campaign(&benches, &config.clone().with_trial_threads(3));
        assert_eq!(js, pooled.to_json(false));
        assert!(result.to_markdown().contains("## Detection by batch size"));
        // The default batch=1 campaign renders no batch field at all.
        let default_js = run_campaign(
            &benches,
            &CampaignConfig::default()
                .with_trials(1)
                .with_simulations(4)
                .with_classes(vec![MutationKind::RemoveGate]),
        )
        .to_json(false);
        assert!(!default_js.contains("batch"));
    }

    #[test]
    fn single_nondefault_backend_renders_a_stable_config_field() {
        let benches = vec![CampaignBenchmark::optimized(
            "ghz 4",
            "ghz",
            &generators::ghz(4),
        )];
        let config = CampaignConfig::default()
            .with_trials(1)
            .with_simulations(4)
            .with_backend(BackendKind::DecisionDiagram);
        let js = run_campaign(&benches, &config).to_json(false);
        assert!(js.contains(r#""backend":"dd""#));
        // A single non-default backend is a selection, not an ablation:
        // no per-backend breakdown section.
        assert!(!js.contains(r#""backends":"#));
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
    }

    #[test]
    fn pair_audit_separates_strategy_power() {
        // An escapee-shaped pair: the only difference hides behind eight
        // controls, so 10 random basis states almost surely miss it while
        // non-classical stimuli see the fidelity deficit immediately.
        let n = 9;
        let golden = Circuit::new(n);
        let mut faulty = Circuit::new(n);
        faulty.mcz((0..n - 1).collect(), n - 1);
        let config = CampaignConfig::default()
            .with_trials(3)
            .with_simulations(10)
            .with_strategies(vec![StimulusStrategy::Random, StimulusStrategy::Stabilizer]);
        let audit = audit_pair("mcz escapee", &golden, &faulty, &config);
        assert!(audit.guard.is_fault());
        let (basis_hits, total) = audit.detection_counts(StimulusStrategy::Random).unwrap();
        let (stab_hits, _) = audit
            .detection_counts(StimulusStrategy::Stabilizer)
            .unwrap();
        assert_eq!(total, 3);
        assert_eq!(stab_hits, total, "stabilizer stimuli must catch the fault");
        assert!(
            basis_hits < total,
            "basis stimuli should miss at least one trial"
        );
        // Deterministic JSON; markdown names both rows.
        assert_eq!(
            audit.to_json(),
            audit_pair("mcz escapee", &golden, &faulty, &config).to_json()
        );
        let md = audit.to_markdown();
        assert!(md.contains("| basis |"));
        assert!(md.contains("| stabilizer |"));
        assert!(md.contains("real fault"));
    }

    #[test]
    fn composed_faults_stack_mixed_classes_deterministically() {
        let benches = vec![CampaignBenchmark::optimized(
            "qft 4",
            "qft",
            &generators::qft(4, true),
        )];
        let base = CampaignConfig::default().with_trials(2).with_simulations(4);
        // compose == 1 is the identity, bit-for-bit.
        assert_eq!(
            run_campaign(&benches, &base).to_json(false),
            run_campaign(&benches, &base.clone().with_compose(1)).to_json(false),
        );
        let config = base.clone().with_compose(3);
        let result = run_campaign(&benches, &config);
        // The cell's own class always leads the plan; extras stack behind.
        let mut saw_extras = false;
        for t in &result.trials {
            if let Some(first) = t.mutations.first() {
                assert!(
                    first.starts_with(t.kind.slug()),
                    "first mutation '{first}' is not the cell's class {}",
                    t.kind.slug()
                );
            }
            saw_extras |= t.mutations.len() > config.faults;
        }
        assert!(saw_extras, "compose=3 never stacked an extra fault");
        // Soundness survives composition: no benign pile-up is ever flagged.
        for (kind, s) in &result.classes {
            assert_eq!(s.false_positives, 0, "{kind}: unsound under composition");
        }
        // The knob renders only when engaged, and the byte-identity
        // contract holds across reruns and trial-pool sizes.
        let js = result.to_json(false);
        assert!(js.contains(r#""compose":3"#));
        assert!(!run_campaign(&benches, &base)
            .to_json(false)
            .contains("compose"));
        assert_eq!(js, run_campaign(&benches, &config).to_json(false));
        assert_eq!(
            js,
            run_campaign(&benches, &config.clone().with_trial_threads(3)).to_json(false),
        );
    }

    #[test]
    fn peeled_campaigns_stay_sound_and_render_the_flag() {
        let (benches, config) = tiny_campaign();
        let config = config.with_peel(true);
        let result = run_campaign(&benches, &config);
        assert!(result.to_json(false).contains(r#""peel":1"#));
        for (kind, s) in &result.classes {
            assert_eq!(s.false_positives, 0, "{kind}: unsound under peeling");
        }
        assert_eq!(
            result.to_json(false),
            run_campaign(&benches, &config).to_json(false),
            "peeled campaigns must stay deterministic"
        );
        assert!(result.to_markdown().contains("Clifford peeling enabled"));
    }

    #[test]
    fn compile_routes_produce_equivalent_pairs() {
        let g = generators::ghz(4);
        for route_kind in [
            CompileRoute::Optimize,
            CompileRoute::Map(CouplingMap::linear(4)),
            CompileRoute::Decompose,
        ] {
            let b = CampaignBenchmark::compile("ghz", "ghz", &g, &route_kind);
            assert_eq!(b.original.n_qubits(), b.alternative.n_qubits());
            let ok = crate::check_equivalence_default(&b.original, &b.alternative).unwrap();
            assert!(ok.outcome.is_equivalent(), "{route_kind:?}: {}", ok.outcome);
        }
    }
}

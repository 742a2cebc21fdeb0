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
//! Every trial is checked once per combination of ablation-[`Axis`] arms
//! (stimulus strategy, backend, scheme, χ), against the same
//! injected fault, and each arm aggregates its own statistics.
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
//!   the (benchmark × arms × class × trial) cells fan across a worker pool.
//!   Trial seeds are independent SplitMix derivations, workers claim cells
//!   from a shared counter, and results are merged in deterministic trial
//!   order — never completion order — so the reproducible JSON is
//!   byte-identical for any worker count;
//! * **trimmed guarding**: one [`qfault::GuardCache`] per benchmark diffs
//!   each mutant against the golden gate list, so only the differing
//!   gates are completely checked (exact, by unitary conjugation) —
//!   labels are those of the whole-circuit guard.
//!
//! # Examples
//!
//! ```
//! use qcec::campaign::{run_campaign, Axis, CampaignBenchmark, CampaignConfig};
//! use qcec::BackendKind;
//!
//! let bench = CampaignBenchmark::optimized("qft4", "qft", &qcirc::generators::qft(4, true));
//! let config = CampaignConfig::default()
//!     .with_trials(2)
//!     .with_simulations(4)
//!     .with_axis(Axis::Backend(vec![BackendKind::Statevector, BackendKind::DecisionDiagram]));
//! let result = run_campaign(&[bench], &config);
//! assert_eq!(result.classes.len(), qfault::MutationKind::ALL.len());
//! assert_eq!(result.arms[1].len(), 2);
//! assert_eq!(result.to_json(false), result.to_json(false));
//! ```

use std::fmt;
use std::mem::discriminant;
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

/// One ablation axis of a campaign, holding its arms. Every trial is
/// checked once per combination of arms, one arm per axis; trial seeds
/// exclude every axis, so all arms face the same injected faults and a
/// detection difference is attributable to the axis alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Stimulus strategies ([`Config::with_stimuli`]).
    Stimuli(Vec<StimulusStrategy>),
    /// Probe engines ([`Config::with_backend`]).
    Backend(Vec<BackendKind>),
    /// Application schemes of the alternating complete check
    /// ([`Config::with_scheme`]).
    Scheme(Vec<ApplicationScheme>),
    /// Bond-dimension caps ([`Config::with_chi_max`]); dense engines
    /// ignore χ, so only MPS arms consult it.
    Chi(Vec<usize>),
}

/// The names an [`Axis`] renders under.
struct AxisNames {
    /// The CLI flag (without dashes), and the config key of a single arm.
    flag: &'static str,
    /// The arm key in the breakdown section, and the Markdown column.
    arm: &'static str,
    /// The breakdown section key, and the config key of several arms.
    plural: &'static str,
    /// The Markdown table's heading, after "Detection by".
    heading: &'static str,
}

impl Axis {
    /// Every axis at its default arm, in render order: the paper's random
    /// basis states on the dense statevector engine, the proportional
    /// scheme and χ = [`qmpo::DEFAULT_CHI_MAX`].
    #[must_use]
    pub fn defaults() -> Vec<Axis> {
        vec![
            Axis::Stimuli(vec![StimulusStrategy::Random]),
            Axis::Backend(vec![BackendKind::Statevector]),
            Axis::Scheme(vec![ApplicationScheme::Proportional]),
            Axis::Chi(vec![qmpo::DEFAULT_CHI_MAX]),
        ]
    }

    /// The default axis whose CLI flag (without dashes) is `flag`:
    /// `stimuli`, `backend`, `scheme` or `chi`.
    #[must_use]
    pub fn named(flag: &str) -> Option<Axis> {
        Axis::defaults().into_iter().find(|a| a.flag() == flag)
    }

    /// This axis with its arms parsed from a comma-separated list.
    ///
    /// # Errors
    ///
    /// Names the first arm that does not parse (χ caps must be positive
    /// integers).
    pub fn parse_arms(&self, spec: &str) -> Result<Axis, String> {
        fn arms<T>(
            spec: &str,
            parse: impl Fn(&str) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            spec.split(',').map(parse).collect()
        }
        let positive = |s: &str| match s.trim().parse::<usize>() {
            Ok(v) if v > 0 => Ok(v),
            _ => Err(format!(
                "--{} expects positive integers (got `{s}`)",
                self.flag()
            )),
        };
        match self {
            Axis::Stimuli(_) => arms(spec, StimulusStrategy::parse).map(Axis::Stimuli),
            Axis::Backend(_) => arms(spec, BackendKind::parse).map(Axis::Backend),
            Axis::Scheme(_) => arms(spec, ApplicationScheme::parse).map(Axis::Scheme),
            Axis::Chi(_) => arms(spec, positive).map(Axis::Chi),
        }
    }

    /// The CLI flag (without dashes) that sets this axis.
    #[must_use]
    pub fn flag(&self) -> &'static str {
        self.names().flag
    }

    /// The number of arms.
    #[must_use]
    pub fn arm_count(&self) -> usize {
        match self {
            Axis::Stimuli(arms) => arms.len(),
            Axis::Backend(arms) => arms.len(),
            Axis::Scheme(arms) => arms.len(),
            Axis::Chi(arms) => arms.len(),
        }
    }

    fn names(&self) -> AxisNames {
        let (flag, arm, plural, heading) = match self {
            Axis::Stimuli(_) => ("stimuli", "strategy", "strategies", "stimulus strategy"),
            Axis::Backend(_) => ("backend", "backend", "backends", "backend"),
            Axis::Scheme(_) => ("scheme", "scheme", "schemes", "application scheme"),
            Axis::Chi(_) => ("chi", "chi", "chis", "bond dimension"),
        };
        AxisNames {
            flag,
            arm,
            plural,
            heading,
        }
    }

    /// Whether the axis renders at its default too. The stimulus axis came
    /// first and has always rendered; the later axes render only when set,
    /// so campaigns that predate them stay byte-identical.
    fn always_rendered(&self) -> bool {
        matches!(self, Axis::Stimuli(_))
    }

    /// Whether the Markdown table's last column is each arm's
    /// complete-check wall-clock instead of its detection rate: a scheme
    /// only reorders the complete check's multiplications, so the arms'
    /// verdicts agree by construction and what differs is time.
    fn reports_ec_time(&self) -> bool {
        matches!(self, Axis::Scheme(_))
    }

    /// Arm `i` as a table label: `sv`, or `64`.
    fn label(&self, i: usize) -> String {
        match self {
            Axis::Stimuli(arms) => arms[i].slug().to_string(),
            Axis::Backend(arms) => arms[i].slug().to_string(),
            Axis::Scheme(arms) => arms[i].slug().to_string(),
            Axis::Chi(arms) => arms[i].to_string(),
        }
    }

    /// Arm `i` as a JSON value: `"sv"`, or `64`.
    fn arm_json(&self, i: usize) -> String {
        match self {
            Axis::Chi(_) => self.label(i),
            _ => format!("\"{}\"", self.label(i)),
        }
    }

    /// Sets arm `i` on a flow configuration.
    fn configure(&self, i: usize, config: Config) -> Config {
        match self {
            Axis::Stimuli(arms) => config.with_stimuli(arms[i]),
            Axis::Backend(arms) => config.with_backend(arms[i]),
            Axis::Scheme(arms) => config.with_scheme(arms[i]),
            Axis::Chi(arms) => config.with_chi_max(arms[i]),
        }
    }

    /// Adds the axis to the reproducible config object: one arm under the
    /// flag's key, several under the plural key, nothing at the default
    /// unless the axis always renders.
    fn render_config(&self, cfg: &mut json::Obj) {
        let names = self.names();
        let all = || json::array((0..self.arm_count()).map(|i| self.arm_json(i)));
        if self.always_rendered() {
            cfg.raw(names.flag, all());
        } else if self.arm_count() > 1 {
            cfg.raw(names.plural, all());
        } else if !Axis::defaults().contains(self) {
            cfg.raw(names.flag, self.arm_json(0));
        }
    }
}

/// Every combination of one arm per axis, the last axis turning fastest:
/// an odometer over the axes' arm counts.
fn arm_grid(axes: &[Axis]) -> Vec<Vec<usize>> {
    axes.iter().fold(vec![Vec::new()], |grid, axis| {
        grid.iter()
            .flat_map(|prefix| (0..axis.arm_count()).map(move |i| [&prefix[..], &[i]].concat()))
            .collect()
    })
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
    /// Worker threads at the *trial* level: (benchmark × arms × class ×
    /// trial) cells are fanned across this many workers. Every trial is a
    /// pure function of its derived seed and results are merged in trial
    /// order, so the campaign's reproducible JSON is byte-identical for any
    /// value here (1 = the sequential inner loop).
    pub trial_threads: usize,
    /// Magnitude of [`qfault::PerturbAngle`] offsets.
    pub epsilon: f64,
    /// Budget for the benign-mutation guard.
    pub guard: GuardOptions,
    /// Wall-clock budget for each complete check inside the flow.
    pub deadline: Option<Duration>,
    /// The ablation axes in render order, each with its arms. Default:
    /// [`Axis::defaults`], one arm each; [`CampaignConfig::with_axis`]
    /// replaces one axis's arms.
    pub axes: Vec<Axis>,
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
            epsilon: 0.1,
            guard: GuardOptions::default(),
            deadline: Some(Duration::from_secs(30)),
            axes: Axis::defaults(),
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
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        assert!(trials >= 1, "need at least one trial");
        self.trials = trials;
        self
    }

    /// Sets the number of faults injected per trial.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is zero.
    #[must_use]
    pub fn with_faults(mut self, faults: usize) -> Self {
        assert!(faults >= 1, "need at least one fault per trial");
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
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Sets the trial-level worker count (1 = sequential trials).
    #[must_use]
    pub fn with_trial_threads(mut self, trial_threads: usize) -> Self {
        self.trial_threads = trial_threads;
        self
    }

    /// Sets the angle-perturbation magnitude ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Replaces the arms of `axis`'s kind with `axis`'s arms.
    ///
    /// # Panics
    ///
    /// Panics if `axis` has no arm, or a zero χ cap.
    #[must_use]
    pub fn with_axis(mut self, axis: Axis) -> Self {
        assert!(
            axis.arm_count() > 0,
            "the {} axis needs at least one arm",
            axis.flag()
        );
        if let Axis::Chi(arms) = &axis {
            assert!(
                arms.iter().all(|&a| a > 0),
                "{} arms must be positive",
                axis.flag()
            );
        }
        match self
            .axes
            .iter_mut()
            .find(|a| discriminant(*a) == discriminant(&axis))
        {
            Some(slot) => *slot = axis,
            None => self.axes.push(axis),
        }
        self
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

    /// The first axis other than the stimulus strategies with more than
    /// one arm: a pair audit ablates stimuli only, so [`audit_pair`]
    /// refuses such a configuration.
    #[must_use]
    pub fn pair_audit_conflict(&self) -> Option<&Axis> {
        self.axes
            .iter()
            .find(|a| a.arm_count() > 1 && !matches!(a, Axis::Stimuli(_)))
    }

    /// The flow configuration of one arm combination (`arms[a]` indexes
    /// `self.axes[a]`), before the trial's seed and event sink are set.
    fn flow_config(&self, arms: &[usize]) -> Config {
        let base = Config::new()
            .with_simulations(self.simulations)
            .with_threads(self.threads)
            .with_deadline(self.deadline)
            .with_peel(self.peel);
        self.axes
            .iter()
            .zip(arms)
            .fold(base, |config, (axis, &i)| axis.configure(i, config))
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

impl Detection {
    fn of(outcome: &Outcome) -> Detection {
        match outcome {
            Outcome::NotEquivalent {
                counterexample: Some(ce),
            } => Detection::Simulation { sims: ce.run },
            Outcome::NotEquivalent {
                counterexample: None,
            } => Detection::Complete,
            _ => Detection::Missed,
        }
    }
}

/// One trial of a campaign: the injected mutations, the guard's label, and
/// the flow's verdict.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Index of the benchmark in the campaign's benchmark list.
    pub benchmark: usize,
    /// The arm the flow ran on each axis: `arms[a]` indexes
    /// `config.axes[a]`.
    pub arms: Vec<usize>,
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

    /// Adds another aggregate field by field (histograms bin by bin).
    pub fn add(&mut self, other: &ClassStats) {
        self.trials += other.trials;
        self.inapplicable += other.inapplicable;
        self.benign += other.benign;
        self.unchecked += other.unchecked;
        self.faults += other.faults;
        self.detected_by_sim += other.detected_by_sim;
        self.detected_by_complete += other.detected_by_complete;
        self.missed += other.missed;
        self.false_positives += other.false_positives;
        self.total_sims += other.total_sims;
        if self.sims_histogram.len() < other.sims_histogram.len() {
            self.sims_histogram.resize(other.sims_histogram.len(), 0);
        }
        for (acc, c) in self.sims_histogram.iter_mut().zip(&other.sims_histogram) {
            *acc += c;
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
/// The wall-clock field is scheduling-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Total wall time spent labelling mutations.
    pub guard_time: Duration,
    /// Mutations labelled by a complete check.
    pub checks: usize,
}

/// One arm's share of a campaign: the per-class aggregates and the stage
/// timings of the trials that ran on it.
#[derive(Debug, Clone)]
pub struct ArmStats {
    /// Per-class aggregates, in `config.classes` order.
    pub classes: Vec<(MutationKind, ClassStats)>,
    /// Scheduler-event summary of the arm's flow invocations (wall-clock
    /// fields are only rendered on request).
    pub timings: StageTimings,
}

/// The complete outcome of [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// Benchmark metadata in campaign order: `(name, family, n, |G|, |G'|)`.
    pub benchmarks: Vec<(String, String, usize, usize, usize)>,
    /// Per-class aggregates over *all* arms, in `config.classes` order.
    pub classes: Vec<(MutationKind, ClassStats)>,
    /// Per-arm breakdown of the same aggregates: `arms[a][i]` covers the
    /// trials that ran arm `i` of `config.axes[a]`, so each axis's arms
    /// sum to `classes`.
    pub arms: Vec<Vec<ArmStats>>,
    /// `families[f]` is the family name; `cells[f][k]` the counts for
    /// family `f` under class `config.classes[k]`.
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

/// One (benchmark × arms × class × trial) cell of the campaign's work
/// list. The seed is keyed on everything *except* the arms, so all
/// ablation arms face the identical injected fault.
#[derive(Debug)]
struct TrialCell {
    benchmark: usize,
    arms: Vec<usize>,
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

/// Runs the detection-power experiment: for every benchmark × arm
/// combination × error class × trial, inject `faults` seeded mutations
/// into `G'`, label them with the guard, and run the full checking flow
/// against `G`.
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
    let grid = arm_grid(&config.axes);
    let mut cells = Vec::new();
    for benchmark in 0..benchmarks.len() {
        for arms in &grid {
            for (class, &class_seed) in class_seed_idx.iter().enumerate() {
                for trial in 0..config.trials {
                    cells.push(TrialCell {
                        benchmark,
                        arms: arms.clone(),
                        class,
                        trial,
                        seed: trial_seed(config.seed, benchmark, class_seed, trial),
                    });
                }
            }
        }
    }

    // One guard per benchmark, holding the golden gate list every mutant
    // is diffed against.
    let guards: Vec<GuardCache> = benchmarks
        .iter()
        .map(|b| GuardCache::new(&b.alternative, &config.guard))
        .collect();

    // Fan the cells across the shared ordered pool: trial order in, trial
    // order out, byte-identical at any worker count.
    let outputs: Vec<TrialOutput> =
        crate::pool::run_ordered(cells.len(), config.trial_threads, |i| {
            let cell = &cells[i];
            run_trial(
                &benchmarks[cell.benchmark],
                mutators[cell.class].as_ref(),
                &guards[cell.benchmark],
                cell,
                config,
            )
        });

    // Deterministic merge: aggregate in trial order, exactly as the
    // sequential inner loop would have.
    let mut cell_stats = vec![vec![FamilyCell::default(); mutators.len()]; families.len()];
    let mut classes: Vec<(MutationKind, ClassStats)> = mutators
        .iter()
        .map(|m| (m.kind(), ClassStats::default()))
        .collect();
    let empty_arm = ArmStats {
        classes: classes.clone(),
        timings: StageTimings::default(),
    };
    let mut arms: Vec<Vec<ArmStats>> = config
        .axes
        .iter()
        .map(|axis| vec![empty_arm.clone(); axis.arm_count()])
        .collect();
    let mut trials = Vec::with_capacity(outputs.len());
    let mut stage_timings = StageTimings::default();
    let mut guard_stats = GuardStats::default();
    for (cell, output) in cells.iter().zip(outputs) {
        let record = output.record;
        stage_timings = stage_timings.merged(output.timings);
        guard_stats.guard_time += output.guard_time;
        classes[cell.class].1.record(&record);
        for (axis_arms, &i) in arms.iter_mut().zip(&cell.arms) {
            let arm = &mut axis_arms[i];
            arm.classes[cell.class].1.record(&record);
            arm.timings = arm.timings.merged(output.timings);
        }
        if record.guard.is_fault() {
            let family = families
                .iter()
                .position(|f| f == &benchmarks[cell.benchmark].family)
                .expect("every benchmark's family is registered");
            let family_cell = &mut cell_stats[family][cell.class];
            family_cell.faults += 1;
            if !matches!(record.detection, Some(Detection::Missed) | None) {
                family_cell.detected += 1;
            }
        }
        trials.push(record);
    }
    guard_stats.checks = guards.iter().map(GuardCache::mutants_checked).sum();

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
        arms,
        families,
        cells: cell_stats,
        trials,
        stage_timings,
        guard_stats,
        wall_time: start.elapsed(),
    }
}

fn run_trial(
    bench: &CampaignBenchmark,
    mutator: &dyn Mutator,
    guard: &GuardCache,
    cell: &TrialCell,
    config: &CampaignConfig,
) -> TrialOutput {
    let mut record = TrialRecord {
        benchmark: cell.benchmark,
        arms: cell.arms.clone(),
        kind: mutator.kind(),
        trial: cell.trial,
        seed: cell.seed,
        mutations: Vec::new(),
        guard: GuardVerdict::Unchecked {
            reason: "inapplicable".to_string(),
        },
        detection: None,
        sims_run: 0,
    };
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let mut mutated = bench.alternative.clone();
    for _ in 0..config.faults {
        match mutator.apply(&mutated, &mut rng) {
            Ok((next, mutation)) => {
                mutated = next;
                record.mutations.push(mutation.to_string());
            }
            // The class has no applicable site at all — record and bail.
            Err(_) if record.mutations.is_empty() => {
                return TrialOutput {
                    record,
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
    for _ in 1..config.compose {
        let kind = config.classes[rng.gen_range(0..config.classes.len())];
        if let Ok((next, mutation)) = mutator_for(kind, config.epsilon).apply(&mutated, &mut rng) {
            mutated = next;
            record.mutations.push(mutation.to_string());
        }
    }

    let guard_start = Instant::now();
    record.guard = guard.classify(&mutated);
    let guard_time = guard_start.elapsed();

    let sink = Arc::new(CollectingSink::new());
    let flow_config = config
        .flow_config(&cell.arms)
        .with_seed(cell.seed)
        .with_event_sink(sink.clone());
    let result = check_equivalence(&bench.original, &mutated, &flow_config)
        .expect("mutators preserve the register, so the flow must accept the pair");
    record.detection = Some(Detection::of(&result.outcome));
    record.sims_run = result.stats.simulations_run;
    TrialOutput {
        record,
        timings: StageTimings::from_events(&sink.events()),
        guard_time,
    }
}

impl CampaignResult {
    /// The axes that render a breakdown section and a Markdown table, with
    /// their arms: those with several arms, and those that always render.
    fn rendered_axes(&self) -> impl Iterator<Item = (&Axis, &Vec<ArmStats>)> {
        self.config
            .axes
            .iter()
            .zip(&self.arms)
            .filter(|(axis, arms)| axis.always_rendered() || arms.len() > 1)
    }

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
            .num("epsilon", self.config.epsilon);
        for axis in &self.config.axes {
            axis.render_config(&mut cfg);
        }
        // Like the axes: only a filtered class selection renders, keeping
        // full campaigns byte-identical to pre-filter goldens.
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

        for (axis, arms) in self.rendered_axes() {
            let names = axis.names();
            root.raw(
                names.plural,
                json::array(arms.iter().enumerate().map(|(i, arm)| {
                    let mut o = json::Obj::new();
                    o.raw(names.arm, axis.arm_json(i))
                        .raw("classes", class_stats_json(&arm.classes));
                    if with_timings {
                        o.num("t_ec_s", arm.timings.functional_time.as_secs_f64());
                    }
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
        // lands) vary between runs, so it only renders on request, as do
        // the guard and run summaries. The execution knob `trial_threads`
        // is deliberately absent from the config object above: it must not
        // change the reproducible rendering.
        if with_timings {
            root.raw("stage_summary", self.stage_timings.to_json(true));
            let mut guard = json::Obj::new();
            guard
                .num("t_guard_s", self.guard_stats.guard_time.as_secs_f64())
                .int("checks", self.guard_stats.checks as u64);
            root.raw("guard_summary", guard.render());
            let mut run = json::Obj::new();
            run.num("wall_s", self.wall_time.as_secs_f64())
                .int("trial_threads", self.config.trial_threads as u64);
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

        for (axis, arms) in self.rendered_axes() {
            let names = axis.names();
            let last = if axis.reports_ec_time() {
                "t_ec (s)"
            } else {
                "rate"
            };
            out.push_str(&format!(
                "\n## Detection by {}\n\n\
                 | {} | faults | det. sim | det. complete | missed | mean #sims | {last} |\n\
                 |---|---|---|---|---|---|---|\n",
                names.heading, names.arm,
            ));
            for (i, arm) in arms.iter().enumerate() {
                out.push_str(&ablation_row(&axis.label(i), arm, axis.reports_ec_time()));
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
            "guard summary: {} checks, t_guard {:.3}s\n",
            self.guard_stats.checks,
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
/// times per configured stimulus strategy, so the per-strategy detection
/// power is measured without the complete check masking misses. Every
/// other axis contributes its one arm.
///
/// The trial seeds are shared across strategies
/// ([`trial_seed`]`(seed, 0, 0, t)`), making rows directly comparable; the
/// audit is a pure function of the pair and the configuration.
///
/// # Panics
///
/// Panics if the circuits' qubit counts differ, or if an axis other than
/// the stimulus strategies has more than one arm (a pair audit ablates
/// stimuli only).
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
    if let Some(axis) = config.pair_audit_conflict() {
        panic!(
            "a pair audit ablates stimuli only, but the {} axis has {} arms",
            axis.flag(),
            axis.arm_count()
        );
    }
    let guard = qfault::guard::classify(golden, faulty, &config.guard);
    let strategies = arm_grid(&config.axes)
        .iter()
        .map(|arms| {
            let flow_config = config.flow_config(arms).with_fallback(Fallback::None);
            let trials = (0..config.trials)
                .map(|t| {
                    let seed = trial_seed(config.seed, 0, 0, t);
                    let result =
                        check_equivalence(golden, faulty, &flow_config.clone().with_seed(seed))
                            .expect("equal registers were asserted above");
                    PairTrial {
                        seed,
                        detection: Detection::of(&result.outcome),
                        sims_run: result.stats.simulations_run,
                    }
                })
                .collect();
            (flow_config.stimuli, trials)
        })
        .collect();
    PairAudit {
        name: name.into(),
        n_qubits: golden.n_qubits(),
        guard,
        strategies,
    }
}

/// Renders one arm's row of an ablation Markdown table: the class-summed
/// detection counts, then the detection rate or, with `ec_time`, the arm's
/// complete-check wall-clock.
fn ablation_row(label: &str, arm: &ArmStats, ec_time: bool) -> String {
    let mut total = ClassStats::default();
    for (_, s) in &arm.classes {
        total.add(s);
    }
    let mean = total
        .mean_sims_to_detect()
        .map_or_else(|| "—".to_string(), |m| format!("{m:.2}"));
    let last = if ec_time {
        format!("{:.3}", arm.timings.functional_time.as_secs_f64())
    } else {
        total
            .detection_rate()
            .map_or_else(|| "—".to_string(), |r| format!("{:.0}%", r * 100.0))
    };
    format!(
        "| {label} | {} | {} | {} | {} | {mean} | {last} |\n",
        total.faults, total.detected_by_sim, total.detected_by_complete, total.missed,
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

    /// Position of the axis set by `--flag` in the axis list.
    fn axis(flag: &str) -> usize {
        Axis::defaults()
            .iter()
            .position(|a| a.flag() == flag)
            .expect("a known axis flag")
    }

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
            .with_axis(Axis::Stimuli(vec![
                StimulusStrategy::Random,
                StimulusStrategy::Stabilizer,
            ]));
        let result = run_campaign(&benches, &config);
        assert_eq!(result.arms[axis("stimuli")].len(), 2);
        assert_eq!(result.trials.len(), 2 * MutationKind::ALL.len());
        // The strategy axis re-checks the *same* faults: trial seeds and
        // injected mutations repeat between the two halves.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.arms[axis("stimuli")], 0);
            assert_eq!(b.arms[axis("stimuli")], 1);
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
            .with_axis(Axis::Backend(vec![
                BackendKind::Statevector,
                BackendKind::DecisionDiagram,
            ]));
        let result = run_campaign(&benches, &config);
        assert_eq!(result.arms[axis("backend")].len(), 2);
        assert_eq!(result.trials.len(), 2 * MutationKind::ALL.len());
        // The backend axis re-checks the *same* faults with the same
        // stimuli: seeds and mutations repeat between the halves, and the
        // two engines must agree on every guard label and verdict.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.arms[axis("backend")], 0);
            assert_eq!(b.arms[axis("backend")], 1);
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
            .with_axis(Axis::Backend(vec![BackendKind::Mps]))
            .with_classes(vec![MutationKind::RemoveGate, MutationKind::AddGate])
            .with_axis(Axis::Chi(vec![1, 64]));
        let result = run_campaign(&benches, &config);
        assert_eq!(result.arms[axis("chi")].len(), 2);
        // The χ axis re-checks the *same* faults: seeds and mutations
        // repeat between the two arms.
        let half = result.trials.len() / 2;
        for (a, b) in result.trials[..half].iter().zip(&result.trials[half..]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.arms[axis("chi")], 0);
            assert_eq!(b.arms[axis("chi")], 1);
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
    fn single_nondefault_backend_renders_a_stable_config_field() {
        let benches = vec![CampaignBenchmark::optimized(
            "ghz 4",
            "ghz",
            &generators::ghz(4),
        )];
        let config = CampaignConfig::default()
            .with_trials(1)
            .with_simulations(4)
            .with_axis(Axis::Backend(vec![BackendKind::DecisionDiagram]));
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
            .with_axis(Axis::Stimuli(vec![
                StimulusStrategy::Random,
                StimulusStrategy::Stabilizer,
            ]));
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
    #[should_panic(expected = "ablates stimuli only, but the backend axis has 2 arms")]
    fn pair_audit_refuses_a_second_ablated_axis() {
        let golden = generators::ghz(3);
        let config = CampaignConfig::default().with_axis(Axis::Backend(vec![
            BackendKind::Statevector,
            BackendKind::DecisionDiagram,
        ]));
        let _ = audit_pair("ghz", &golden, &golden, &config);
    }

    #[test]
    #[should_panic(expected = "need at least one trial")]
    fn zero_trials_are_refused() {
        let _ = CampaignConfig::default().with_trials(0);
    }

    #[test]
    #[should_panic(expected = "need at least one fault per trial")]
    fn zero_faults_are_refused() {
        let _ = CampaignConfig::default().with_faults(0);
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_are_refused() {
        let _ = CampaignConfig::default().with_threads(0);
    }

    #[test]
    fn axis_flags_parse_their_arms() {
        for axis in Axis::defaults() {
            assert_eq!(Axis::named(axis.flag()), Some(axis));
        }
        assert_eq!(Axis::named("compose"), None);
        let backend = Axis::named("backend").unwrap();
        assert_eq!(
            backend.parse_arms("sv,dd"),
            Ok(Axis::Backend(vec![
                BackendKind::Statevector,
                BackendKind::DecisionDiagram
            ]))
        );
        assert!(backend.parse_arms("sv,warp").is_err());
        let chi = Axis::named("chi").unwrap();
        assert_eq!(chi.parse_arms("4, 64"), Ok(Axis::Chi(vec![4, 64])));
        let e = chi.parse_arms("4,0").unwrap_err();
        assert!(e.contains("--chi") && e.contains("`0`"), "{e}");
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

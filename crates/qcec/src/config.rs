//! Configuration of the equivalence checking flow.

use std::sync::Arc;
use std::time::Duration;

use crate::scheduler::EventSink;
pub use qdd::ApplicationScheme;

/// When two output states (or system matrices) count as "equal".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criterion {
    /// Exact equality: `⟨uᵢ|uᵢ′⟩ = 1` — the paper's formulation.
    Strict,
    /// Equality up to one global phase: `|⟨uᵢ|uᵢ′⟩| = 1`. The physically
    /// meaningful notion; the default.
    #[default]
    UpToGlobalPhase,
}

/// How the `r` stimuli are chosen (see [`qstim`] for the generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StimulusStrategy {
    /// Uniformly random distinct basis states (the paper's choice; the
    /// default). Detection probability per run equals the differing-column
    /// fraction regardless of where the error sits.
    #[default]
    Random,
    /// The first `r` basis states `|0⟩, |1⟩, …` — a naive baseline kept for
    /// ablation: it systematically misses errors gated on high qubits being
    /// `|1⟩` (their differing columns live at high indices).
    Sequential,
    /// Random product states: every qubit gets an independent Haar-random
    /// single-qubit state via a seeded `U3` layer. A `c`-controlled fault
    /// is hit with probability `1 − 2^{1−c}`-ish per run instead of
    /// `2^{−c}` — the power-of-simulation upgrade over classical stimuli.
    Product,
    /// Uniformly random stabilizer states, prepared by a seeded Clifford
    /// prefix circuit drawn through `qstab`. Entangled across qubits, so a
    /// single run touches *every* column of `U†U'` at once; still cheap to
    /// sample and exactly representable.
    Stabilizer,
}

impl StimulusStrategy {
    /// Every strategy, in ablation-report order.
    pub const ALL: [StimulusStrategy; 4] = [
        StimulusStrategy::Random,
        StimulusStrategy::Sequential,
        StimulusStrategy::Product,
        StimulusStrategy::Stabilizer,
    ];

    /// A stable lowercase identifier (used in campaign JSON and CLI flags).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            StimulusStrategy::Random => "basis",
            StimulusStrategy::Sequential => "sequential",
            StimulusStrategy::Product => "product",
            StimulusStrategy::Stabilizer => "stabilizer",
        }
    }

    /// Parses a [`slug`](StimulusStrategy::slug) (also accepts `random` as
    /// an alias for the basis strategy).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "basis" | "random" => Ok(StimulusStrategy::Random),
            "sequential" => Ok(StimulusStrategy::Sequential),
            "product" => Ok(StimulusStrategy::Product),
            "stabilizer" => Ok(StimulusStrategy::Stabilizer),
            other => Err(format!(
                "unknown stimulus strategy `{other}` (expected basis|sequential|product|stabilizer)"
            )),
        }
    }
}

impl std::fmt::Display for StimulusStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Which engine runs the `r` simulations (see [`crate::backend`] for the
/// engines themselves — this is the serializable *selector* the trait
/// implementations are dispatched on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Dense statevector simulation (`qsim`) — `O(2ⁿ)` memory, fast and
    /// predictable; the default.
    #[default]
    Statevector,
    /// Decision-diagram simulation (`qdd`) — the paper's engine \[25\];
    /// exponentially compact on structured states.
    DecisionDiagram,
    /// Stabilizer/CHP tableau simulation (`qstab`) — `O(n²)` per probe on
    /// Clifford-only circuit segments, falling back to the dense engine for
    /// probes that encounter a non-Clifford gate. Unlocks register sizes
    /// (`n ≫ 20`) no dense engine reaches for the Clifford-dominated
    /// workload class.
    Stab,
    /// Matrix-product-state tensor-network simulation (`qmpo`) — memory
    /// scales with the entanglement the circuit actually builds (bond
    /// dimension), not with `2ⁿ`. Exact while the bond dimension stays
    /// under [`Config::chi_max`]; beyond it the engine truncates, tracks
    /// the accumulated error, and the flow downgrades "no counterexample
    /// found" verdicts accordingly.
    Mps,
    /// Automatic selection: pick one of the four concrete engines from the
    /// register width and gate mix of the circuit pair (Clifford-only →
    /// `stab`, small registers → `sv`, mid-size → `dd`, else `mps`).
    /// Resolved once per check, before any simulation runs; the choice is
    /// reported through the event sink. Not a concrete engine, so it is
    /// excluded from [`BackendKind::ALL`].
    Auto,
}

impl BackendKind {
    /// Every *concrete* backend, in ablation-report order.
    /// [`BackendKind::Auto`] is a selector, not an engine, and is excluded.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Statevector,
        BackendKind::DecisionDiagram,
        BackendKind::Stab,
        BackendKind::Mps,
    ];

    /// A stable lowercase identifier (used in campaign JSON and CLI flags).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            BackendKind::Statevector => "sv",
            BackendKind::DecisionDiagram => "dd",
            BackendKind::Stab => "stab",
            BackendKind::Mps => "mps",
            BackendKind::Auto => "auto",
        }
    }

    /// Parses a [`slug`](BackendKind::slug) (also accepts the long forms
    /// `statevector`, `decision-diagram`, `stabilizer`, `tensor-network`
    /// and `automatic`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sv" | "statevector" => Ok(BackendKind::Statevector),
            "dd" | "decision-diagram" | "decisiondiagram" => Ok(BackendKind::DecisionDiagram),
            "stab" | "stabilizer" => Ok(BackendKind::Stab),
            "mps" | "tensor-network" | "tensornetwork" => Ok(BackendKind::Mps),
            "auto" | "automatic" => Ok(BackendKind::Auto),
            other => Err(format!(
                "unknown backend `{other}` (expected sv|dd|stab|mps|auto)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Which complete equivalence checking routine runs after the simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// The improved alternating scheme `G → 𝕀 ← G'` of \[22\]; the default.
    #[default]
    Alternating,
    /// Construct and compare both complete system matrices (\[21\], \[26\]).
    ConstructAndCompare,
    /// No functional check: after `r` agreeing simulations report
    /// "probably equivalent" immediately.
    None,
}

/// Tunable parameters of the flow (defaults follow the paper: `r = 10`
/// random basis states, then a complete DD check under a deadline).
///
/// # Examples
///
/// ```
/// use qcec::{Config, Fallback};
/// use std::time::Duration;
///
/// let config = Config::new()
///     .with_simulations(10)
///     .with_seed(0xBEEF)
///     .with_deadline(Some(Duration::from_secs(60)))
///     .with_fallback(Fallback::Alternating);
/// assert_eq!(config.simulations, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random basis-state simulations `r` (paper default: 10).
    pub simulations: usize,
    /// RNG seed for choosing the basis states (runs are reproducible).
    pub seed: u64,
    /// Fidelity slack: outputs with fidelity below `1 − fidelity_tolerance`
    /// prove non-equivalence.
    pub fidelity_tolerance: f64,
    /// Equality notion.
    pub criterion: Criterion,
    /// Simulation engine.
    pub backend: BackendKind,
    /// Complete equivalence checking routine.
    pub fallback: Fallback,
    /// How stimulus basis states are chosen.
    pub stimuli: StimulusStrategy,
    /// Simulation workers for the flow:
    /// [`check_equivalence`](crate::check_equivalence) and
    /// [`run_simulations`](crate::run_simulations) fan the stimuli across
    /// this many [`scheduler`](crate::scheduler) workers, the calling
    /// thread being one of them — so `1` (the default) spawns no thread at
    /// all. The verdict is deterministic per seed at any count; workers
    /// are the flow's only parallelism (every probe runs on one thread).
    pub threads: usize,
    /// Wall-clock budget for the *complete* check (the simulations are
    /// never aborted; they are the cheap part). `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Node budget for decision diagrams (memory analogue of the deadline).
    pub dd_node_limit: usize,
    /// Bond-dimension cap `χ` for the tensor-network engine
    /// ([`BackendKind::Mps`]): two-site splits keep at most this many
    /// singular values. While no split exceeds the cap the engine is
    /// *exact* (truncation error is identically zero); once it truncates,
    /// the flow reports the accumulated error and never claims plain
    /// equivalence.
    pub chi_max: usize,
    /// Clifford peeling: before any simulation or complete check, strip
    /// the longest common prefix and suffix of *canonically identical
    /// Clifford* gates from both circuits (see [`peel`](crate::peel)).
    /// Sound for both criteria (conjugating by a shared unitary preserves
    /// identity up to global phase) and often shrinks the residual pair
    /// dramatically on compiled-vs-original workloads. Off by default: the
    /// residual circuits see different stimuli *internally* (the stripped
    /// prefix no longer randomises them), so verdict-equivalent runs are
    /// not bit-identical with the unpeeled flow.
    pub peel: bool,
    /// Gate-interleaving policy of the alternating complete check (see
    /// [`qdd::ApplicationScheme`]): which side of `G → 𝕀 ← G'` advances
    /// next. Scheme-independent verdicts, scheme-dependent intermediate
    /// DD sizes — proportional (the default) reproduces the historical
    /// behaviour bit for bit.
    pub scheme: ApplicationScheme,
    /// Receiver for the flow's [`RunEvent`](crate::scheduler::RunEvent)s
    /// (per-stage timings, per-simulation outcomes, cancellations, the
    /// `Auto` pick). `None` = discard. Every check emits them, at any
    /// thread count, as do [`run_simulations`](crate::run_simulations)
    /// and the pipeline driver.
    pub event_sink: Option<Arc<dyn EventSink>>,
}

impl PartialEq for Config {
    /// Sinks are compared by identity (same `Arc`), everything else by
    /// value — two configurations driving different sinks are genuinely
    /// not interchangeable.
    fn eq(&self, other: &Self) -> bool {
        let sinks_eq = match (&self.event_sink, &other.event_sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.simulations == other.simulations
            && self.seed == other.seed
            && self.fidelity_tolerance == other.fidelity_tolerance
            && self.criterion == other.criterion
            && self.backend == other.backend
            && self.fallback == other.fallback
            && self.stimuli == other.stimuli
            && self.threads == other.threads
            && self.deadline == other.deadline
            && self.dd_node_limit == other.dd_node_limit
            && self.chi_max == other.chi_max
            && self.peel == other.peel
            && self.scheme == other.scheme
            && sinks_eq
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            simulations: 10,
            seed: 0,
            fidelity_tolerance: 1e-8,
            criterion: Criterion::default(),
            backend: BackendKind::default(),
            fallback: Fallback::default(),
            stimuli: StimulusStrategy::default(),
            threads: 1,
            deadline: None,
            dd_node_limit: qdd::Package::DEFAULT_NODE_LIMIT,
            chi_max: qmpo::DEFAULT_CHI_MAX,
            peel: false,
            scheme: ApplicationScheme::default(),
            event_sink: None,
        }
    }
}

impl Config {
    /// Creates the default configuration (`r = 10`, statevector backend,
    /// alternating fallback, unbounded deadline).
    #[must_use]
    pub fn new() -> Self {
        Config::default()
    }

    /// Sets the number of random simulations `r`.
    #[must_use]
    pub fn with_simulations(mut self, r: usize) -> Self {
        self.simulations = r;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the equality notion.
    #[must_use]
    pub fn with_criterion(mut self, criterion: Criterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Sets the simulation engine.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the complete-check routine.
    #[must_use]
    pub fn with_fallback(mut self, fallback: Fallback) -> Self {
        self.fallback = fallback;
        self
    }

    /// Sets the stimulus-selection strategy.
    #[must_use]
    pub fn with_stimuli(mut self, stimuli: StimulusStrategy) -> Self {
        self.stimuli = stimuli;
        self
    }

    /// Sets the worker thread count (see [`Config::threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Enables or disables Clifford peeling (see [`Config::peel`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use qcec::Config;
    ///
    /// let g = qcirc::generators::qft(4, true);
    /// let opt = qcirc::optimize::optimize(&g);
    /// let result = qcec::check_equivalence(&g, &opt, &Config::new().with_peel(true)).unwrap();
    /// assert!(result.outcome.is_equivalent());
    /// ```
    #[must_use]
    pub fn with_peel(mut self, peel: bool) -> Self {
        self.peel = peel;
        self
    }

    /// Sets the gate-interleaving policy of the alternating complete
    /// check (see [`Config::scheme`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use qcec::{ApplicationScheme, Config};
    ///
    /// let g = qcirc::generators::qft(4, true);
    /// let opt = qcirc::optimize::optimize(&g);
    /// let config = Config::new().with_scheme(ApplicationScheme::GateCost);
    /// let result = qcec::check_equivalence(&g, &opt, &config).unwrap();
    /// assert!(result.outcome.is_equivalent());
    /// ```
    #[must_use]
    pub fn with_scheme(mut self, scheme: ApplicationScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Installs an event sink receiving the flow's structured
    /// [`RunEvent`](crate::scheduler::RunEvent)s (see
    /// [`Config::event_sink`]).
    #[must_use]
    pub fn with_event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.event_sink = Some(sink);
        self
    }

    /// Sets the wall-clock budget for the complete check.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the decision-diagram node budget.
    #[must_use]
    pub fn with_dd_node_limit(mut self, limit: usize) -> Self {
        self.dd_node_limit = limit;
        self
    }

    /// Sets the tensor-network bond-dimension cap (see [`Config::chi_max`]).
    ///
    /// # Panics
    ///
    /// Panics if `chi_max` is zero.
    #[must_use]
    pub fn with_chi_max(mut self, chi_max: usize) -> Self {
        assert!(chi_max > 0, "need a positive bond-dimension cap");
        self.chi_max = chi_max;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = Config::default();
        assert_eq!(c.simulations, 10);
        assert_eq!(c.criterion, Criterion::UpToGlobalPhase);
        assert_eq!(c.backend, BackendKind::Statevector);
        assert_eq!(c.fallback, Fallback::Alternating);
        assert!(c.deadline.is_none());
    }

    #[test]
    fn builder_chains() {
        let c = Config::new()
            .with_simulations(3)
            .with_seed(7)
            .with_criterion(Criterion::Strict)
            .with_backend(BackendKind::DecisionDiagram)
            .with_fallback(Fallback::None)
            .with_deadline(Some(Duration::from_millis(5)))
            .with_dd_node_limit(1000);
        assert_eq!(c.simulations, 3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.criterion, Criterion::Strict);
        assert_eq!(c.backend, BackendKind::DecisionDiagram);
        assert_eq!(c.fallback, Fallback::None);
        assert_eq!(c.dd_node_limit, 1000);
    }

    #[test]
    fn scheduler_knobs_default_off() {
        let c = Config::default();
        assert_eq!(c.threads, 1);
        assert!(!c.peel);
        assert!(c.event_sink.is_none());
        let c = c.with_threads(4).with_peel(true);
        assert_eq!(c.threads, 4);
        assert!(c.peel);
        assert_ne!(Config::default(), Config::default().with_threads(4));
    }

    #[test]
    fn backend_kind_slugs_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.slug()), Ok(kind));
        }
        assert_eq!(BackendKind::parse("stabilizer"), Ok(BackendKind::Stab));
        assert_eq!(BackendKind::parse("tensor-network"), Ok(BackendKind::Mps));
        assert_eq!(BackendKind::parse("auto"), Ok(BackendKind::Auto));
        assert!(!BackendKind::ALL.contains(&BackendKind::Auto));
        let e = BackendKind::parse("qubit-abacus").unwrap_err();
        assert!(e.contains("sv|dd|stab"), "{e}");
    }

    #[test]
    fn chi_max_defaults_and_builds() {
        let c = Config::default();
        assert_eq!(c.chi_max, qmpo::DEFAULT_CHI_MAX);
        let c = c.with_chi_max(16);
        assert_eq!(c.chi_max, 16);
        assert_ne!(Config::default(), Config::default().with_chi_max(16));
    }

    #[test]
    fn sinks_compare_by_identity() {
        use crate::scheduler::CollectingSink;
        let sink: Arc<dyn crate::scheduler::EventSink> = Arc::new(CollectingSink::new());
        let a = Config::default().with_event_sink(sink.clone());
        let b = Config::default().with_event_sink(sink);
        let c = Config::default().with_event_sink(Arc::new(CollectingSink::new()));
        assert_eq!(a, b, "same sink, same config");
        assert_ne!(a, c, "different sinks are different configs");
        assert_ne!(a, Config::default());
        assert_eq!(Config::default(), Config::default());
    }
}

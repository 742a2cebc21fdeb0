//! Simulation backends: the engines that execute one equivalence probe.
//!
//! Every consumer of the simulation stage — the
//! [`scheduler`](crate::scheduler) workers that both
//! [`check_equivalence`](crate::check_equivalence) and
//! [`run_simulations`](crate::run_simulations) run, counterexample replay
//! in [`diagnose`](crate::diagnose), and the fault-injection
//! [`campaign`](crate::campaign) — drives probes through one trait,
//! [`SimBackend`], and is therefore engine-agnostic. Four implementations
//! ship:
//!
//! * [`StatevectorBackend`] — dense `O(2ⁿ)` simulation via
//!   [`qsim::Simulator`]; fast and predictable, and the default;
//! * [`qdd::DdBackend`] — decision-diagram simulation (the paper's engine
//!   \[25\]): each stimulus is pushed through both circuits as vector-edge
//!   passes, exponentially compact whenever the intermediate states stay
//!   structured (basis-permutation arithmetic, Clifford prefixes, …);
//! * [`StabBackend`] — stabilizer/CHP tableau simulation via
//!   [`qstab::Tableau`]: `O(n²)` bit operations per gate when the probe
//!   (stimulus prefix and both circuits) is Clifford-only, with a
//!   transparent per-probe fallback to the dense engine otherwise — the
//!   polynomial-time fast path for Clifford-dominated workloads;
//! * [`MpsBackend`] — matrix-product-state simulation via [`qmpo::Mps`]:
//!   memory scales with the bond dimension `χ`, not `2ⁿ`, so probes keep
//!   running past the dense wall. Bond truncation (when `χ` would exceed
//!   [`Config::chi_max`](crate::Config::chi_max)) is reported through
//!   [`ProbeMetrics::truncation_error`] — `0.0` is a certificate that the
//!   probe was exact.
//!
//! [`BackendKind::Auto`] is not a fifth engine
//! but a selector: [`auto_backend`] resolves it to one of the four from
//! the register width, the gate mix and the gates' wire spans before any
//! probe runs. The flow builds the configured engine in one place,
//! `with_engine`.
//!
//! # Contract
//!
//! A probe is a **pure function** of `(G, G′, stimulus)`: backends must not
//! let hidden state leak between runs. The statevector backend reuses raw
//! buffers (overwritten wholesale each run); the DD backend pools one
//! hash-consing package in its workspace and [`qdd::Package::reset`]s it
//! to the freshly-constructed state before every probe, precisely because
//! interned edge weights *would* otherwise depend on probe order (the
//! reset is provably clean: pooled probes are bit-identical to
//! fresh-package probes). This purity is what lets the scheduler's
//! in-order judge reach the same verdict bit for bit at any worker count,
//! on every engine.
//!
//! Cancellation granularity differs by engine and is part of the contract:
//! the statevector backend polls `keep_going` between gate applications,
//! while the DD backend polls once between its two circuit passes (a DD
//! pass has no cheap intermediate abort points). The stab backend polls
//! between tableau gate conjugations on its fast path and inherits the
//! dense granularity when it falls back. Either way a `false` poll yields
//! `None`, never a partial overlap.
//!
use qcirc::Circuit;
use qnum::Complex;
use qsim::{ProbeWorkspace, Simulator};
use qstim::Stimulus;

use crate::config::{BackendKind, Config, Criterion, StimulusStrategy};

/// What one completed probe hands back: the overlap plus backend-specific
/// effort instrumentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    /// The overlap `⟨u|u′⟩` of the two output states.
    pub overlap: Complex,
    /// Effort counters (zero for backends that do not track them).
    pub metrics: ProbeMetrics,
}

impl ProbeOutcome {
    /// An outcome carrying only an overlap (no effort counters).
    #[must_use]
    pub fn bare(overlap: Complex) -> Self {
        ProbeOutcome {
            overlap,
            metrics: ProbeMetrics::default(),
        }
    }
}

/// Per-probe effort counters. The dense backend's working set is fixed
/// (two `2ⁿ` buffers), so it reports zeros; the DD backend reports its
/// node-count instrumentation; the MPS backend reports its peak bond
/// dimension and accumulated truncation error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeMetrics {
    /// Peak live decision-diagram nodes during the run — or, for the MPS
    /// backend, the peak bond dimension (0 for dense backends).
    pub peak_nodes: usize,
    /// Distinct complex values interned by the end of the run (0 for dense
    /// backends).
    pub complex_values: usize,
    /// Accumulated bond-truncation error of the MPS backend (sum of
    /// discarded squared-singular-value weight fractions across every
    /// truncated split). Exactly `0.0` when the probe was exact — for the
    /// MPS backend that is a certificate, not an approximation.
    pub truncation_error: f64,
}

/// One simulation engine, shared by every worker of the flow's simulation
/// stage.
///
/// Implementations are shared by reference across scheduler workers, so
/// they must be `Send + Sync`; all per-run mutable state lives in the
/// per-thread [`Workspace`](SimBackend::Workspace).
pub trait SimBackend: Send + Sync {
    /// Per-thread scratch state: allocated once per worker, reused across
    /// every probe on that thread.
    type Workspace: Send;

    /// The serializable selector naming this engine.
    fn kind(&self) -> BackendKind;

    /// Whether this engine can return approximate overlaps
    /// ([`ProbeMetrics::truncation_error`] `> 0`). On an exact engine a
    /// scheduler worker flags a failing probe the moment it returns, with
    /// the judge's per-run predicate. On a truncating one it must not: the
    /// judge decides each run against a tolerance widened by the truncation
    /// accumulated over every earlier stimulus, so an early flag the judge
    /// then rejects would skip stimuli a single worker probes, breaking
    /// determinism.
    fn can_truncate(&self) -> bool {
        false
    }

    /// Allocates one thread's scratch state for `n_qubits`-qubit probes.
    fn workspace(&self, n_qubits: usize) -> Self::Workspace;

    /// Probes one stimulus: prepares it, pushes it through both circuits,
    /// and returns the overlap `⟨u|u′⟩` of the outputs.
    ///
    /// # Errors
    ///
    /// Returns [`qdd::DdLimitError`] if the engine exhausts its node
    /// budget (dense backends never fail).
    fn probe(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut Self::Workspace,
    ) -> Result<ProbeOutcome, qdd::DdLimitError> {
        Ok(self
            .probe_while(g, g_prime, stimulus, workspace, &|| true)?
            .expect("unconditional probe cannot be cancelled"))
    }

    /// Like [`SimBackend::probe`], but polls `keep_going` at the engine's
    /// natural abort points and returns `None` as soon as it reads
    /// `false` — the cancellable variant for worker pools whose remaining
    /// stimuli become moot once a counterexample is found elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`qdd::DdLimitError`] if the engine exhausts its node
    /// budget.
    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut Self::Workspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError>;

    /// Probes several stimuli one after another, returning one outcome per
    /// stimulus in input order, or `Ok(None)` as soon as one probe is
    /// cancelled. The flow itself probes one stimulus per call
    /// ([`SimBackend::probe_while`]); this loop is for callers that want a
    /// slice of outcomes at once, and outcome `i` is what a lone
    /// `probe_while` on `stimuli[i]` returns.
    ///
    /// # Errors
    ///
    /// Returns [`qdd::DdLimitError`] if the engine exhausts its node
    /// budget on any of the stimuli.
    fn probe_batch_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimuli: &[Stimulus],
        workspace: &mut Self::Workspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<Vec<ProbeOutcome>>, qdd::DdLimitError> {
        let mut outcomes = Vec::with_capacity(stimuli.len());
        for stimulus in stimuli {
            match self.probe_while(g, g_prime, stimulus, workspace, keep_going)? {
                Some(outcome) => outcomes.push(outcome),
                None => return Ok(None),
            }
        }
        Ok(Some(outcomes))
    }

    /// Replays one stimulus through both circuits and returns the two
    /// *dense* output amplitude vectors, for counterexample diagnosis.
    /// Output is `O(2ⁿ)` regardless of engine, so this is for registers
    /// that fit in memory.
    ///
    /// # Errors
    ///
    /// Returns [`qdd::DdLimitError`] if the engine exhausts its node
    /// budget.
    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut Self::Workspace,
    ) -> Result<(Vec<Complex>, Vec<Complex>), qdd::DdLimitError>;
}

/// The dense statevector engine: wraps [`qsim::Simulator`] and a reusable
/// pair of state vectors per thread.
///
/// # Examples
///
/// ```
/// use qcec::backend::{SimBackend, StatevectorBackend};
/// use qcec::Stimulus;
///
/// let g = qcirc::generators::ghz(3);
/// let backend = StatevectorBackend::new();
/// let mut ws = backend.workspace(3);
/// let out = backend.probe(&g, &g, &Stimulus::Basis(5), &mut ws).unwrap();
/// assert!((out.overlap.norm_sqr() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatevectorBackend {
    sim: Simulator,
}

impl StatevectorBackend {
    /// A backend whose kernels run on the calling thread.
    #[must_use]
    pub fn new() -> Self {
        StatevectorBackend {
            sim: Simulator::new(),
        }
    }

    /// The backend the flow derives from its configuration. The dense
    /// engine has no tunables — the flow's only parallelism is its worker
    /// threads, one probe each — so this is [`StatevectorBackend::new`].
    #[must_use]
    pub fn for_flow(_config: &Config) -> Self {
        StatevectorBackend::new()
    }
}

/// Per-thread scratch for [`StatevectorBackend`]: [`qsim::ProbeWorkspace`]'s
/// two `2ⁿ` state vectors, one per branch.
pub type SvWorkspace = ProbeWorkspace;

impl SimBackend for StatevectorBackend {
    type Workspace = SvWorkspace;

    fn kind(&self) -> BackendKind {
        BackendKind::Statevector
    }

    fn workspace(&self, n_qubits: usize) -> SvWorkspace {
        SvWorkspace::new(n_qubits)
    }

    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut SvWorkspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError> {
        let prefix = stimulus.prefix_circuit();
        Ok(self
            .sim
            .probe_stimulus_while(
                g,
                g_prime,
                stimulus.basis_state(),
                prefix.as_ref(),
                workspace,
                keep_going,
            )
            .map(ProbeOutcome::bare))
    }

    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut SvWorkspace,
    ) -> Result<(Vec<Complex>, Vec<Complex>), qdd::DdLimitError> {
        // After a probe the workspace holds exactly the two output states.
        self.probe(g, g_prime, stimulus, workspace)?;
        Ok((workspace.left().to_vec(), workspace.right().to_vec()))
    }
}

/// The decision-diagram engine ([`qdd::DdBackend`]) seen through the flow's
/// probe trait.
///
/// The workspace is a *pooled* [`qdd::Package`]: allocated once per worker
/// and [`reset`](qdd::Package::reset) by [`qdd::DdBackend::probe_in`]
/// before every probe, which keeps the arena and table allocations warm
/// without sacrificing purity — a reset package is observationally
/// identical to a fresh one. Probes and replays run the same two-pass
/// routine, so a replay keeps its edges alive across garbage collection
/// exactly as a probe does.
impl SimBackend for qdd::DdBackend {
    type Workspace = qdd::Package;

    fn kind(&self) -> BackendKind {
        BackendKind::DecisionDiagram
    }

    fn workspace(&self, n_qubits: usize) -> qdd::Package {
        qdd::Package::with_node_limit(n_qubits, self.node_limit())
    }

    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut qdd::Package,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError> {
        let prefix = stimulus.prefix_circuit();
        let basis = stimulus.basis_state();
        Ok(self
            .probe_in(workspace, g, g_prime, prefix.as_ref(), basis, keep_going)?
            .map(|run| ProbeOutcome {
                overlap: run.overlap,
                metrics: ProbeMetrics {
                    peak_nodes: run.peak_nodes,
                    complex_values: run.complex_values,
                    truncation_error: 0.0,
                },
            }))
    }

    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut qdd::Package,
    ) -> Result<(Vec<Complex>, Vec<Complex>), qdd::DdLimitError> {
        let prefix = stimulus.prefix_circuit();
        let basis = stimulus.basis_state();
        let run = self
            .probe_in(workspace, g, g_prime, prefix.as_ref(), basis, &|| true)?
            .expect("unconditional probe cannot be cancelled");
        let [a, b] = run.outputs;
        Ok((workspace.to_statevector(a), workspace.to_statevector(b)))
    }
}

/// The stabilizer/CHP tableau engine: polynomial-time probes on
/// Clifford-only circuit pairs, dense fallback everywhere else.
///
/// Before touching any state the backend classifies the whole probe — the
/// stimulus prefix circuit (if any) and both circuits — with
/// [`qcirc::Gate::is_clifford`]. When everything is Clifford the probe runs
/// as `O(n²)`-per-gate tableau conjugations ([`qstab::Tableau`]) and the
/// overlap is the deterministic, measurement-free inner-product magnitude
/// `|⟨u|u′⟩|` ([`qstab::inner_product_magnitude`]), reported as a real
/// number (a tableau carries no global phase). On the first non-Clifford
/// gate the *entire* probe falls back to the wrapped [`StatevectorBackend`]
/// with the identical stimulus, so verdicts never depend on which path ran.
///
/// Two semantic consequences, both part of the contract:
///
/// * Stabilizer overlap magnitudes are exactly `0` or `2^{−k/2}` — the
///   same values (within float tolerance) the dense engines report for the
///   same Clifford probes — so per-run fidelity verdicts and decisive run
///   indices match the other backends.
/// * The tableau cannot represent a global phase, so under
///   [`Criterion::Strict`] the fast path would be unsound (it cannot
///   distinguish `U` from `−U`). [`StabBackend::for_flow`] therefore
///   disables the tableau path entirely under `Strict`; every probe runs
///   dense. Under the default [`Criterion::UpToGlobalPhase`] the judge's
///   cross-run phase-consistency check still operates on the fallback
///   path; on the tableau path all overlaps are real non-negative, which
///   is mutually consistent by construction. Within one flow the path is
///   uniform across runs — it depends only on the gate sets of `G`, `G′`
///   and the stimulus *strategy* (basis and stabilizer prefixes are
///   Clifford, product prefixes never are) — so the two regimes never mix.
///
/// # Examples
///
/// ```
/// use qcec::backend::{SimBackend, StabBackend};
/// use qcec::Stimulus;
///
/// // 32 qubits: far beyond dense reach, trivial for the tableau path.
/// let g = qcirc::generators::clifford_adder(15);
/// let backend = StabBackend::new();
/// let mut ws = backend.workspace(g.n_qubits());
/// let out = backend.probe(&g, &g, &Stimulus::Basis(77), &mut ws).unwrap();
/// assert_eq!(out.overlap.re, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct StabBackend {
    dense: StatevectorBackend,
    tableau_enabled: bool,
}

impl Default for StabBackend {
    fn default() -> Self {
        StabBackend::new()
    }
}

impl StabBackend {
    /// A backend with the tableau fast path enabled.
    #[must_use]
    pub fn new() -> Self {
        StabBackend {
            dense: StatevectorBackend::new(),
            tableau_enabled: true,
        }
    }

    /// The backend the flow derives from its configuration: the tableau
    /// fast path is enabled only under [`Criterion::UpToGlobalPhase`] (see
    /// the type docs for why `Strict` must run dense).
    #[must_use]
    pub fn for_flow(config: &Config) -> Self {
        StabBackend {
            dense: StatevectorBackend::new(),
            tableau_enabled: matches!(config.criterion, Criterion::UpToGlobalPhase),
        }
    }
}

/// Scratch state for [`StabBackend`] probes.
///
/// The tableau path allocates its `O(n²)` bits per probe (cloning a
/// tableau is how the two branches share the prepared stimulus), so the
/// workspace only carries the dense fallback's buffers — and those are
/// allocated *lazily*, on the first probe that actually falls back. This
/// is load-bearing: at the register widths the tableau path unlocks
/// (`n = 32` and beyond), eagerly allocating two `2ⁿ` dense buffers would
/// exhaust memory before the first probe ran.
pub struct StabWorkspace {
    n_qubits: usize,
    dense: Option<SvWorkspace>,
}

impl std::fmt::Debug for StabWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StabWorkspace")
            .field("n_qubits", &self.n_qubits)
            .field("dense_allocated", &self.dense.is_some())
            .finish()
    }
}

impl StabWorkspace {
    fn dense_buffers(&mut self) -> &mut SvWorkspace {
        let n = self.n_qubits;
        self.dense.get_or_insert_with(|| SvWorkspace::new(n))
    }
}

/// How one tableau fast-path attempt ended.
enum TableauProbe {
    /// The whole probe was Clifford; here is the overlap.
    Done(ProbeOutcome),
    /// A `keep_going` poll read `false` mid-run.
    Cancelled,
    /// A non-Clifford gate was found — run the probe on the dense engine.
    NonClifford,
}

fn tableau_probe(
    g: &Circuit,
    g_prime: &Circuit,
    stimulus: &Stimulus,
    keep_going: &dyn Fn() -> bool,
) -> TableauProbe {
    let prefix = stimulus.prefix_circuit();
    if !clifford_only(g)
        || !clifford_only(g_prime)
        || prefix.as_ref().is_some_and(|p| !clifford_only(p))
    {
        return TableauProbe::NonClifford;
    }
    let mut left = qstab::Tableau::basis(g.n_qubits(), stimulus.basis_state());
    if let Some(prefix) = &prefix {
        for gate in prefix.gates() {
            if !keep_going() {
                return TableauProbe::Cancelled;
            }
            // The up-front scan used qcirc's classifier; qstab's own
            // classifier is the authority on what it can conjugate, so an
            // error here demotes the probe to the dense path rather than
            // panicking on a (theoretically impossible) disagreement.
            if qstab::apply_gate(&mut left, gate).is_err() {
                return TableauProbe::NonClifford;
            }
        }
    }
    let mut right = left.clone();
    for (tableau, circuit) in [(&mut left, g), (&mut right, g_prime)] {
        for gate in circuit.gates() {
            if !keep_going() {
                return TableauProbe::Cancelled;
            }
            if qstab::apply_gate(tableau, gate).is_err() {
                return TableauProbe::NonClifford;
            }
        }
    }
    let magnitude = qstab::inner_product_magnitude(&left, &right);
    TableauProbe::Done(ProbeOutcome::bare(Complex::new(magnitude, 0.0)))
}

impl SimBackend for StabBackend {
    type Workspace = StabWorkspace;

    fn kind(&self) -> BackendKind {
        BackendKind::Stab
    }

    fn workspace(&self, n_qubits: usize) -> StabWorkspace {
        StabWorkspace {
            n_qubits,
            dense: None,
        }
    }

    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut StabWorkspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError> {
        if self.tableau_enabled {
            match tableau_probe(g, g_prime, stimulus, keep_going) {
                TableauProbe::Done(outcome) => return Ok(Some(outcome)),
                TableauProbe::Cancelled => return Ok(None),
                TableauProbe::NonClifford => {}
            }
        }
        self.dense
            .probe_while(g, g_prime, stimulus, workspace.dense_buffers(), keep_going)
    }

    /// Replays through the dense fallback unconditionally: replay output is
    /// `O(2ⁿ)` amplitudes regardless of engine, so there is nothing for the
    /// tableau to save — counterexample diagnosis only happens on registers
    /// that fit in dense memory anyway.
    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        workspace: &mut StabWorkspace,
    ) -> Result<(Vec<Complex>, Vec<Complex>), qdd::DdLimitError> {
        self.dense
            .replay(g, g_prime, stimulus, workspace.dense_buffers())
    }
}

/// The matrix-product-state tensor-network engine ([`qmpo::Mps`]): probe
/// memory scales with the entanglement the circuits build (bond
/// dimension), not with `2ⁿ`, so registers far past the dense wall stay
/// reachable whenever the states remain weakly entangled.
///
/// Each probe evolves the stimulus as an MPS through both circuits and
/// reports the normalized inner product of the two outputs. Two-site gate
/// applications split by SVD under the configured bond cap `χ`
/// ([`Config::chi_max`]); while no split exceeds the cap the probe is
/// *exact* and [`ProbeMetrics::truncation_error`] is identically `0.0` —
/// once truncation occurs the accumulated discarded weight is reported and
/// the judge widens its tolerance (and the flow downgrades "no
/// counterexample" verdicts to probable equivalence).
///
/// Cancellation is polled between gate applications, like the dense
/// engine.
///
/// # Examples
///
/// ```
/// use qcec::backend::{MpsBackend, SimBackend};
/// use qcec::Stimulus;
///
/// // 32 qubits: far beyond dense reach; bond dimension stays tiny.
/// let g = qcirc::generators::ghz(32);
/// let backend = MpsBackend::new(64);
/// let mut ws = backend.workspace(32);
/// let out = backend.probe(&g, &g, &Stimulus::Basis(5), &mut ws).unwrap();
/// assert!((out.overlap.norm_sqr() - 1.0).abs() < 1e-9);
/// assert_eq!(out.metrics.truncation_error, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MpsBackend {
    chi_max: usize,
}

impl Default for MpsBackend {
    fn default() -> Self {
        MpsBackend::new(qmpo::DEFAULT_CHI_MAX)
    }
}

impl MpsBackend {
    /// A backend truncating two-site splits to at most `chi_max` singular
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `chi_max` is zero.
    #[must_use]
    pub fn new(chi_max: usize) -> Self {
        assert!(chi_max > 0, "need a positive bond-dimension cap");
        MpsBackend { chi_max }
    }

    /// The backend the flow derives from its configuration (honouring
    /// [`Config::chi_max`](crate::Config::chi_max)).
    #[must_use]
    pub fn for_flow(config: &Config) -> Self {
        MpsBackend::new(config.chi_max)
    }

    /// The configured bond-dimension cap.
    #[must_use]
    pub fn chi_max(&self) -> usize {
        self.chi_max
    }

    /// Prepares the stimulus as an MPS, polling `keep_going` per prefix
    /// gate. `None` = cancelled.
    fn prepare(
        &self,
        n_qubits: usize,
        stimulus: &Stimulus,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<qmpo::Mps> {
        let mut base = qmpo::Mps::basis_state(n_qubits, stimulus.basis_state());
        if let Some(prefix) = stimulus.prefix_circuit() {
            for gate in prefix.gates() {
                if !keep_going() {
                    return None;
                }
                base.apply_gate(gate, self.chi_max);
            }
        }
        Some(base)
    }
}

impl SimBackend for MpsBackend {
    /// Site tensors are `O(n · χ²)` and rebuilt per probe; no scratch
    /// state survives between runs (the purity contract for free).
    type Workspace = ();

    fn kind(&self) -> BackendKind {
        BackendKind::Mps
    }

    fn can_truncate(&self) -> bool {
        true
    }

    fn workspace(&self, _n_qubits: usize) {}

    fn probe_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        (): &mut (),
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ProbeOutcome>, qdd::DdLimitError> {
        let Some(base) = self.prepare(g.n_qubits(), stimulus, keep_going) else {
            return Ok(None);
        };
        // The stimulus-preparation error is shared by both branches —
        // count it once, not twice.
        let base_error = base.truncation_error();
        let mut right = base.clone();
        let mut left = base;
        for gate in g.gates() {
            if !keep_going() {
                return Ok(None);
            }
            left.apply_gate(gate, self.chi_max);
        }
        for gate in g_prime.gates() {
            if !keep_going() {
                return Ok(None);
            }
            right.apply_gate(gate, self.chi_max);
        }
        // Truncation lets the global norm drift, so normalize: the overlap
        // reported is that of the two *unit* output states. On exact runs
        // both norms are 1 to machine precision and this is a no-op.
        let norm = left.norm() * right.norm();
        let overlap = if norm > 0.0 {
            left.inner_product(&right) * (1.0 / norm)
        } else {
            Complex::ZERO
        };
        Ok(Some(ProbeOutcome {
            overlap,
            metrics: ProbeMetrics {
                peak_nodes: left.peak_bond().max(right.peak_bond()),
                complex_values: 0,
                truncation_error: left.truncation_error() + right.truncation_error() - base_error,
            },
        }))
    }

    fn replay(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimulus: &Stimulus,
        (): &mut (),
    ) -> Result<(Vec<Complex>, Vec<Complex>), qdd::DdLimitError> {
        let always = || true;
        let base = self
            .prepare(g.n_qubits(), stimulus, &always)
            .expect("unconditional prepare cannot be cancelled");
        let mut right = base.clone();
        let mut left = base;
        for gate in g.gates() {
            left.apply_gate(gate, self.chi_max);
        }
        for gate in g_prime.gates() {
            right.apply_gate(gate, self.chi_max);
        }
        let n = g.n_qubits();
        let read = |m: &qmpo::Mps| (0..1u64 << n).map(|b| m.amplitude(b)).collect();
        Ok((read(&left), read(&right)))
    }
}

/// The DD engine the flow derives from its configuration (honouring
/// [`Config::dd_node_limit`](crate::Config::dd_node_limit)).
#[must_use]
pub fn dd_for_flow(config: &Config) -> qdd::DdBackend {
    qdd::DdBackend::with_node_limit(config.dd_node_limit)
}

/// A task generic over the probe engine, run by [`with_engine`] on the
/// engine a configuration names. The task value carries whatever the
/// task needs beyond the circuits and the configuration.
pub(crate) trait EngineTask {
    /// What the task returns.
    type Output;

    /// Runs the task for `g` against `g_prime` on `backend`.
    fn run<B: SimBackend>(
        self,
        backend: &B,
        g: &Circuit,
        g_prime: &Circuit,
        config: &Config,
    ) -> Self::Output;
}

/// Builds the engine `config.backend` names, configured by `config`, and
/// runs `task` on it — the crate's one `BackendKind → engine` dispatch.
///
/// # Panics
///
/// Panics on [`BackendKind::Auto`]; callers resolve it first.
pub(crate) fn with_engine<T: EngineTask>(
    task: T,
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> T::Output {
    match config.backend {
        BackendKind::Statevector => {
            task.run(&StatevectorBackend::for_flow(config), g, g_prime, config)
        }
        BackendKind::DecisionDiagram => task.run(&dd_for_flow(config), g, g_prime, config),
        BackendKind::Stab => task.run(&StabBackend::for_flow(config), g, g_prime, config),
        BackendKind::Mps => task.run(&MpsBackend::for_flow(config), g, g_prime, config),
        BackendKind::Auto => unreachable!("BackendKind::Auto is resolved before dispatch"),
    }
}

/// [`auto_backend`] sends registers up to this width to the dense
/// engine, whatever the pair.
const AUTO_TINY_MAX: usize = 10;

/// [`auto_backend`] sends registers up to this width to the dense engine
/// unless the pair suits the tableau or the tensor network.
const AUTO_DENSE_MAX: usize = 14;

/// Resolves [`BackendKind::Auto`] from cheap structure of the circuit
/// pair: the register width `n`, whether both circuits are Clifford-only,
/// and whether every multi-qubit gate acts on two neighbouring wires.
/// Never returns `Auto` (nor takes scheduling into account — the choice is
/// a pure function of the circuits, resolved once per flow invocation and
/// logged via
/// [`RunEvent::BackendSelected`](crate::scheduler::RunEvent::BackendSelected)):
///
/// - `n ≤ 10` → [`BackendKind::Statevector`] — dense vectors of ≤ 1,024
///   amplitudes beat every structured engine's fixed cost;
/// - both circuits Clifford-only → [`BackendKind::Stab`] — the tableau
///   probe is polynomial regardless of width;
/// - every multi-qubit gate on two neighbouring wires →
///   [`BackendKind::Mps`] — a nearest-neighbour chain needs no routing, so
///   the MPS probes and the MPO check stay cheap at any width (and the
///   flow reports any bond truncation, never a silent verdict);
/// - `n ≤ 14` → [`BackendKind::Statevector`] — below the crossover where
///   the dense engine's `2ⁿ` cost overtakes the decision diagram's;
/// - otherwise → [`BackendKind::DecisionDiagram`] — long-range and
///   multi-controlled gates, which the tensor network must route.
///
/// The complete check follows the pick: the MPO check behind `mps`, the
/// DD check behind the others. The rule is read off a crossover sweep of
/// probe and complete-check times per circuit family, width and engine
/// (the bench crate's `scaling` bin; EXPERIMENTS.md, "Crossover sweep").
///
/// # Examples
///
/// ```
/// use qcec::{auto_backend, BackendKind};
/// use qcirc::generators;
///
/// let ghz = generators::ghz(30);
/// assert_eq!(auto_backend(&ghz, &ghz), BackendKind::Stab);
/// let mut ghz_t = ghz.clone();
/// ghz_t.t(29);
/// assert_eq!(auto_backend(&ghz, &ghz_t), BackendKind::Mps);
/// let qft = generators::qft(12, true);
/// assert_eq!(auto_backend(&qft, &qft), BackendKind::Statevector);
/// let qft = generators::qft(30, true);
/// assert_eq!(auto_backend(&qft, &qft), BackendKind::DecisionDiagram);
/// ```
#[must_use]
pub fn auto_backend(g: &Circuit, g_prime: &Circuit) -> BackendKind {
    let n = g.n_qubits().max(g_prime.n_qubits());
    if n <= AUTO_TINY_MAX {
        BackendKind::Statevector
    } else if clifford_only(g) && clifford_only(g_prime) {
        BackendKind::Stab
    } else if nearest_neighbour(g) && nearest_neighbour(g_prime) {
        BackendKind::Mps
    } else if n <= AUTO_DENSE_MAX {
        BackendKind::Statevector
    } else {
        BackendKind::DecisionDiagram
    }
}

/// Whether every gate of `c` acts on one wire or on two neighbouring
/// wires (so no gate has two or more controls).
fn nearest_neighbour(c: &Circuit) -> bool {
    c.gates().iter().all(|gate| {
        let lowest = gate.qubits().min().unwrap_or(0);
        gate.max_qubit() - lowest <= 1
    })
}

/// Whether every gate of `c` is Clifford.
fn clifford_only(c: &Circuit) -> bool {
    c.gates().iter().all(qcirc::Gate::is_clifford)
}

/// Whether the flow's `kind` engine would run some probe of the pair on
/// dense `2ⁿ` buffers: the statevector engine always does, and the stab
/// engine falls back to them when its tableau path is off
/// ([`Criterion::Strict`]), for product stimuli (their `U3` prefixes are
/// never Clifford) and for pairs with a non-Clifford gate.
pub(crate) fn probes_densely(
    kind: BackendKind,
    g: &Circuit,
    g_prime: &Circuit,
    config: &Config,
) -> bool {
    match kind {
        BackendKind::Statevector => true,
        BackendKind::Stab => {
            !StabBackend::for_flow(config).tableau_enabled
                || config.stimuli == StimulusStrategy::Product
                || !clifford_only(g)
                || !clifford_only(g_prime)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    fn probe_on<B: SimBackend>(
        backend: &B,
        g: &Circuit,
        g_prime: &Circuit,
        s: &Stimulus,
    ) -> Complex {
        let mut ws = backend.workspace(g.n_qubits());
        backend.probe(g, g_prime, s, &mut ws).unwrap().overlap
    }

    #[test]
    fn backends_agree_on_basis_probes() {
        let g = generators::grover(4, 6, 2);
        let mut buggy = g.clone();
        buggy.z(2);
        let sv = StatevectorBackend::new();
        let dd = qdd::DdBackend::new();
        for basis in [0u64, 3, 9, 15] {
            let s = Stimulus::Basis(basis);
            let a = probe_on(&sv, &g, &buggy, &s);
            let b = probe_on(&dd, &g, &buggy, &s);
            assert!((a - b).norm_sqr() < 1e-18, "basis {basis}: {a} vs {b}");
        }
    }

    #[test]
    fn backends_agree_on_prefixed_stimuli() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(1);
        let config = Config::default()
            .with_stimuli(crate::StimulusStrategy::Stabilizer)
            .with_simulations(4)
            .with_seed(13);
        let sv = StatevectorBackend::new();
        let dd = qdd::DdBackend::new();
        for s in crate::draw_stimuli(4, &config) {
            let a = probe_on(&sv, &g, &buggy, &s);
            let b = probe_on(&dd, &g, &buggy, &s);
            assert!((a - b).norm_sqr() < 1e-18, "{}: {a} vs {b}", s.kind());
        }
    }

    #[test]
    fn dd_metrics_are_populated_and_sv_metrics_are_zero() {
        let g = generators::ghz(6);
        let s = Stimulus::Basis(0);
        let sv = StatevectorBackend::new();
        let mut ws = sv.workspace(6);
        let out = sv.probe(&g, &g, &s, &mut ws).unwrap();
        assert_eq!(out.metrics, ProbeMetrics::default());
        let dd = qdd::DdBackend::new();
        let out = dd.probe(&g, &g, &s, &mut dd.workspace(6)).unwrap();
        assert!(out.metrics.peak_nodes > 0);
        assert!(out.metrics.complex_values > 0);
    }

    #[test]
    fn replay_returns_matching_dense_outputs() {
        // The second case garbage-collects inside both passes (GC
        // threshold 1,024 at a 2,048-node limit), so the replay must keep
        // the prepared input and the first output alive across compaction.
        let cases = [
            (generators::w_state(3), 0, qdd::DdBackend::new()),
            (
                generators::random_clifford_t(4, 300, 7),
                5,
                qdd::DdBackend::with_node_limit(2048),
            ),
        ];
        let sv = StatevectorBackend::new();
        for (g, basis, dd) in cases {
            let n = g.n_qubits();
            let mut buggy = g.clone();
            buggy.x(1);
            let s = Stimulus::Basis(basis);
            let (a_sv, b_sv) = sv.replay(&g, &buggy, &s, &mut sv.workspace(n)).unwrap();
            let (a_dd, b_dd) = dd.replay(&g, &buggy, &s, &mut dd.workspace(n)).unwrap();
            assert_eq!(a_sv.len(), 1 << n);
            for (x, y) in a_sv.iter().zip(&a_dd).chain(b_sv.iter().zip(&b_dd)) {
                assert!((*x - *y).norm_sqr() < 1e-18, "{n} qubits");
            }
        }
    }

    #[test]
    fn cancelled_probe_is_none_on_both_backends() {
        let g = generators::qft(5, true);
        let s = Stimulus::Basis(7);
        let never = || false;
        let sv = StatevectorBackend::new();
        let out = sv
            .probe_while(&g, &g, &s, &mut sv.workspace(5), &never)
            .unwrap();
        assert!(out.is_none());
        let dd = qdd::DdBackend::new();
        let mut ws = dd.workspace(5);
        let out = dd.probe_while(&g, &g, &s, &mut ws, &never).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn dd_node_budget_errors_surface_through_the_trait() {
        let g = generators::supremacy_2d(3, 4, 12, 1);
        let dd = dd_for_flow(&Config::default().with_dd_node_limit(50));
        let mut ws = dd.workspace(g.n_qubits());
        let e = dd.probe(&g, &g, &Stimulus::Basis(0), &mut ws).unwrap_err();
        assert_eq!(e.node_limit, 50);
    }

    #[test]
    fn stab_matches_dense_overlap_magnitudes_on_clifford_probes() {
        let g = generators::clifford_adder(4);
        let mut buggy = g.clone();
        buggy.z(3);
        let sv = StatevectorBackend::new();
        let stab = StabBackend::new();
        let config = Config::default()
            .with_stimuli(crate::StimulusStrategy::Stabilizer)
            .with_simulations(4)
            .with_seed(21);
        let mut stimuli = crate::draw_stimuli(g.n_qubits(), &config);
        stimuli.push(Stimulus::Basis(37));
        for s in &stimuli {
            let a = probe_on(&sv, &g, &buggy, s);
            let b = probe_on(&stab, &g, &buggy, s);
            assert!(
                (a.abs() - b.abs()).abs() < 1e-9,
                "{}: |{a}| vs |{b}|",
                s.kind()
            );
            assert_eq!(b.im, 0.0, "tableau overlaps are real");
        }
    }

    #[test]
    fn stab_falls_back_to_dense_on_non_clifford_probes() {
        // A T gate forces the fallback; the full complex overlap (phase
        // included) must then match the dense engine bit for bit.
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        let sv = StatevectorBackend::new();
        let stab = StabBackend::new();
        for basis in [0u64, 5, 11] {
            let s = Stimulus::Basis(basis);
            let a = probe_on(&sv, &g, &buggy, &s);
            let b = probe_on(&stab, &g, &buggy, &s);
            assert!((a - b).norm_sqr() < 1e-18, "basis {basis}: {a} vs {b}");
        }
    }

    #[test]
    fn stab_probes_32_qubits_where_dense_cannot_run() {
        // 2³² amplitudes is 64 GiB of state — the lazy workspace must not
        // allocate it, and the tableau path must finish in milliseconds.
        let g = generators::clifford_adder(15);
        assert_eq!(g.n_qubits(), 32);
        let mut buggy = g.clone();
        buggy.x(9);
        let stab = StabBackend::new();
        let mut ws = stab.workspace(32);
        let same = stab.probe(&g, &g, &Stimulus::Basis(123), &mut ws).unwrap();
        assert_eq!(same.overlap, Complex::new(1.0, 0.0));
        let diff = stab
            .probe(&g, &buggy, &Stimulus::Basis(123), &mut ws)
            .unwrap();
        assert!(diff.overlap.norm_sqr() < 1.0 - 1e-9);
        assert!(
            format!("{ws:?}").contains("dense_allocated: false"),
            "a Clifford-only probe must never touch dense buffers: {ws:?}"
        );
    }

    #[test]
    fn stab_cancellation_yields_none_on_both_paths() {
        let never = || false;
        let stab = StabBackend::new();
        // Tableau path.
        let g = generators::ghz(6);
        let out = stab
            .probe_while(&g, &g, &Stimulus::Basis(3), &mut stab.workspace(6), &never)
            .unwrap();
        assert!(out.is_none());
        // Fallback path.
        let g = generators::qft(5, true);
        let out = stab
            .probe_while(&g, &g, &Stimulus::Basis(7), &mut stab.workspace(5), &never)
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn strict_criterion_disables_the_tableau_path() {
        // Z on |1⟩: ⟨u|u′⟩ = −1. Up to global phase that is agreement; the
        // tableau would report 1.0 and could not see the sign, so under
        // Strict the flow's backend must probe densely and observe −1.
        let g = qcirc::Circuit::new(1);
        let mut phased = qcirc::Circuit::new(1);
        phased.z(0);
        let s = Stimulus::Basis(1);
        let strict = StabBackend::for_flow(&Config::default().with_criterion(Criterion::Strict));
        let overlap = probe_on(&strict, &g, &phased, &s);
        assert!((overlap - Complex::new(-1.0, 0.0)).norm_sqr() < 1e-18);
        let phase_free = StabBackend::for_flow(&Config::default());
        let overlap = probe_on(&phase_free, &g, &phased, &s);
        assert_eq!(overlap, Complex::new(1.0, 0.0));
    }

    #[test]
    fn stab_replay_produces_dense_outputs() {
        let g = generators::ghz(3);
        let mut buggy = g.clone();
        buggy.x(1);
        let stab = StabBackend::new();
        let sv = StatevectorBackend::new();
        let s = Stimulus::Basis(2);
        let (a, b) = stab.replay(&g, &buggy, &s, &mut stab.workspace(3)).unwrap();
        let (a_sv, b_sv) = sv.replay(&g, &buggy, &s, &mut sv.workspace(3)).unwrap();
        assert_eq!(a, a_sv);
        assert_eq!(b, b_sv);
    }

    #[test]
    fn mps_matches_dense_overlaps_on_exact_probes() {
        // n = 4 never exceeds the default bond cap, so the MPS overlap
        // (phase included) must match the dense engine to numerical noise.
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(1);
        let sv = StatevectorBackend::new();
        let mps = MpsBackend::default();
        let config = Config::default()
            .with_stimuli(crate::StimulusStrategy::Stabilizer)
            .with_simulations(4)
            .with_seed(13);
        let mut stimuli = crate::draw_stimuli(4, &config);
        stimuli.push(Stimulus::Basis(11));
        for s in &stimuli {
            let a = probe_on(&sv, &g, &buggy, s);
            let b = probe_on(&mps, &g, &buggy, s);
            assert!((a - b).norm_sqr() < 1e-18, "{}: {a} vs {b}", s.kind());
        }
    }

    #[test]
    fn mps_metrics_report_bond_growth_and_truncation() {
        // Not QFT: on a *basis* input every controlled phase sees a
        // classical control, so a QFT probe stays a product state. The
        // GHZ ladder genuinely entangles from |0…0⟩.
        let g = generators::ghz(6);
        let mps = MpsBackend::default();
        let s = Stimulus::Basis(0);
        let out = SimBackend::probe(&mps, &g, &g, &s, &mut ()).unwrap();
        assert!(out.metrics.peak_nodes > 1, "entangling gates grow bonds");
        assert_eq!(
            out.metrics.truncation_error, 0.0,
            "χ = 64 is exact at n = 6"
        );
        // χ = 1 cannot represent the entangled intermediate states: the
        // probe must say so instead of silently pretending exactness.
        let crushed = MpsBackend::new(1);
        let out = SimBackend::probe(&crushed, &g, &g, &s, &mut ()).unwrap();
        assert!(out.metrics.truncation_error > 0.0);
    }

    #[test]
    fn mps_probes_32_qubits_past_the_dense_wall() {
        // Same scale as the tableau test above, but with no Clifford
        // restriction: 2³² amplitudes never materialise because the GHZ
        // ladder keeps χ = 2.
        let g = generators::ghz(32);
        let mut buggy = g.clone();
        buggy.t(30);
        let mps = MpsBackend::default();
        let same = SimBackend::probe(&mps, &g, &g, &Stimulus::Basis(77), &mut ()).unwrap();
        assert!((same.overlap.norm_sqr() - 1.0).abs() < 1e-9);
        assert_eq!(same.metrics.truncation_error, 0.0);
        // A T on the GHZ state phases only the |1…1⟩ branch:
        // |⟨u|u′⟩|² = |(1 + e^{iπ/4})/2|² ≈ 0.854, a real fidelity deficit.
        let diff = SimBackend::probe(&mps, &g, &buggy, &Stimulus::Basis(77), &mut ()).unwrap();
        assert!(diff.overlap.norm_sqr() < 1.0 - 1e-3);
        assert_eq!(diff.metrics.truncation_error, 0.0);
    }

    #[test]
    fn mps_cancellation_yields_none() {
        let never = || false;
        let mps = MpsBackend::default();
        let g = generators::qft(5, true);
        let out = mps
            .probe_while(&g, &g, &Stimulus::Basis(7), &mut (), &never)
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn batched_probes_match_single_probes_bitwise() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(1);
        let config = Config::default()
            .with_stimuli(crate::StimulusStrategy::Stabilizer)
            .with_simulations(6)
            .with_seed(5);
        let stimuli = crate::draw_stimuli(4, &config);
        // The provided loop returns, per stimulus, exactly the lone probe.
        let sv = StatevectorBackend::new();
        let mut ws = sv.workspace(4);
        for k in [0usize, 1, 2, stimuli.len()] {
            let batch = sv
                .probe_batch_while(&g, &buggy, &stimuli[..k], &mut ws, &|| true)
                .unwrap()
                .expect("not cancelled");
            for (s, got) in stimuli[..k].iter().zip(&batch) {
                let want = sv.probe(&g, &buggy, s, &mut ws).unwrap();
                assert_eq!(got.overlap, want.overlap, "k={k} {}", s.kind());
            }
        }
        let dd = qdd::DdBackend::new();
        let mut dd_ws = dd.workspace(4);
        let batch = dd
            .probe_batch_while(&g, &buggy, &stimuli, &mut dd_ws, &|| true)
            .unwrap()
            .expect("not cancelled");
        for (s, got) in stimuli.iter().zip(&batch) {
            let want = dd.probe(&g, &buggy, s, &mut dd_ws).unwrap();
            assert_eq!(got.overlap, want.overlap, "dd {}", s.kind());
        }
        // A cancelled probe abandons the rest.
        let never = || false;
        assert!(sv
            .probe_batch_while(&g, &buggy, &stimuli, &mut ws, &never)
            .unwrap()
            .is_none());
    }

    #[test]
    fn auto_backend_resolves_from_width_and_gate_mix() {
        use qcirc::mapping::{route_or_panic, CouplingMap};
        use BackendKind::{DecisionDiagram, Mps, Stab, Statevector};
        // Up to 10 qubits the dense engine, even for a Clifford pair.
        let ghz8 = generators::ghz(8);
        assert_eq!(auto_backend(&ghz8, &ghz8), Statevector);
        let clifford = generators::clifford_adder(15); // 32 qubits, Clifford-only
        assert_eq!(auto_backend(&clifford, &clifford), Stab);
        // Past 10 qubits, nearest-neighbour gates only: the tensor network.
        let mut ghz_t = generators::ghz(30);
        ghz_t.t(3);
        assert_eq!(auto_backend(&ghz_t, &ghz_t), Mps);
        // A Clifford G paired with a non-Clifford G' must not pick Stab.
        assert_eq!(auto_backend(&generators::ghz(30), &ghz_t), Mps);
        // Long-range gates: dense up to 14 qubits, the DD past that.
        for (n, engine) in [(12, Statevector), (14, Statevector), (16, DecisionDiagram)] {
            let qft = generators::qft(n, false);
            assert_eq!(auto_backend(&qft, &qft), engine, "qft{n}");
        }
        let qft = generators::qft(30, false);
        assert_eq!(auto_backend(&qft, &qft), DecisionDiagram);
        // Multi-controlled gates too: the 26-qubit Cuccaro adder against
        // its {1q, CX} lowering.
        let adder = generators::cuccaro_adder(12);
        let lowered = qcirc::decompose::decompose_to_cx_and_single_qubit(&adder);
        assert_eq!(auto_backend(&adder, &lowered), DecisionDiagram);
        // The benchmark's faulted twins keep their engines: routed GHZ-40
        // (Clifford), GHZ-T-32 (nearest neighbour) and QFT-20.
        let ghz40 = generators::ghz(40);
        let routed = route_or_panic(&ghz40, &CouplingMap::grid(5, 8)).circuit;
        let mut fault = routed.clone();
        fault.x(7);
        assert_eq!(auto_backend(&ghz40, &routed), Stab);
        assert_eq!(auto_backend(&ghz40, &fault), Stab);
        let mut ghz_t32 = Circuit::new(32);
        ghz_t32.t(0).append(&generators::ghz(32));
        for q in (0..32).step_by(8) {
            ghz_t32.t(q);
        }
        let mut fault = ghz_t32.clone();
        fault.s(5);
        assert_eq!(auto_backend(&ghz_t32, &ghz_t32), Mps);
        assert_eq!(auto_backend(&ghz_t32, &fault), Mps);
        let qft20 = generators::qft(20, false);
        let mut fault = qcirc::optimize::optimize(&qft20);
        fault.x(3);
        assert_eq!(auto_backend(&qft20, &qft20), DecisionDiagram);
        assert_eq!(auto_backend(&qft20, &fault), DecisionDiagram);
    }
}

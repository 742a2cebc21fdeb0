//! The circuit simulator: applies gates to state vectors.

use qcirc::{Circuit, Gate, GateKind};
use qnum::Complex;

use crate::kernels;
use crate::state::StateVector;

/// A statevector simulator.
///
/// Simulation of one computational basis state is exactly the construction
/// of one *column* of the circuit unitary by matrix-vector products — the
/// `O(m·2ⁿ)` operation the paper's flow uses in place of `O(m·4ⁿ)`
/// matrix-matrix products.
///
/// # Examples
///
/// ```
/// use qsim::Simulator;
///
/// let bell = qcirc::generators::bell();
/// let out = Simulator::new().run_basis(&bell, 0);
/// assert!((out.probability(0b00) - 0.5).abs() < 1e-10);
/// assert!((out.probability(0b11) - 0.5).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator;

impl Simulator {
    /// Creates a simulator. Kernels run on the calling thread; callers
    /// parallelise across simulations, not inside one.
    #[must_use]
    pub fn new() -> Self {
        Simulator
    }

    /// Simulates `circuit` on the basis state `|basis⟩`, yielding the
    /// `basis`-th column of the circuit unitary.
    ///
    /// # Panics
    ///
    /// Panics if `basis ≥ 2ⁿ` or the circuit exceeds
    /// [`StateVector::MAX_QUBITS`].
    #[must_use]
    pub fn run_basis(&self, circuit: &Circuit, basis: u64) -> StateVector {
        let mut state = StateVector::basis(circuit.n_qubits(), basis);
        self.run_inplace(circuit, &mut state);
        state
    }

    /// Simulates `circuit` on `|basis⟩`, reusing `state`'s allocation
    /// instead of allocating a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ or `basis ≥ 2ⁿ`.
    pub fn run_basis_into(&self, circuit: &Circuit, basis: u64, state: &mut StateVector) {
        state.reset_to_basis(basis);
        self.run_inplace(circuit, state);
    }

    /// Simulates `circuit` on a copy of `initial`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    #[must_use]
    pub fn run(&self, circuit: &Circuit, initial: &StateVector) -> StateVector {
        let mut state = initial.clone();
        self.run_inplace(circuit, &mut state);
        state
    }

    /// Simulates `circuit` directly on `state`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn run_inplace(&self, circuit: &Circuit, state: &mut StateVector) {
        assert_eq!(
            circuit.n_qubits(),
            state.n_qubits(),
            "circuit and state qubit counts differ"
        );
        for gate in circuit.gates() {
            self.apply_gate(state, gate);
        }
    }

    /// Applies a single gate to `state`.
    ///
    /// # Panics
    ///
    /// Panics if the gate does not fit the state's register.
    pub fn apply_gate(&self, state: &mut StateVector, gate: &Gate) {
        assert!(
            gate.max_qubit() < state.n_qubits(),
            "gate {gate} exceeds the state's {} qubits",
            state.n_qubits()
        );
        let control_mask: usize = gate.controls().iter().map(|&q| 1usize << q).sum();
        match gate.kind() {
            GateKind::Swap => {
                let (a, b) = (gate.targets()[0], gate.targets()[1]);
                kernels::apply_controlled_swap(state.amplitudes_mut(), control_mask, a, b);
            }
            kind => {
                let m = kind.base_matrix().expect("single-target kind");
                kernels::apply_controlled_single(
                    state.amplitudes_mut(),
                    control_mask,
                    gate.target(),
                    &m,
                );
            }
        }
    }

    /// Simulates both circuits on `|basis⟩` and returns the inner product
    /// `⟨u_basis | u′_basis⟩` of the outputs — the paper's per-simulation
    /// equivalence probe (1 for equivalent circuits, ≠ 1 is a proof of
    /// non-equivalence).
    ///
    /// # Panics
    ///
    /// Panics if the circuits' qubit counts differ or `basis` is out of
    /// range.
    #[must_use]
    pub fn probe_basis(&self, g: &Circuit, g_prime: &Circuit, basis: u64) -> Complex {
        let mut workspace = ProbeWorkspace::new(g.n_qubits());
        self.probe_stimulus_while(g, g_prime, None, basis, &mut workspace, &|| true)
            .expect("unconditional probe cannot be cancelled")
    }

    /// Applies `circuit` to the *current* contents of `state` (no reset) —
    /// the building block for probes whose initial state is itself prepared
    /// by a prefix circuit. Polls `keep_going` between gate applications;
    /// returns `false` (leaving `state` part-way through) if abandoned.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn apply_to_state_while(
        &self,
        circuit: &Circuit,
        state: &mut StateVector,
        keep_going: &dyn Fn() -> bool,
    ) -> bool {
        assert_eq!(
            circuit.n_qubits(),
            state.n_qubits(),
            "circuit and state qubit counts differ"
        );
        for gate in circuit.gates() {
            if !keep_going() {
                return false;
            }
            self.apply_gate(state, gate);
        }
        true
    }

    /// The stimulus-aware probe: prepares `|basis⟩`, runs the optional
    /// `prefix` circuit once (product or stabilizer state preparation),
    /// then branches the shared prepared state through `g` and `g_prime`
    /// and returns the overlap `⟨u|u′⟩` of the two outputs. Reuses the two
    /// state buffers of `workspace`, so loops over many stimuli allocate
    /// once, and polls `keep_going` between gate applications — the
    /// cancellable probe for worker pools. Returns `None` if the probe was
    /// abandoned mid-run.
    ///
    /// # Panics
    ///
    /// Panics if any qubit count differs or `basis` is out of range.
    #[must_use]
    pub fn probe_stimulus_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        prefix: Option<&Circuit>,
        basis: u64,
        workspace: &mut ProbeWorkspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Complex> {
        assert_eq!(
            g.n_qubits(),
            g_prime.n_qubits(),
            "circuits must have equal qubit counts"
        );
        workspace.left.reset_to_basis(basis);
        if let Some(prefix) = prefix {
            // The preparation runs once; both branches start from its
            // output.
            if !self.apply_to_state_while(prefix, &mut workspace.left, keep_going) {
                return None;
            }
        }
        workspace.right.copy_from(&workspace.left);
        if !self.apply_to_state_while(g, &mut workspace.left, keep_going)
            || !self.apply_to_state_while(g_prime, &mut workspace.right, keep_going)
        {
            return None;
        }
        Some(workspace.left.inner_product(&workspace.right))
    }

    /// Batched variant of [`Simulator::probe_stimulus_while`]: runs every
    /// stimulus of the batch through both circuits simultaneously, with
    /// each gate decoded once and streamed across all lanes of a shared
    /// arena (see [`BatchWorkspace`]).
    ///
    /// Each stimulus is a `(basis, prefix)` pair as in the single-stimulus
    /// probe. Returns the per-lane overlaps `⟨u|u′⟩` in stimulus order, or
    /// `None` if the whole batch was abandoned because `keep_going`
    /// returned `false` (polled once per gate, amortized over the batch).
    ///
    /// Per lane, the floating-point operations — gate kernels and the
    /// ascending-index overlap summation — are identical to the
    /// single-stimulus path, so every returned overlap is bit-identical to
    /// what [`Simulator::probe_stimulus_while`] would produce for that
    /// stimulus alone.
    ///
    /// # Panics
    ///
    /// Panics if any qubit count differs, the batch is empty, or a basis
    /// is out of range.
    #[must_use]
    pub fn probe_stimuli_batch_while<'w>(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        stimuli: &[(u64, Option<&Circuit>)],
        workspace: &'w mut BatchWorkspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<&'w [Complex]> {
        assert_eq!(
            g.n_qubits(),
            g_prime.n_qubits(),
            "circuits must have equal qubit counts"
        );
        assert_eq!(
            g.n_qubits(),
            workspace.n_qubits,
            "workspace sized for a different register"
        );
        let lanes = stimuli.len();
        assert!(lanes > 0, "need at least one stimulus");
        let dim = 1usize << workspace.n_qubits;
        workspace.left.clear();
        workspace.left.resize(dim * lanes, Complex::ZERO);
        // Prepare each lane's stimulus in the scratch register, then
        // scatter it into its lane column of the arena.
        for (lane, &(basis, prefix)) in stimuli.iter().enumerate() {
            workspace.scratch.reset_to_basis(basis);
            if let Some(prefix) = prefix {
                if !self.apply_to_state_while(prefix, &mut workspace.scratch, keep_going) {
                    return None;
                }
            }
            for (i, &amp) in workspace.scratch.amplitudes().iter().enumerate() {
                workspace.left[i * lanes + lane] = amp;
            }
        }
        workspace.right.clear();
        workspace.right.extend_from_slice(&workspace.left);
        for gate in g.gates() {
            if !keep_going() {
                return None;
            }
            Self::apply_gate_batch(&mut workspace.left, lanes, gate);
        }
        for gate in g_prime.gates() {
            if !keep_going() {
                return None;
            }
            Self::apply_gate_batch(&mut workspace.right, lanes, gate);
        }
        // Per-lane overlaps accumulated in ascending amplitude order — the
        // exact summation order of `StateVector::inner_product`.
        workspace.overlaps.clear();
        workspace.overlaps.resize(lanes, Complex::ZERO);
        for i in 0..dim {
            let row = i * lanes;
            for (lane, acc) in workspace.overlaps.iter_mut().enumerate() {
                *acc += workspace.left[row + lane].conj() * workspace.right[row + lane];
            }
        }
        Some(&workspace.overlaps)
    }

    /// Applies one gate across all lanes of a lane-major arena, mirroring
    /// the kernel dispatch of [`Simulator::apply_gate`].
    fn apply_gate_batch(arena: &mut [Complex], lanes: usize, gate: &Gate) {
        debug_assert!(
            (lanes << gate.max_qubit()) < arena.len(),
            "gate {gate} exceeds the arena's register"
        );
        let control_mask: usize = gate.controls().iter().map(|&q| 1usize << q).sum();
        match gate.kind() {
            GateKind::Swap => {
                let (a, b) = (gate.targets()[0], gate.targets()[1]);
                kernels::apply_controlled_swap_batch(arena, lanes, control_mask, a, b);
            }
            kind => {
                let m = kind.base_matrix().expect("single-target kind");
                kernels::apply_controlled_single_batch(
                    arena,
                    lanes,
                    control_mask,
                    gate.target(),
                    &m,
                );
            }
        }
    }
}

/// Reusable pair of state buffers for repeated equivalence probes.
///
/// Each worker of a checker pool owns one workspace; every probe then runs
/// without heap allocation. See [`Simulator::probe_stimulus_while`].
#[derive(Debug, Clone)]
pub struct ProbeWorkspace {
    left: StateVector,
    right: StateVector,
}

impl ProbeWorkspace {
    /// Creates a workspace for `n_qubits`-qubit probes.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`StateVector::MAX_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        ProbeWorkspace {
            left: StateVector::zero(n_qubits),
            right: StateVector::zero(n_qubits),
        }
    }

    /// The register size the buffers are allocated for.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.left.n_qubits()
    }

    /// The output state of `G` from the most recent probe.
    #[must_use]
    pub fn left(&self) -> &StateVector {
        &self.left
    }

    /// The output state of `G'` from the most recent probe.
    #[must_use]
    pub fn right(&self) -> &StateVector {
        &self.right
    }
}

/// Reusable arena for batched equivalence probes.
///
/// Holds `k` state vectors per branch in a single lane-major allocation:
/// amplitude `i` of lane `l` lives at `arena[i * k + l]`, so a gate kernel
/// visiting an amplitude pair touches `2k` contiguous complex values. The
/// arena buffers grow to the largest batch probed and are reused across
/// batches without reallocation; `k` is taken from each call's stimulus
/// slice, so one workspace serves any batch size.
///
/// See [`Simulator::probe_stimuli_batch_while`].
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    n_qubits: usize,
    left: Vec<Complex>,
    right: Vec<Complex>,
    scratch: StateVector,
    overlaps: Vec<Complex>,
}

impl BatchWorkspace {
    /// Creates a workspace for `n_qubits`-qubit batched probes. Arena
    /// storage is allocated lazily on first probe.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`StateVector::MAX_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        BatchWorkspace {
            n_qubits,
            left: Vec::new(),
            right: Vec::new(),
            scratch: StateVector::zero(n_qubits),
            overlaps: Vec::new(),
        }
    }

    /// The register size the workspace probes.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }
}

// Worker pools fan simulations out across scoped threads; keep the
// simulator's thread-safety a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    #[test]
    fn ghz_state_has_two_peaks() {
        let out = Simulator::new().run_basis(&generators::ghz(4), 0);
        assert!((out.probability(0) - 0.5).abs() < 1e-10);
        assert!((out.probability(0b1111) - 0.5).abs() < 1e-10);
        assert!(out.is_normalized());
    }

    #[test]
    fn matches_dense_reference_on_random_circuits() {
        let sim = Simulator::new();
        for seed in 0..4 {
            let c = generators::random_clifford_t(5, 80, seed);
            let u = qcirc::dense::unitary(&c);
            for basis in [0u64, 7, 19, 31] {
                let got = sim.run_basis(&c, basis);
                let expect = u.column(basis as usize);
                for (a, b) in got.amplitudes().iter().zip(expect.iter()) {
                    assert!(a.approx_eq(*b), "seed {seed} basis {basis}");
                }
            }
        }
    }

    #[test]
    fn circuit_then_inverse_is_identity() {
        let sim = Simulator::new();
        let c = generators::qft(5, true);
        let mut roundtrip = c.clone();
        roundtrip.append(&c.inverse());
        for basis in [0u64, 5, 21, 31] {
            let out = sim.run_basis(&roundtrip, basis);
            assert!(out.probability(basis) > 1.0 - 1e-9);
        }
    }

    #[test]
    fn adder_computes_sums_on_basis_states() {
        // Cuccaro layout: cin=0, b = 1..=n, a = n+1..=2n, cout = 2n+1.
        let n = 3;
        let adder = generators::cuccaro_adder(n);
        let sim = Simulator::new();
        for (a_val, b_val, cin) in [
            (1u64, 2u64, 0u64),
            (5, 3, 0),
            (7, 7, 1),
            (0, 0, 1),
            (6, 1, 1),
        ] {
            let input = cin | (b_val << 1) | (a_val << (1 + n));
            let out = sim.run_basis(&adder, input);
            let sum = a_val + b_val + cin;
            let expected_b = sum & ((1 << n) - 1);
            let carry = (sum >> n) & 1;
            let expected = cin | (expected_b << 1) | (a_val << (1 + n)) | (carry << (2 * n + 1));
            assert!(
                out.probability(expected) > 1.0 - 1e-9,
                "a={a_val} b={b_val} cin={cin}: expected basis {expected:b}, state {out}"
            );
        }
    }

    #[test]
    fn probe_basis_detects_difference() {
        let sim = Simulator::new();
        let g = generators::ghz(3);
        let mut g_prime = g.clone();
        g_prime.x(2);
        let p = sim.probe_basis(&g, &g_prime, 0);
        assert!(!p.approx_one());
        let same = sim.probe_basis(&g, &g.clone(), 0);
        assert!(same.approx_one());
    }

    #[test]
    fn grover_amplifies_marked_element() {
        let k = 4;
        let marked = 0b1011u64;
        let c = generators::grover(k, marked, generators::optimal_grover_iterations(k));
        let out = Simulator::new().run_basis(&c, 0);
        let p = out.probability(marked);
        assert!(p > 0.9, "Grover should amplify the marked element, got {p}");
    }

    #[test]
    fn supremacy_circuit_spreads_amplitude() {
        let c = generators::supremacy_2d(2, 2, 8, 3);
        let out = Simulator::new().run_basis(&c, 0);
        assert!(out.is_normalized());
        // Porter-Thomas-like: no basis state should dominate.
        for i in 0..16 {
            assert!(out.probability(i) < 0.9);
        }
    }

    #[test]
    fn workspace_probe_matches_allocating_probe() {
        let sim = Simulator::new();
        let g = generators::qft(5, true);
        let mut buggy = g.clone();
        buggy.z(2);
        let mut ws = ProbeWorkspace::new(5);
        assert_eq!(ws.n_qubits(), 5);
        for basis in [0u64, 3, 17, 30, 9] {
            let fresh = sim.probe_basis(&g, &buggy, basis);
            let reused = sim
                .probe_stimulus_while(&g, &buggy, None, basis, &mut ws, &|| true)
                .expect("not cancelled");
            assert!(fresh.approx_eq(reused), "basis {basis}");
            assert!(ws.left().is_normalized() && ws.right().is_normalized());
        }
    }

    #[test]
    fn cancelled_probe_returns_none() {
        use std::cell::Cell;
        let sim = Simulator::new();
        let g = generators::qft(4, true);
        let mut ws = ProbeWorkspace::new(4);
        // Allow a few gates, then pull the plug mid-circuit.
        let budget = Cell::new(3usize);
        let keep_going = || {
            let left = budget.get();
            budget.set(left.saturating_sub(1));
            left > 0
        };
        assert_eq!(
            sim.probe_stimulus_while(&g, &g, None, 0, &mut ws, &keep_going),
            None
        );
        // An unconstrained probe still works on the same workspace.
        let overlap = sim.probe_stimulus_while(&g, &g, None, 0, &mut ws, &|| true);
        assert!(overlap.expect("not cancelled").approx_one());
    }

    #[test]
    fn run_basis_into_matches_run_basis() {
        let sim = Simulator::new();
        let c = generators::grover(4, 6, 2);
        let mut reused = qsim_state_scratch();
        for basis in [0u64, 5, 11, 15, 2] {
            sim.run_basis_into(&c, basis, &mut reused);
            assert_eq!(reused, sim.run_basis(&c, basis), "basis {basis}");
        }
    }

    fn qsim_state_scratch() -> StateVector {
        // Deliberately dirty scratch: reset_to_basis must clear it fully.
        let mut s = StateVector::zero(4);
        Simulator::new().run_inplace(&generators::ghz(4), &mut s);
        s
    }

    #[test]
    #[should_panic(expected = "qubit counts differ")]
    fn mismatched_state_rejected() {
        let c = generators::bell();
        let mut s = StateVector::zero(3);
        Simulator::new().run_inplace(&c, &mut s);
    }

    #[test]
    fn batched_probe_is_bit_identical_to_single_probes() {
        let sim = Simulator::new();
        let n = 5;
        let g = generators::qft(n, true);
        let mut buggy = g.clone();
        buggy.z(2);
        let prefix = generators::ghz(n);
        let mut single = ProbeWorkspace::new(n);
        let mut batch = BatchWorkspace::new(n);
        assert_eq!(batch.n_qubits(), n);
        let bases = [0u64, 3, 17, 30, 9, 22, 7, 12];
        for lanes in [1usize, 3, 8] {
            for use_prefix in [false, true] {
                let prefix = use_prefix.then_some(&prefix);
                let stimuli: Vec<(u64, Option<&qcirc::Circuit>)> =
                    bases[..lanes].iter().map(|&b| (b, prefix)).collect();
                let overlaps = sim
                    .probe_stimuli_batch_while(&g, &buggy, &stimuli, &mut batch, &|| true)
                    .expect("not cancelled")
                    .to_vec();
                for (lane, &(basis, prefix)) in stimuli.iter().enumerate() {
                    let want = sim
                        .probe_stimulus_while(&g, &buggy, prefix, basis, &mut single, &|| true)
                        .expect("not cancelled");
                    assert_eq!(
                        overlaps[lane], want,
                        "lanes={lanes} lane={lane} prefix={use_prefix}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancelled_batched_probe_returns_none() {
        use std::cell::Cell;
        let sim = Simulator::new();
        let g = generators::qft(4, true);
        let mut ws = BatchWorkspace::new(4);
        let budget = Cell::new(3usize);
        let keep_going = || {
            let left = budget.get();
            budget.set(left.saturating_sub(1));
            left > 0
        };
        let stimuli: Vec<(u64, Option<&qcirc::Circuit>)> =
            [0u64, 5].iter().map(|&b| (b, None)).collect();
        assert!(sim
            .probe_stimuli_batch_while(&g, &g, &stimuli, &mut ws, &keep_going)
            .is_none());
        // The workspace is reusable after a cancelled batch.
        let overlaps = sim
            .probe_stimuli_batch_while(&g, &g, &stimuli, &mut ws, &|| true)
            .expect("not cancelled");
        assert!(overlaps.iter().all(|o| o.approx_one()));
    }
}

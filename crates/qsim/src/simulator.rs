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
            self.apply_gate(state.amplitudes_mut(), gate);
        }
    }

    /// Applies a single gate to the state vector `amps`.
    ///
    /// # Panics
    ///
    /// Panics if the gate does not fit the register of `amps`.
    pub fn apply_gate(&self, amps: &mut [Complex], gate: &Gate) {
        assert!(
            (1usize << gate.max_qubit()) < amps.len(),
            "gate {gate} exceeds the state's register"
        );
        let control_mask: usize = gate.controls().iter().map(|&q| 1usize << q).sum();
        match gate.kind() {
            GateKind::Swap => {
                let (a, b) = (gate.targets()[0], gate.targets()[1]);
                kernels::apply_controlled_swap(amps, control_mask, a, b);
            }
            kind => {
                let m = kind.base_matrix().expect("single-target kind");
                kernels::apply_controlled_single(amps, control_mask, gate.target(), &m);
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
        self.probe_stimulus_while(g, g_prime, basis, None, &mut workspace, &|| true)
            .expect("unconditional probe cannot be cancelled")
    }

    /// The stimulus-aware probe: prepares `|basis⟩`, runs the optional
    /// `prefix` circuit once (product or stabilizer state preparation),
    /// then branches the prepared state through `g` and `g_prime` and
    /// returns the overlap `⟨u|u′⟩` of the two outputs, summed in
    /// ascending index order like [`StateVector::inner_product`]. Returns
    /// `None` if `keep_going` returned `false` (polled between gate
    /// applications).
    ///
    /// The stimulus is prepared in `workspace`'s `G` buffer and copied into
    /// its `G′` buffer; only the workspace's first probe allocates.
    ///
    /// # Panics
    ///
    /// Panics if any qubit count differs or `basis` is out of range.
    #[must_use]
    pub fn probe_stimulus_while(
        &self,
        g: &Circuit,
        g_prime: &Circuit,
        basis: u64,
        prefix: Option<&Circuit>,
        workspace: &mut ProbeWorkspace,
        keep_going: &dyn Fn() -> bool,
    ) -> Option<Complex> {
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
        let dim = 1usize << workspace.n_qubits;
        let ProbeWorkspace { left, right, .. } = workspace;
        left.resize(dim, Complex::ZERO);
        right.resize(dim, Complex::ZERO);
        if !self.prepare_while(left, basis, prefix, keep_going) {
            return None;
        }
        right.copy_from_slice(left);
        if !self.run_while(g, left, keep_going) || !self.run_while(g_prime, right, keep_going) {
            return None;
        }
        let mut overlap = Complex::ZERO;
        for (a, b) in left.iter().zip(right.iter()) {
            overlap += a.conj() * *b;
        }
        Some(overlap)
    }

    /// Sets `state` to `|basis⟩` and runs `prefix` on it. Returns `false`
    /// if `keep_going` abandoned the preparation.
    fn prepare_while(
        &self,
        state: &mut [Complex],
        basis: u64,
        prefix: Option<&Circuit>,
        keep_going: &dyn Fn() -> bool,
    ) -> bool {
        assert!(
            (basis as usize) < state.len(),
            "basis state {basis} out of range for {} amplitudes",
            state.len()
        );
        state.fill(Complex::ZERO);
        state[basis as usize] = Complex::ONE;
        prefix.is_none_or(|prefix| {
            assert_eq!(
                1usize << prefix.n_qubits(),
                state.len(),
                "prefix and register qubit counts differ"
            );
            self.run_while(prefix, state, keep_going)
        })
    }

    /// Applies `circuit` to `state`, polling `keep_going` before each gate.
    /// Returns `false` if abandoned part-way through.
    fn run_while(
        &self,
        circuit: &Circuit,
        state: &mut [Complex],
        keep_going: &dyn Fn() -> bool,
    ) -> bool {
        for gate in circuit.gates() {
            if !keep_going() {
                return false;
            }
            self.apply_gate(state, gate);
        }
        true
    }
}

/// Reusable buffers for equivalence probes: one `2ⁿ` state vector per
/// branch, allocated on the first probe and overwritten wholesale by every
/// later one. Each worker of a checker pool owns one.
///
/// See [`Simulator::probe_stimulus_while`].
#[derive(Debug, Clone)]
pub struct ProbeWorkspace {
    n_qubits: usize,
    left: Vec<Complex>,
    right: Vec<Complex>,
}

impl ProbeWorkspace {
    /// Creates a workspace for `n_qubits`-qubit probes. The buffers are
    /// allocated on the first probe.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`StateVector::MAX_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "a state needs at least one qubit");
        assert!(
            n_qubits <= StateVector::MAX_QUBITS,
            "dense statevectors support at most {} qubits",
            StateVector::MAX_QUBITS
        );
        ProbeWorkspace {
            n_qubits,
            left: Vec::new(),
            right: Vec::new(),
        }
    }

    /// The register size the workspace probes.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The output state of `G` after the most recent probe.
    #[must_use]
    pub fn left(&self) -> &[Complex] {
        &self.left
    }

    /// The output state of `G'` after the most recent probe.
    #[must_use]
    pub fn right(&self) -> &[Complex] {
        &self.right
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
                .probe_stimulus_while(&g, &buggy, basis, None, &mut ws, &|| true)
                .expect("not cancelled");
            assert!(fresh.approx_eq(reused), "basis {basis}");
            for output in [ws.left(), ws.right()] {
                let norm: f64 = output.iter().map(|a| a.norm_sqr()).sum();
                assert!((norm - 1.0).abs() < 1e-10, "basis {basis}");
            }
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
            sim.probe_stimulus_while(&g, &g, 0, None, &mut ws, &keep_going),
            None
        );
        // An unconstrained probe still works on the same workspace.
        let overlap = sim.probe_stimulus_while(&g, &g, 0, None, &mut ws, &|| true);
        assert!(overlap.expect("not cancelled").approx_one());
    }

    #[test]
    #[should_panic(expected = "qubit counts differ")]
    fn mismatched_state_rejected() {
        let c = generators::bell();
        let mut s = StateVector::zero(3);
        Simulator::new().run_inplace(&c, &mut s);
    }
}

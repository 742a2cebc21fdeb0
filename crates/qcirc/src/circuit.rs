//! The circuit IR: an ordered list of gates on a fixed register of qubits.

use std::fmt;

use crate::gate::{Gate, GateKind};

/// A quantum circuit `G = g₀ g₁ … g_{m−1}` on `n` qubits.
///
/// Gates are applied in list order: the system matrix is
/// `U = U_{m−1} ⋯ U₀` (paper Section II). The struct offers a fluent builder
/// API for every supported gate, structural queries (depth, counts), and
/// whole-circuit transformations (inverse, composition, remapping).
///
/// # Examples
///
/// ```
/// use qcirc::Circuit;
///
/// // The Bell-pair preparation circuit.
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
    name: String,
}

impl Circuit {
    /// The widest register the readers accept: 65,534 qubits, the most a
    /// decision diagram's 16-bit level index can address (`u16::MAX` is
    /// kept free).
    pub const MAX_QUBITS: usize = u16::MAX as usize - 1;

    /// Creates an empty circuit on `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "a circuit needs at least one qubit");
        Circuit {
            n_qubits,
            gates: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named circuit (the name is carried through
    /// transformations and printed by benchmark harnesses).
    #[must_use]
    pub fn with_name(n_qubits: usize, name: impl Into<String>) -> Self {
        let mut c = Circuit::new(n_qubits);
        c.name = name.into();
        c
    }

    /// The number of qubits.
    #[inline]
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The circuit name (may be empty).
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The number of gates `|G|`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in application order.
    #[inline]
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate, validating that it fits the register.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit `≥ n_qubits`.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register of {} qubits",
            self.n_qubits
        );
        self.gates.push(gate);
        self
    }

    /// Fallible variant of [`Circuit::push`].
    ///
    /// # Errors
    ///
    /// Returns [`GateFitError`] if the gate touches a qubit outside the
    /// register; the gate is handed back inside the error.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), GateFitError> {
        if gate.max_qubit() >= self.n_qubits {
            return Err(GateFitError {
                gate,
                n_qubits: self.n_qubits,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Removes and returns the gate at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> Gate {
        self.gates.remove(index)
    }

    /// Replaces the gate at `index`, returning the old gate.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or the new gate does not fit.
    pub fn replace(&mut self, index: usize, gate: Gate) -> Gate {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register of {} qubits",
            self.n_qubits
        );
        std::mem::replace(&mut self.gates[index], gate)
    }

    /// Inserts a gate at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len` or the gate does not fit.
    pub fn insert(&mut self, index: usize, gate: Gate) {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds register of {} qubits",
            self.n_qubits
        );
        self.gates.insert(index, gate);
    }

    // ---- fluent single-qubit builders -------------------------------------

    /// Appends an identity gate (explicit no-op).
    pub fn id(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::I, q))
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::X, q))
    }

    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Y, q))
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Z, q))
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::H, q))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::S, q))
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Sdg, q))
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::T, q))
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Tdg, q))
    }

    /// Appends a √X gate.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Sx, q))
    }

    /// Appends a √Y gate.
    pub fn sy(&mut self, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Sy, q))
    }

    /// Appends an `Rx(θ)` rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Rx(theta), q))
    }

    /// Appends an `Ry(θ)` rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Ry(theta), q))
    }

    /// Appends an `Rz(θ)` rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Rz(theta), q))
    }

    /// Appends a phase gate `P(λ)`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::Phase(lambda), q))
    }

    /// Appends a generic `U3(θ, φ, λ)` gate.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.push(Gate::single(GateKind::U3(theta, phi, lambda), q))
    }

    // ---- fluent multi-qubit builders --------------------------------------

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::X, vec![c], t))
    }

    /// Appends a controlled-Z.
    pub fn cz(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::Z, vec![c], t))
    }

    /// Appends a controlled-phase `CP(λ)`.
    pub fn cp(&mut self, lambda: f64, c: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::Phase(lambda), vec![c], t))
    }

    /// Appends a controlled `Rz(θ)`.
    pub fn crz(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::Rz(theta), vec![c], t))
    }

    /// Appends a controlled-H.
    pub fn ch(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::H, vec![c], t))
    }

    /// Appends a Toffoli (CCX).
    pub fn ccx(&mut self, c0: usize, c1: usize, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::X, vec![c0, c1], t))
    }

    /// Appends a multi-controlled X with arbitrary controls.
    pub fn mcx(&mut self, controls: Vec<usize>, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::X, controls, t))
    }

    /// Appends a multi-controlled Z.
    pub fn mcz(&mut self, controls: Vec<usize>, t: usize) -> &mut Self {
        self.push(Gate::controlled(GateKind::Z, controls, t))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::swap(a, b))
    }

    /// Appends a Fredkin (controlled SWAP).
    pub fn cswap(&mut self, c: usize, a: usize, b: usize) -> &mut Self {
        self.push(Gate::controlled_swap(vec![c], a, b))
    }

    // ---- whole-circuit transformations ------------------------------------

    /// Returns the inverse circuit `G⁻¹` (gates reversed and inverted), so
    /// that `G · G⁻¹` is the identity.
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_name(self.n_qubits, format!("{}_inv", self.name));
        for g in self.gates.iter().rev() {
            inv.push(g.inverse());
        }
        inv
    }

    /// Appends all gates of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self` has.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit one",
            other.n_qubits,
            self.n_qubits
        );
        for g in &other.gates {
            self.push(g.clone());
        }
        self
    }

    /// Returns `self` followed by `other` as a new circuit on
    /// `max(n, n')` qubits.
    #[must_use]
    pub fn compose(&self, other: &Circuit) -> Circuit {
        let mut out = Circuit::with_name(self.n_qubits.max(other.n_qubits), self.name.clone());
        out.append(self);
        out.append(other);
        out
    }

    /// Remaps every qubit index through `map` (used for layout placement).
    ///
    /// # Panics
    ///
    /// Panics if a remapped gate no longer fits the register or its qubits
    /// collide.
    #[must_use]
    pub fn remap(&self, map: impl Fn(usize) -> usize) -> Circuit {
        let mut out = Circuit::with_name(self.n_qubits, self.name.clone());
        for g in &self.gates {
            out.push(g.remap(&map));
        }
        out
    }

    /// Returns the circuit with `control` added as an extra control qubit
    /// on *every* gate, so the result applies `self` iff `control` is `|1⟩`
    /// and the identity otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `control` is outside the register or any gate already
    /// touches `control`.
    #[must_use]
    pub fn controlled_by(&self, control: usize) -> Circuit {
        assert!(
            control < self.n_qubits,
            "control qubit {control} outside the {}-qubit register",
            self.n_qubits
        );
        let mut out = Circuit::with_name(self.n_qubits, format!("c-{}", self.name));
        for g in &self.gates {
            assert!(
                g.qubits().all(|q| q != control),
                "gate {g} already touches the control qubit {control}"
            );
            let mut controls = vec![control];
            controls.extend_from_slice(g.controls());
            let gate = if *g.kind() == crate::gate::GateKind::Swap {
                Gate::controlled_swap(controls, g.targets()[0], g.targets()[1])
            } else {
                Gate::controlled(*g.kind(), controls, g.target())
            };
            out.push(gate);
        }
        out
    }

    /// Returns the same gates on a register widened to `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is smaller than the current register.
    #[must_use]
    pub fn widened(&self, n_qubits: usize) -> Circuit {
        assert!(
            n_qubits >= self.n_qubits,
            "cannot shrink a circuit from {} to {n_qubits} qubits",
            self.n_qubits
        );
        let mut out = Circuit::with_name(n_qubits, self.name.clone());
        for g in &self.gates {
            out.push(g.clone());
        }
        out
    }

    // ---- structural queries -------------------------------------------------

    /// The circuit depth: length of the longest chain of gates that share
    /// qubits (the number of parallel layers).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let layer = g.qubits().map(|q| frontier[q]).max().unwrap_or(0) + 1;
            for q in g.qubits() {
                frontier[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Counts gates with at least one control or more than one target
    /// (i.e. gates that entangle).
    #[must_use]
    pub fn multi_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.width() > 1).count()
    }

    /// Counts the gates for which `pred` holds.
    #[must_use]
    pub fn count_where(&self, pred: impl Fn(&Gate) -> bool) -> usize {
        self.gates.iter().filter(|g| pred(g)).count()
    }

    /// The largest number of controls on any gate (0 for an empty circuit).
    #[must_use]
    pub fn max_controls(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.controls().len())
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if every gate is in the device basis
    /// `{any single-qubit gate, CX}` — the form circuits take after
    /// decomposition (paper Section IV-A).
    #[must_use]
    pub fn is_elementary(&self) -> bool {
        self.gates.iter().all(|g| {
            g.width() == 1
                || (g.width() == 2 && g.controls().len() == 1 && *g.kind() == GateKind::X)
        })
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit \"{}\" ({} qubits, {} gates):",
            self.name,
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

/// Error returned by [`Circuit::try_push`] when a gate does not fit the
/// register.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFitError {
    /// The rejected gate (returned to the caller).
    pub gate: Gate,
    /// The register size it did not fit.
    pub n_qubits: usize,
}

impl fmt::Display for GateFitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate {} does not fit a register of {} qubits",
            self.gate, self.n_qubits
        )
    }
}

impl std::error::Error for GateFitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).swap(1, 2).rz(0.5, 0);
        assert_eq!(c.len(), 5);
        assert_eq!(c.n_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = Circuit::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds register")]
    fn out_of_range_gate_rejected() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn try_push_returns_gate_in_error() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::single(GateKind::H, 5)).unwrap_err();
        assert_eq!(err.n_qubits, 2);
        assert_eq!(err.gate.target(), 5);
        assert!(err.to_string().contains("does not fit"));
        assert!(c.is_empty());
    }

    #[test]
    fn depth_counts_parallel_layers() {
        let mut c = Circuit::new(3);
        // h(0) and h(1) are parallel; cx(0,1) follows both; h(2) is parallel
        // with everything until the ccx.
        c.h(0).h(1).cx(0, 1).h(2).ccx(0, 1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn depth_of_empty_circuit_is_zero() {
        assert_eq!(Circuit::new(2).depth(), 0);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.gates()[0].to_string(), "cx q[0], q[1]");
        assert_eq!(inv.gates()[1].to_string(), "sdg q[1]");
        assert_eq!(inv.gates()[2].to_string(), "h q[0]");
    }

    #[test]
    fn compose_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(3);
        b.cx(1, 2);
        let c = a.compose(&b);
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remap_relabels_all_gates() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1);
        let r = c.remap(|q| 3 - q);
        assert_eq!(r.gates()[0].target(), 3);
        assert_eq!(r.gates()[1].controls(), &[3]);
        assert_eq!(r.gates()[1].target(), 2);
    }

    #[test]
    fn widened_keeps_gates() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let w = c.widened(5);
        assert_eq!(w.n_qubits(), 5);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn widened_rejects_shrinking() {
        let _ = Circuit::new(3).widened(2);
    }

    #[test]
    fn structural_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).t(2);
        assert_eq!(c.multi_qubit_count(), 2);
        assert_eq!(c.max_controls(), 2);
        assert_eq!(c.count_where(|g| g.kind().is_diagonal()), 1);
        assert!(!c.is_elementary());
        let mut e = Circuit::new(2);
        e.h(0).cx(0, 1).rz(0.1, 1);
        assert!(e.is_elementary());
    }

    #[test]
    fn edit_operations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).x(1);
        let removed = c.remove(1);
        assert_eq!(removed.to_string(), "cx q[0], q[1]");
        assert_eq!(c.len(), 2);
        let old = c.replace(0, Gate::single(GateKind::Z, 0));
        assert_eq!(old.to_string(), "h q[0]");
        c.insert(1, Gate::single(GateKind::H, 1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[1].to_string(), "h q[1]");
    }

    #[test]
    fn controlled_by_adds_a_control_everywhere() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).swap(0, 1);
        let cc = c.controlled_by(2);
        assert_eq!(cc.gates()[0].to_string(), "ch q[2], q[0]");
        assert_eq!(cc.gates()[1].to_string(), "ccx q[2], q[0], q[1]");
        assert_eq!(cc.gates()[2].to_string(), "cswap q[2], q[0], q[1]");
    }

    #[test]
    #[should_panic(expected = "already touches")]
    fn controlled_by_rejects_overlap() {
        let mut c = Circuit::new(2);
        c.h(0);
        let _ = c.controlled_by(0);
    }

    #[test]
    fn extend_and_iterate() {
        let mut c = Circuit::new(2);
        c.extend([Gate::single(GateKind::H, 0), Gate::swap(0, 1)]);
        let rendered: Vec<String> = (&c).into_iter().map(|g| g.to_string()).collect();
        assert_eq!(rendered, vec!["h q[0]", "swap q[0], q[1]"]);
    }

    #[test]
    fn display_contains_header_and_gates() {
        let mut c = Circuit::with_name(2, "bell");
        c.h(0).cx(0, 1);
        let s = c.to_string();
        assert!(s.contains("bell"));
        assert!(s.contains("h q[0]"));
        assert!(s.contains("cx q[0], q[1]"));
    }
}

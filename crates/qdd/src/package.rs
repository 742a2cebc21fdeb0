//! The decision-diagram package: arenas, unique tables, compute tables and
//! the DD algebra (add, multiply, adjoint, gate construction).
//!
//! Matrices and vectors share one core, generic over the node arity `K`:
//! node making, normalization, compaction copying, addition and path walks
//! exist once and are monomorphised per arity through [`Arity`], which
//! picks the arity's [`NodeTable`] at compile time.

use std::collections::HashMap;
use std::fmt;

use qcirc::{Circuit, Gate, GateKind};
use qnum::Complex;

use crate::check::{Budget, DdCheckAbort};
use crate::complex_table::{ComplexTable, Cx};
use crate::edge::{Edge, MEdge, MNode, Node, NodeId, VEdge, VNode};

/// Error raised when a DD operation would exceed the package's node limit —
/// the "resource-out" analogue of the paper's timeouts (DD sizes explode on
/// exactly the circuits where the EC routine times out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdLimitError {
    /// The configured limit that was hit.
    pub node_limit: usize,
}

impl fmt::Display for DdLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decision diagram exceeded the node limit of {}",
            self.node_limit
        )
    }
}

impl std::error::Error for DdLimitError {}

/// Aggregate size statistics of a package (see [`Package::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackageStats {
    /// Allocated matrix nodes.
    pub matrix_nodes: usize,
    /// Allocated vector nodes.
    pub vector_nodes: usize,
    /// Distinct interned complex values.
    pub complex_values: usize,
}

/// The node storage of one arity: the arena, its unique table and its
/// addition cache.
#[derive(Debug, Default)]
pub struct NodeTable<const K: usize> {
    nodes: Vec<Node<K>>,
    unique: HashMap<Node<K>, NodeId>,
    add_cache: HashMap<(NodeId, NodeId, Cx), Edge<K>>,
}

/// Selects the package's [`NodeTable`] for nodes with `K` children — matrices
/// (`K = 4`) or vectors (`K = 2`) — at compile time.
pub trait Arity<const K: usize> {
    /// The storage of nodes with `K` children.
    fn table(&self) -> &NodeTable<K>;
    /// The storage of nodes with `K` children, mutably.
    fn table_mut(&mut self) -> &mut NodeTable<K>;
}

impl Arity<4> for Package {
    fn table(&self) -> &NodeTable<4> {
        &self.matrices
    }
    fn table_mut(&mut self) -> &mut NodeTable<4> {
        &mut self.matrices
    }
}

impl Arity<2> for Package {
    fn table(&self) -> &NodeTable<2> {
        &self.vectors
    }
    fn table_mut(&mut self) -> &mut NodeTable<2> {
        &mut self.vectors
    }
}

/// A QMDD-style decision diagram package over a fixed number of qubits.
///
/// Matrix DDs decompose a `2ⁿ×2ⁿ` matrix by the top qubit into four
/// `2ⁿ⁻¹×2ⁿ⁻¹` blocks per node; vector DDs decompose a state vector into
/// two halves. Edge weights are interned complex factors; nodes are
/// *normalized* (largest-magnitude child weight scaled to 1 and pulled up)
/// and hash-consed, so structural edge equality coincides with semantic
/// matrix/vector equality — the property the equivalence checker relies on.
///
/// DDs here are *quasi-reduced*: every path visits all levels (no skipped
/// variables), except that zero edges jump straight to the terminal.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qdd::DdCheckAbort> {
/// use qdd::{Budget, Package};
///
/// let mut p = Package::new(2);
/// let bell = qcirc::generators::bell();
/// let u = p.circuit_medge(&bell, &Budget::new(None))?;
/// let v = p.apply_to_basis(&bell, 0)?;
/// assert!((p.amplitude(v, 0).abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
/// let _ = u;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Package {
    n_qubits: usize,
    ct: ComplexTable,
    matrices: NodeTable<4>,
    vectors: NodeTable<2>,
    identity: Vec<MEdge>,
    mmul_cache: HashMap<(NodeId, NodeId), MEdge>,
    mv_cache: HashMap<(NodeId, NodeId), VEdge>,
    adj_cache: HashMap<NodeId, MEdge>,
    ip_cache: HashMap<(NodeId, NodeId), Complex>,
    maxabs_cache: HashMap<NodeId, f64>,
    node_limit: usize,
    gc_threshold: usize,
}

impl Package {
    /// Default node limit (matrix + vector nodes combined).
    pub const DEFAULT_NODE_LIMIT: usize = 20_000_000;

    /// Default automatic-GC threshold: long-running loops compact their
    /// arenas once this many nodes are allocated.
    pub const DEFAULT_GC_THRESHOLD: usize = 400_000;

    /// Creates a package for `n_qubits` qubits with the default node limit.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`Circuit::MAX_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        Self::with_node_limit(n_qubits, Self::DEFAULT_NODE_LIMIT)
    }

    /// Creates a package with an explicit node limit; operations return
    /// [`DdLimitError`] when growth would exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or exceeds [`Circuit::MAX_QUBITS`].
    #[must_use]
    pub fn with_node_limit(n_qubits: usize, node_limit: usize) -> Self {
        assert!(n_qubits > 0, "a package needs at least one qubit");
        assert!(n_qubits <= Circuit::MAX_QUBITS, "too many qubits");
        let mut package = Package {
            n_qubits,
            ct: ComplexTable::new(),
            matrices: NodeTable::default(),
            vectors: NodeTable::default(),
            identity: Vec::new(),
            mmul_cache: HashMap::new(),
            mv_cache: HashMap::new(),
            adj_cache: HashMap::new(),
            ip_cache: HashMap::new(),
            maxabs_cache: HashMap::new(),
            node_limit,
            gc_threshold: Self::DEFAULT_GC_THRESHOLD.min(node_limit / 2).max(1024),
        };
        package.build_identity_cache();
        package
    }

    fn build_identity_cache(&mut self) {
        let mut below = MEdge::terminal(Cx::ONE);
        for level in 0..self.n_qubits {
            let e = self
                .make_node(level as u16, [below, MEdge::ZERO, MEdge::ZERO, below])
                .expect("identity fits any sane node limit");
            self.identity.push(e);
            below = e;
        }
    }

    /// The number of qubits.
    #[inline]
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The identity matrix DD over all qubits.
    #[must_use]
    pub fn identity_medge(&self) -> MEdge {
        self.identity[self.n_qubits - 1]
    }

    /// The interned complex value behind a weight.
    #[inline]
    #[must_use]
    pub fn weight_value(&self, w: Cx) -> Complex {
        self.ct.value(w)
    }

    /// Current size statistics.
    #[must_use]
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            matrix_nodes: self.matrices.nodes.len(),
            vector_nodes: self.vectors.nodes.len(),
            complex_values: self.ct.len(),
        }
    }

    /// Garbage-collects the package: drops every node not reachable from
    /// the given root edges, rebuilding arenas, unique tables and the
    /// identity cache, and returns the remapped roots (in input order).
    ///
    /// All compute tables are cleared. **Every edge not passed as a root is
    /// dangling afterwards** — holding onto one is a logic error. The
    /// complex table is kept (weight indices stay valid).
    ///
    /// Long-running consumers ([`Package::circuit_medge`],
    /// [`Package::apply_to_vedge`], the equivalence checkers) call this
    /// automatically when the arenas pass [`Package::gc_threshold`].
    pub fn compact(&mut self, mroots: &[MEdge], vroots: &[VEdge]) -> (Vec<MEdge>, Vec<VEdge>) {
        let old_matrices = std::mem::take(&mut self.matrices.nodes);
        let old_vectors = std::mem::take(&mut self.vectors.nodes);
        self.restart();
        let mut memo = HashMap::new();
        let new_mroots = mroots
            .iter()
            .map(|&e| self.copy(e, &old_matrices, &mut memo))
            .collect();
        memo.clear();
        let new_vroots = vroots
            .iter()
            .map(|&e| self.copy(e, &old_vectors, &mut memo))
            .collect();
        (new_mroots, new_vroots)
    }

    /// Re-creates `edge`'s subgraph from the old arena `old` in the
    /// current one; `memo` maps old node ids to their copies.
    fn copy<const K: usize>(
        &mut self,
        edge: Edge<K>,
        old: &[Node<K>],
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> Edge<K>
    where
        Self: Arity<K>,
    {
        if edge.node.is_terminal() {
            return edge;
        }
        if let Some(&node) = memo.get(&edge.node) {
            return Edge { node, ..edge };
        }
        let old_node = old[edge.node.0 as usize];
        let children = old_node.children.map(|c| self.copy(c, old, memo));
        // Children were already normalized, so re-making the node cannot
        // change weights; the arena shrank, so the limit cannot trip.
        let made = self
            .make_node(old_node.var, children)
            .expect("compaction shrinks the arena");
        debug_assert_eq!(made.weight, Cx::ONE, "re-normalization must be trivial");
        memo.insert(edge.node, made.node);
        Edge {
            node: made.node,
            ..edge
        }
    }

    /// The arena size above which long-running loops garbage-collect.
    #[must_use]
    pub fn gc_threshold(&self) -> usize {
        self.gc_threshold
    }

    /// Sets the automatic-GC threshold (node count).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold.max(1024);
    }

    /// Returns `true` if the arenas have outgrown the GC threshold.
    #[must_use]
    pub fn wants_gc(&self) -> bool {
        self.allocated() > self.gc_threshold
    }

    /// Resets the package to its freshly constructed state while keeping
    /// every allocation: arenas, unique tables, compute tables and the
    /// complex table are all emptied, and the identity cache is rebuilt.
    ///
    /// This is the workspace-pooling primitive: a reset package is
    /// *observationally identical* to `Package::with_node_limit(n, limit)`
    /// — the same operation sequence afterwards allocates the same node
    /// ids and interns the same weight indices bit for bit — so reusing
    /// one package across independent probes cannot leak interned state
    /// between runs. Every edge obtained before the reset is dangling.
    pub fn reset(&mut self) {
        self.ct.clear();
        self.matrices.nodes.clear();
        self.vectors.nodes.clear();
        self.restart();
    }

    /// Empties the unique and compute tables and rebuilds the identity
    /// cache — the common tail of [`Package::reset`] and
    /// [`Package::compact`], run once the arenas are emptied.
    fn restart(&mut self) {
        self.matrices.unique.clear();
        self.vectors.unique.clear();
        self.clear_compute_tables();
        self.identity.clear();
        self.build_identity_cache();
    }

    /// Clears all compute tables (the unique tables and arenas stay).
    ///
    /// Useful between independent problems to keep cache lookups fast.
    pub fn clear_compute_tables(&mut self) {
        self.matrices.add_cache.clear();
        self.mmul_cache.clear();
        self.mv_cache.clear();
        self.vectors.add_cache.clear();
        self.adj_cache.clear();
        self.ip_cache.clear();
        self.maxabs_cache.clear();
    }

    // ---- node construction --------------------------------------------------

    /// Allocated nodes, both arenas combined.
    pub(crate) fn allocated(&self) -> usize {
        self.matrices.nodes.len() + self.vectors.nodes.len()
    }

    /// Creates (or finds) the normalized, hash-consed node.
    fn make_node<const K: usize>(
        &mut self,
        var: u16,
        children: [Edge<K>; K],
    ) -> Result<Edge<K>, DdLimitError>
    where
        Self: Arity<K>,
    {
        if children.iter().all(|c| c.is_zero()) {
            return Ok(Edge::ZERO);
        }
        #[cfg(debug_assertions)]
        for c in &children {
            if !c.is_zero() {
                if var == 0 {
                    debug_assert!(c.node.is_terminal(), "level-0 child must be terminal");
                } else {
                    debug_assert!(!c.node.is_terminal(), "skipped level below var {var}");
                    debug_assert_eq!(self.node::<K>(c.node).var, var - 1);
                }
            }
        }
        // Normalize: pull out the largest-magnitude child weight.
        let norm_idx = max_weight_index(&self.ct, children.iter().map(|c| c.weight));
        let norm = children[norm_idx].weight;
        let mut normalized = children;
        for c in &mut normalized {
            if !c.is_zero() {
                c.weight = self.ct.div(c.weight, norm);
            }
        }
        let node = Node {
            var,
            children: normalized,
        };
        let id = if let Some(&id) = self.table().unique.get(&node) {
            id
        } else {
            if self.allocated() >= self.node_limit {
                return Err(DdLimitError {
                    node_limit: self.node_limit,
                });
            }
            let table = self.table_mut();
            let id = NodeId(u32::try_from(table.nodes.len()).expect("arena index overflow"));
            table.nodes.push(node);
            table.unique.insert(node, id);
            id
        };
        Ok(Edge {
            node: id,
            weight: norm,
        })
    }

    fn node<const K: usize>(&self, id: NodeId) -> &Node<K>
    where
        Self: Arity<K>,
    {
        &self.table().nodes[id.0 as usize]
    }

    // ---- gate construction --------------------------------------------------

    /// Builds the matrix DD of a single gate over the full register.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the gate does not fit the register.
    pub fn gate_medge(&mut self, gate: &Gate) -> Result<MEdge, DdLimitError> {
        assert!(
            gate.max_qubit() < self.n_qubits,
            "gate {gate} exceeds the package's {} qubits",
            self.n_qubits
        );
        match gate.kind() {
            GateKind::Swap => {
                // SWAP (optionally controlled) = CX(b→a) · C⁺X(C∪{a}→b) · CX(b→a).
                let (a, b) = (gate.targets()[0], gate.targets()[1]);
                let outer = Gate::controlled(GateKind::X, vec![b], a);
                let mut mid_controls = gate.controls().to_vec();
                mid_controls.push(a);
                let mid = Gate::controlled(GateKind::X, mid_controls, b);
                let e1 = self.gate_medge(&outer)?;
                let e2 = self.gate_medge(&mid)?;
                let m = self.mul_mm(e2, e1)?;
                self.mul_mm(e1, m)
            }
            kind => {
                let m = kind.base_matrix().expect("single-target kind");
                let target = gate.target();
                let entries = [m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1)];
                let mut em: [MEdge; 4] = [
                    MEdge::terminal(self.ct.intern(entries[0])),
                    MEdge::terminal(self.ct.intern(entries[1])),
                    MEdge::terminal(self.ct.intern(entries[2])),
                    MEdge::terminal(self.ct.intern(entries[3])),
                ];
                // Canonical zero edges for vanishing matrix entries.
                for e in &mut em {
                    if e.weight == Cx::ZERO {
                        *e = MEdge::ZERO;
                    }
                }
                let is_control = |q: usize| gate.controls().contains(&q);
                // Levels below the target.
                for z in 0..target {
                    let below_id = self.identity_below(z);
                    if is_control(z) {
                        em = [
                            self.make_node(z as u16, [below_id, MEdge::ZERO, MEdge::ZERO, em[0]])?,
                            self.make_node(
                                z as u16,
                                [MEdge::ZERO, MEdge::ZERO, MEdge::ZERO, em[1]],
                            )?,
                            self.make_node(
                                z as u16,
                                [MEdge::ZERO, MEdge::ZERO, MEdge::ZERO, em[2]],
                            )?,
                            self.make_node(z as u16, [below_id, MEdge::ZERO, MEdge::ZERO, em[3]])?,
                        ];
                    } else {
                        for e in &mut em {
                            *e = self.make_node(z as u16, [*e, MEdge::ZERO, MEdge::ZERO, *e])?;
                        }
                    }
                }
                let mut e = self.make_node(target as u16, em)?;
                // Levels above the target.
                for z in target + 1..self.n_qubits {
                    if is_control(z) {
                        let below_id = self.identity_below(z);
                        e = self.make_node(z as u16, [below_id, MEdge::ZERO, MEdge::ZERO, e])?;
                    } else {
                        e = self.make_node(z as u16, [e, MEdge::ZERO, MEdge::ZERO, e])?;
                    }
                }
                Ok(e)
            }
        }
    }

    /// The identity DD over levels strictly below `z` (a scalar 1 for `z = 0`).
    fn identity_below(&self, z: usize) -> MEdge {
        if z == 0 {
            MEdge::terminal(Cx::ONE)
        } else {
            self.identity[z - 1]
        }
    }

    /// Builds the full system matrix DD `U = U_{m−1} ⋯ U₀` of a circuit,
    /// polling `budget` before every gate and garbage-collecting as it
    /// goes (so no edge held from before the build stays valid).
    ///
    /// # Errors
    ///
    /// Returns [`DdCheckAbort`] on timeout or node-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's qubit count differs from the package's.
    pub fn circuit_medge(
        &mut self,
        circuit: &Circuit,
        budget: &Budget,
    ) -> Result<MEdge, DdCheckAbort> {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits,
            "circuit and package qubit counts differ"
        );
        let mut u = self.identity_medge();
        for gate in circuit.gates() {
            budget.check()?;
            let g = self.gate_medge(gate)?;
            u = self.mul_mm(g, u)?;
            if self.wants_gc() {
                u = self.compact(&[u], &[]).0[0];
            }
        }
        Ok(u)
    }

    // ---- algebra --------------------------------------------------------------

    /// Addition `a + b` of two matrices or two vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    pub fn add<const K: usize>(&mut self, a: Edge<K>, b: Edge<K>) -> Result<Edge<K>, DdLimitError>
    where
        Self: Arity<K>,
    {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            return Ok(Edge::terminal(self.ct.add(a.weight, b.weight)));
        }
        debug_assert!(!a.node.is_terminal() && !b.node.is_terminal());
        // Canonical operand order (addition commutes).
        let (a, b) = if (b.node, b.weight) < (a.node, a.weight) {
            (b, a)
        } else {
            (a, b)
        };
        // Factor a's weight out: result = a.w · (A₁ + (b.w/a.w)·B₁).
        let rel = self.ct.div(b.weight, a.weight);
        if let Some(&cached) = self.table().add_cache.get(&(a.node, b.node, rel)) {
            return Ok(Edge {
                node: cached.node,
                weight: self.ct.mul(a.weight, cached.weight),
            });
        }
        let an: Node<K> = *self.node(a.node);
        let bn: Node<K> = *self.node(b.node);
        debug_assert_eq!(an.var, bn.var, "misaligned add");
        let mut children = [Edge::ZERO; K];
        for ((child, &ac), &bc) in children.iter_mut().zip(&an.children).zip(&bn.children) {
            let b_child = Edge {
                node: bc.node,
                weight: self.ct.mul(bc.weight, rel),
            };
            *child = self.add(ac, b_child)?;
        }
        let result = self.make_node(an.var, children)?;
        self.table_mut()
            .add_cache
            .insert((a.node, b.node, rel), result);
        Ok(Edge {
            node: result.node,
            weight: self.ct.mul(a.weight, result.weight),
        })
    }

    /// Matrix multiplication `a · b`.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    pub fn mul_mm(&mut self, a: MEdge, b: MEdge) -> Result<MEdge, DdLimitError> {
        if a.is_zero() || b.is_zero() {
            return Ok(MEdge::ZERO);
        }
        let w = self.ct.mul(a.weight, b.weight);
        if a.node.is_terminal() && b.node.is_terminal() {
            return Ok(MEdge::terminal(w));
        }
        debug_assert!(!a.node.is_terminal() && !b.node.is_terminal());
        if let Some(&cached) = self.mmul_cache.get(&(a.node, b.node)) {
            return Ok(MEdge {
                node: cached.node,
                weight: self.ct.mul(w, cached.weight),
            });
        }
        let an: MNode = *self.node(a.node);
        let bn: MNode = *self.node(b.node);
        debug_assert_eq!(an.var, bn.var, "misaligned multiply");
        let mut children = [MEdge::ZERO; 4];
        for row in 0..2 {
            for col in 0..2 {
                let p0 = self.mul_mm(an.children[row * 2], bn.children[col])?;
                let p1 = self.mul_mm(an.children[row * 2 + 1], bn.children[2 + col])?;
                children[row * 2 + col] = self.add(p0, p1)?;
            }
        }
        let result = self.make_node(an.var, children)?;
        self.mmul_cache.insert((a.node, b.node), result);
        Ok(MEdge {
            node: result.node,
            weight: self.ct.mul(w, result.weight),
        })
    }

    /// Conjugate transpose `a†`.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    pub fn adjoint(&mut self, a: MEdge) -> Result<MEdge, DdLimitError> {
        if a.is_zero() {
            return Ok(MEdge::ZERO);
        }
        let w = self.ct.conj(a.weight);
        if a.node.is_terminal() {
            return Ok(MEdge::terminal(w));
        }
        if let Some(&cached) = self.adj_cache.get(&a.node) {
            return Ok(MEdge {
                node: cached.node,
                weight: self.ct.mul(w, cached.weight),
            });
        }
        let an: MNode = *self.node(a.node);
        let children = [
            self.adjoint(an.children[0])?,
            self.adjoint(an.children[2])?,
            self.adjoint(an.children[1])?,
            self.adjoint(an.children[3])?,
        ];
        let result = self.make_node(an.var, children)?;
        self.adj_cache.insert(a.node, result);
        Ok(MEdge {
            node: result.node,
            weight: self.ct.mul(w, result.weight),
        })
    }

    /// Builds the basis-state vector DD `|i⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded (practically
    /// impossible for a chain of `n` nodes).
    ///
    /// # Panics
    ///
    /// Panics if `basis ≥ 2ⁿ`.
    pub fn basis_vedge(&mut self, basis: u64) -> Result<VEdge, DdLimitError> {
        assert!(
            self.n_qubits >= 64 || basis >> self.n_qubits == 0,
            "basis state {basis} out of range for {} qubits",
            self.n_qubits
        );
        let mut e = VEdge::terminal(Cx::ONE);
        for z in 0..self.n_qubits {
            // Qubits past the 64 bits of `basis` start in |0⟩.
            let bit = if z < 64 { (basis >> z) & 1 } else { 0 };
            let children = if bit == 0 {
                [e, VEdge::ZERO]
            } else {
                [VEdge::ZERO, e]
            };
            e = self.make_node(z as u16, children)?;
        }
        Ok(e)
    }

    /// Matrix-vector product `m · v` — one simulation step.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    pub fn mul_mv(&mut self, m: MEdge, v: VEdge) -> Result<VEdge, DdLimitError> {
        if m.is_zero() || v.is_zero() {
            return Ok(VEdge::ZERO);
        }
        let w = self.ct.mul(m.weight, v.weight);
        if m.node.is_terminal() && v.node.is_terminal() {
            return Ok(VEdge::terminal(w));
        }
        debug_assert!(!m.node.is_terminal() && !v.node.is_terminal());
        if let Some(&cached) = self.mv_cache.get(&(m.node, v.node)) {
            return Ok(VEdge {
                node: cached.node,
                weight: self.ct.mul(w, cached.weight),
            });
        }
        let mn: MNode = *self.node(m.node);
        let vn: VNode = *self.node(v.node);
        debug_assert_eq!(mn.var, vn.var, "misaligned matrix-vector multiply");
        let mut children = [VEdge::ZERO; 2];
        for (row, child) in children.iter_mut().enumerate() {
            let p0 = self.mul_mv(mn.children[row * 2], vn.children[0])?;
            let p1 = self.mul_mv(mn.children[row * 2 + 1], vn.children[1])?;
            *child = self.add(p0, p1)?;
        }
        let result = self.make_node(mn.var, children)?;
        self.mv_cache.insert((m.node, v.node), result);
        Ok(VEdge {
            node: result.node,
            weight: self.ct.mul(w, result.weight),
        })
    }

    /// Simulates a circuit on basis state `|basis⟩` entirely in DD form —
    /// the engine of \[25\].
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's qubit count differs from the package's.
    pub fn apply_to_basis(&mut self, circuit: &Circuit, basis: u64) -> Result<VEdge, DdLimitError> {
        let v = self.basis_vedge(basis)?;
        self.apply_to_vedge(circuit, v, &mut [])
    }

    /// Applies a circuit to an arbitrary vector DD — the general form of
    /// [`Package::apply_to_basis`], used when the initial state is itself
    /// the output of a preparation circuit (e.g. a stabilizer stimulus).
    ///
    /// The pass garbage-collects when the arena outgrows the threshold,
    /// which invalidates every edge the caller holds outside `keep`: each
    /// edge in `keep` rides along as a GC root and is remapped in place,
    /// so it stays valid after the pass. An edge held past the pass
    /// without that protection (the initial state for a second pass, the
    /// first pass's output) would point into the old arena — a stale
    /// [`NodeId`] that aliases an unrelated node or indexes out of bounds.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if the node limit is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's qubit count differs from the package's.
    pub fn apply_to_vedge(
        &mut self,
        circuit: &Circuit,
        initial: VEdge,
        keep: &mut [VEdge],
    ) -> Result<VEdge, DdLimitError> {
        assert_eq!(
            circuit.n_qubits(),
            self.n_qubits,
            "circuit and package qubit counts differ"
        );
        let mut v = initial;
        for gate in circuit.gates() {
            let g = self.gate_medge(gate)?;
            v = self.mul_mv(g, v)?;
            if self.wants_gc() {
                let (_, roots) = self.compact(&[], &[&[v][..], &*keep].concat());
                v = roots[0];
                keep.copy_from_slice(&roots[1..]);
            }
        }
        Ok(v)
    }

    /// The value at the end of one root-to-terminal path: the product of
    /// the edge weights along it, where `child(level)` picks the child
    /// taken at each level; zero once the path meets a zero edge.
    fn path_value<const K: usize>(&self, e: Edge<K>, child: impl Fn(usize) -> usize) -> Complex
    where
        Self: Arity<K>,
    {
        if e.is_zero() {
            return Complex::ZERO;
        }
        let mut w = self.ct.value(e.weight);
        let mut node = e.node;
        while !node.is_terminal() {
            let n = self.node::<K>(node);
            let c = n.children[child(n.var as usize)];
            if c.is_zero() {
                return Complex::ZERO;
            }
            w *= self.ct.value(c.weight);
            node = c.node;
        }
        w
    }

    /// The amplitude `⟨basis|v⟩` of a vector DD.
    ///
    /// # Panics
    ///
    /// Panics if `basis ≥ 2ⁿ`.
    #[must_use]
    pub fn amplitude(&self, v: VEdge, basis: u64) -> Complex {
        assert!(
            (basis >> self.n_qubits) == 0,
            "basis state {basis} out of range"
        );
        self.path_value(v, |level| ((basis >> level) & 1) as usize)
    }

    /// Expands a vector DD into a dense amplitude vector (tests and tiny
    /// instances only).
    ///
    /// # Panics
    ///
    /// Panics if the package has more than 20 qubits.
    #[must_use]
    pub fn to_statevector(&self, v: VEdge) -> Vec<Complex> {
        assert!(self.n_qubits <= 20, "dense expansion limited to 20 qubits");
        let dim = 1usize << self.n_qubits;
        (0..dim as u64).map(|i| self.amplitude(v, i)).collect()
    }

    /// The inner product `⟨a|b⟩` of two vector DDs.
    pub fn inner_product(&mut self, a: VEdge, b: VEdge) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        let factor = self.ct.value(a.weight).conj() * self.ct.value(b.weight);
        if a.node.is_terminal() && b.node.is_terminal() {
            return factor;
        }
        debug_assert!(!a.node.is_terminal() && !b.node.is_terminal());
        if let Some(&cached) = self.ip_cache.get(&(a.node, b.node)) {
            return factor * cached;
        }
        let an: VNode = *self.node(a.node);
        let bn: VNode = *self.node(b.node);
        debug_assert_eq!(an.var, bn.var, "misaligned inner product");
        let mut sum = Complex::ZERO;
        for i in 0..2 {
            sum += self.inner_product(an.children[i], bn.children[i]);
        }
        self.ip_cache.insert((a.node, b.node), sum);
        factor * sum
    }

    // ---- comparison -----------------------------------------------------------

    /// The largest entry magnitude `max_{ij} |M_{ij}|` of a matrix DD,
    /// computed recursively (memoized per node).
    pub fn max_abs(&mut self, e: MEdge) -> f64 {
        if e.is_zero() {
            return 0.0;
        }
        self.ct.value(e.weight).abs() * self.node_max_abs(e.node)
    }

    fn node_max_abs(&mut self, node: NodeId) -> f64 {
        if node.is_terminal() {
            return 1.0;
        }
        if let Some(&cached) = self.maxabs_cache.get(&node) {
            return cached;
        }
        let children = self.node::<4>(node).children;
        let mut best = 0.0f64;
        for c in children {
            if c.is_zero() {
                continue;
            }
            let v = self.ct.value(c.weight).abs() * self.node_max_abs(c.node);
            if v > best {
                best = v;
            }
        }
        self.maxabs_cache.insert(node, best);
        best
    }

    /// Scales a matrix DD by a complex factor (adjusts the root weight).
    pub fn scale_medge(&mut self, e: MEdge, factor: Complex) -> MEdge {
        if e.is_zero() || factor.approx_zero() {
            return MEdge::ZERO;
        }
        let w = self.ct.value(e.weight) * factor;
        MEdge {
            node: e.node,
            weight: self.ct.intern(w),
        }
    }

    /// Entry-wise closeness of two matrix DDs: `max |A − B| ≤ tolerance`.
    ///
    /// This is the drift-tolerant comparison backing the equivalence
    /// checkers: canonical (pointer) equality can be defeated by
    /// accumulated interning rounding on very deep circuits, whereas the
    /// explicit difference bound cannot.
    ///
    /// # Errors
    ///
    /// Returns [`DdLimitError`] if building the difference DD exceeds the
    /// node limit.
    pub fn medges_close(
        &mut self,
        a: MEdge,
        b: MEdge,
        tolerance: f64,
    ) -> Result<bool, DdLimitError> {
        if a == b {
            return Ok(true);
        }
        let minus_b = self.scale_medge(b, Complex::real(-1.0));
        let diff = self.add(a, minus_b)?;
        Ok(self.max_abs(diff) <= tolerance)
    }

    /// The first nonzero entry of column 0, as `(row, value)` — used to
    /// estimate a candidate global-phase ratio between two unitaries.
    #[must_use]
    pub fn first_entry_in_column0(&self, e: MEdge) -> Option<(u64, Complex)> {
        if e.is_zero() {
            return None;
        }
        let mut value = self.ct.value(e.weight);
        let mut node = e.node;
        let mut row = 0u64;
        while !node.is_terminal() {
            let n: &MNode = self.node(node);
            // Column bit is 0 at every level; prefer the row-0 block.
            let (child, bit) = if !n.children[0].is_zero() {
                (n.children[0], 0u64)
            } else if !n.children[2].is_zero() {
                (n.children[2], 1u64)
            } else {
                return None; // column 0 is entirely zero
            };
            row |= bit << n.var;
            value *= self.ct.value(child.weight);
            node = child.node;
        }
        Some((row, value))
    }

    /// Equality of matrix DDs up to one global phase factor.
    #[must_use]
    pub fn medges_equal_up_to_phase(&self, a: MEdge, b: MEdge) -> bool {
        a.node == b.node
            && qnum::approx::approx_eq(self.ct.value(a.weight).abs(), self.ct.value(b.weight).abs())
    }

    /// Returns `true` if the matrix DD is exactly the identity.
    #[must_use]
    pub fn is_identity(&self, e: MEdge) -> bool {
        e == self.identity_medge()
    }

    /// Expands a matrix DD into a dense matrix (tests and the Fig. 1
    /// reproduction only).
    ///
    /// # Panics
    ///
    /// Panics if the package has more than 10 qubits.
    #[must_use]
    pub fn to_matrix(&self, e: MEdge) -> qnum::MatrixN {
        assert!(self.n_qubits <= 10, "dense expansion limited to 10 qubits");
        let mut m = qnum::MatrixN::zero(self.n_qubits);
        let dim = 1usize << self.n_qubits;
        for row in 0..dim {
            for col in 0..dim {
                let entry =
                    self.path_value(e, |level| ((row >> level) & 1) * 2 + ((col >> level) & 1));
                m.set(row, col, entry);
            }
        }
        m
    }
}

/// Index of the largest-magnitude weight (first among near-ties), used for
/// node normalization.
fn max_weight_index(ct: &ComplexTable, weights: impl Iterator<Item = Cx>) -> usize {
    let mut best: Option<usize> = None;
    let mut best_mag = 0.0f64;
    for (i, w) in weights.enumerate() {
        if w == Cx::ZERO {
            continue; // a zero weight can never normalize a nonzero node
        }
        let mag = ct.value(w).norm_sqr();
        // Keep the first index among near-ties (relative epsilon), so that
        // re-normalizing an already-normalized node is the identity — the
        // property GC compaction and canonicity depend on.
        match best {
            None => {
                best = Some(i);
                best_mag = mag;
            }
            Some(_) if mag > best_mag * (1.0 + 1e-9) => {
                best = Some(i);
                best_mag = mag;
            }
            Some(_) => {}
        }
    }
    best.expect("caller guarantees at least one nonzero weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::generators;

    fn build(p: &mut Package, c: &Circuit) -> MEdge {
        p.circuit_medge(c, &Budget::new(None)).unwrap()
    }

    #[test]
    fn identity_dd_matches_dense() {
        let p = Package::new(3);
        let id = p.identity_medge();
        assert!(p.to_matrix(id).approx_eq(&qnum::MatrixN::identity(3)));
        assert!(p.is_identity(id));
    }

    #[test]
    fn single_gate_dds_match_dense() {
        for (n, gate) in [
            (1, Gate::single(GateKind::H, 0)),
            (2, Gate::single(GateKind::T, 1)),
            (2, Gate::controlled(GateKind::X, vec![0], 1)),
            (2, Gate::controlled(GateKind::X, vec![1], 0)),
            (3, Gate::controlled(GateKind::Z, vec![2], 0)),
            (3, Gate::controlled(GateKind::X, vec![0, 2], 1)),
            (3, Gate::swap(0, 2)),
            (3, Gate::controlled_swap(vec![1], 0, 2)),
            (4, Gate::controlled(GateKind::Phase(0.7), vec![1, 3], 0)),
        ] {
            let mut p = Package::new(n);
            let e = p.gate_medge(&gate).unwrap();
            let mut c = Circuit::new(n);
            c.push(gate.clone());
            let expect = qcirc::dense::unitary(&c);
            assert!(
                p.to_matrix(e).approx_eq(&expect),
                "gate {gate} on {n} qubits"
            );
        }
    }

    #[test]
    fn circuit_dd_matches_dense_on_random_circuits() {
        for seed in 0..4 {
            let c = generators::random_clifford_t(4, 40, seed);
            let mut p = Package::new(4);
            let u = build(&mut p, &c);
            assert!(
                p.to_matrix(u).approx_eq(&qcirc::dense::unitary(&c)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn equal_circuits_share_one_canonical_edge() {
        let c = generators::qft(4, true);
        let mut p = Package::new(4);
        let u1 = build(&mut p, &c);
        let u2 = build(&mut p, &c);
        assert_eq!(u1, u2, "canonical DDs must be pointer-identical");
    }

    #[test]
    fn different_circuits_have_different_edges() {
        let mut p = Package::new(3);
        let a = build(&mut p, &generators::ghz(3));
        let mut buggy = generators::ghz(3);
        buggy.x(1);
        let b = build(&mut p, &buggy);
        assert_ne!(a, b);
    }

    #[test]
    fn adjoint_inverts_unitary_dds() {
        let c = generators::random_clifford_t(4, 30, 9);
        let mut p = Package::new(4);
        let u = build(&mut p, &c);
        let udag = p.adjoint(u).unwrap();
        let prod = p.mul_mm(udag, u).unwrap();
        assert!(p.is_identity(prod), "U†U must be exactly I");
    }

    #[test]
    fn add_and_scalar_structure() {
        let mut p = Package::new(2);
        let id = p.identity_medge();
        let sum = p.add(id, id).unwrap();
        // I + I = 2I: same node, weight 2.
        assert_eq!(sum.node, id.node);
        assert!(p.weight_value(sum.weight).approx_eq(Complex::real(2.0)));
    }

    #[test]
    fn mul_against_dense_includes_phases() {
        let mut c = Circuit::new(3);
        c.h(0)
            .t(0)
            .cx(0, 2)
            .rz(0.9, 2)
            .ccx(0, 1, 2)
            .sdg(1)
            .swap(0, 1);
        let mut p = Package::new(3);
        let u = build(&mut p, &c);
        assert!(p.to_matrix(u).approx_eq(&qcirc::dense::unitary(&c)));
    }

    #[test]
    fn basis_vector_amplitudes() {
        let mut p = Package::new(3);
        let v = p.basis_vedge(0b101).unwrap();
        assert!(p.amplitude(v, 0b101).approx_one());
        assert!(p.amplitude(v, 0b001).approx_zero());
        let dense = p.to_statevector(v);
        assert_eq!(dense.len(), 8);
        assert!(dense[5].approx_one());
    }

    #[test]
    fn dd_simulation_matches_statevector_simulation() {
        let sim = qsim::Simulator::new();
        for seed in 0..3 {
            let c = generators::random_clifford_t(5, 60, seed);
            let mut p = Package::new(5);
            for basis in [0u64, 9, 31] {
                let v = p.apply_to_basis(&c, basis).unwrap();
                let expect = sim.run_basis(&c, basis);
                let got = p.to_statevector(v);
                for (a, b) in got.iter().zip(expect.amplitudes()) {
                    assert!(a.approx_eq(*b), "seed {seed} basis {basis}");
                }
            }
        }
    }

    #[test]
    fn dd_simulation_of_ghz_is_compact() {
        let mut p = Package::new(10);
        let v = p.apply_to_basis(&generators::ghz(10), 0).unwrap();
        let h = qnum::FRAC_1_SQRT_2;
        assert!((p.amplitude(v, 0).abs() - h).abs() < 1e-10);
        assert!((p.amplitude(v, (1 << 10) - 1).abs() - h).abs() < 1e-10);
        // GHZ states are linear chains; even counting every intermediate
        // state of the simulation the node count stays far below 2¹⁰.
        assert!(
            p.stats().vector_nodes < 300,
            "got {}",
            p.stats().vector_nodes
        );
    }

    #[test]
    fn inner_product_matches_dense() {
        let sim = qsim::Simulator::new();
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.x(2);
        let mut p = Package::new(4);
        let va = p.apply_to_basis(&g, 3).unwrap();
        let vb = p.apply_to_basis(&buggy, 3).unwrap();
        let ip_dd = p.inner_product(va, vb);
        let sa = sim.run_basis(&g, 3);
        let sb = sim.run_basis(&buggy, 3);
        let ip_sv = sa.inner_product(&sb);
        assert!(ip_dd.approx_eq_with(ip_sv, 1e-8));
        // Self inner product is 1.
        assert!(p.inner_product(va, va).approx_one());
    }

    #[test]
    fn node_limit_is_enforced() {
        let mut p = Package::with_node_limit(12, 40);
        // A supremacy-style circuit blows past 40 nodes immediately.
        let c = generators::supremacy_2d(3, 4, 8, 1);
        let err = p.circuit_medge(&c, &Budget::new(None)).unwrap_err();
        assert_eq!(
            err,
            DdCheckAbort::NodeLimit(DdLimitError { node_limit: 40 })
        );
        assert!(err.to_string().contains("node limit"));
        // The package stays usable: once the half-built diagram is
        // collected, a build within the budget comes out right.
        p.compact(&[], &[]);
        let mut c = qcirc::Circuit::new(12);
        c.h(11).t(11).cx(11, 10);
        let mut round_trip = c.clone();
        round_trip.append(&c.inverse());
        let u = build(&mut p, &round_trip);
        assert!(p.is_identity(u));
    }

    #[test]
    fn clear_compute_tables_keeps_results_valid() {
        let mut p = Package::new(3);
        let u1 = build(&mut p, &generators::ghz(3));
        p.clear_compute_tables();
        let u2 = build(&mut p, &generators::ghz(3));
        assert_eq!(u1, u2);
    }

    #[test]
    fn compact_preserves_semantics_and_shrinks() {
        let c = generators::qft(6, true);
        let mut p = Package::new(6);
        let u = build(&mut p, &c);
        let dense_before = p.to_matrix(u);
        let v = p.apply_to_basis(&c, 5).unwrap();
        let amps_before = p.to_statevector(v);
        let before = p.stats();
        let (mroots, vroots) = p.compact(&[u], &[v]);
        let after = p.stats();
        assert!(
            after.matrix_nodes + after.vector_nodes <= before.matrix_nodes + before.vector_nodes
        );
        assert!(p.to_matrix(mroots[0]).approx_eq(&dense_before));
        for (a, b) in p.to_statevector(vroots[0]).iter().zip(amps_before.iter()) {
            assert!(a.approx_eq(*b));
        }
        // Remapped edges stay canonical: rebuilding the circuit after the
        // collection yields the same edge again.
        let u2 = build(&mut p, &c);
        assert_eq!(u2, mroots[0]);
    }

    #[test]
    fn automatic_gc_keeps_long_simulations_bounded() {
        // QFT 32 on a basis state stays a product state; with a tiny GC
        // threshold the arenas must stay far below gate count × height.
        let c = generators::qft(32, false);
        let mut p = Package::new(32);
        p.set_gc_threshold(20_000);
        let v = p.apply_to_basis(&c, 0xDEAD_BEEF).unwrap();
        assert!((p.amplitude(v, 0).abs() - 1.0 / f64::powi(2.0, 16)).abs() < 1e-9);
        let stats = p.stats();
        assert!(
            stats.matrix_nodes + stats.vector_nodes < 60_000,
            "GC failed to bound arenas: {stats:?}"
        );
    }

    #[test]
    fn gc_threshold_accessors() {
        let mut p = Package::new(2);
        p.set_gc_threshold(5000);
        assert_eq!(p.gc_threshold(), 5000);
        assert!(!p.wants_gc());
        p.set_gc_threshold(0); // clamped
        assert!(p.gc_threshold() >= 1024);
    }

    #[test]
    fn stats_grow_with_work() {
        let mut p = Package::new(4);
        let before = p.stats();
        let _ = build(&mut p, &generators::qft(4, false));
        let after = p.stats();
        assert!(after.matrix_nodes > before.matrix_nodes);
        assert!(after.complex_values > before.complex_values);
    }
}

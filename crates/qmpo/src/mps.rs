//! Matrix-product states and operators over `qnum` complex arithmetic.
//!
//! A chain of `n` site tensors `A_q[α, s, β]` (left bond `α`, physical
//! index `s`, right bond `β`) represents either a state (`d = 2`, site `q`
//! ↔ qubit `q`, qubit 0 = least significant bit — the same convention as
//! `qsim` and `qdd`) or an operator (`d = 4`, the fused index
//! `s = 2·row + col` of a 2×2 block, making an MPO just an MPS with a
//! fatter physical leg — one engine serves both).
//!
//! Single-qubit gates contract a `d × d` matrix into one site. Two-qubit
//! gates contract adjacent sites into a `θ` tensor, apply the gate, and
//! re-split by SVD ([`crate::svd`]); at most `χ_max` singular values are
//! kept, the discarded squared weight is accumulated into
//! [`Mps::truncation_error`], and the kept spectrum is renormalized so the
//! chain's norm survives long gate sequences. Non-adjacent pairs are
//! routed together with SWAP splits (which truncate — and count — like any
//! other two-site operation). Gates beyond {1-qubit, singly-controlled,
//! SWAP} are lowered through [`qcirc::decompose::lower_gate_to_elementary`].

use qcirc::{Gate, GateKind};
use qnum::Complex;

use crate::svd::svd;

/// Which side of an operator a gate multiplies onto — the two directions
/// of the alternating check (`E ← E·U` from `G`, `E ← U′†·E` from `G′`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorSide {
    /// Left multiplication `E ← U · E`: the gate acts on the *row* half of
    /// the fused physical index.
    Left,
    /// Right multiplication `E ← E · U`: the gate acts (transposed) on the
    /// *column* half of the fused physical index.
    Right,
}

/// One site tensor, stored as a flattened `(χ_l, d, χ_r)` array with index
/// `((α·d) + s)·χ_r + β`.
#[derive(Debug, Clone)]
struct SiteTensor {
    chi_l: usize,
    chi_r: usize,
    data: Vec<Complex>,
}

impl SiteTensor {
    #[inline]
    fn at(&self, d: usize, l: usize, s: usize, r: usize) -> Complex {
        self.data[(l * d + s) * self.chi_r + r]
    }
}

/// A matrix-product state (physical dimension 2) or matrix-product
/// operator (physical dimension 4) with bounded bond dimension.
///
/// # Examples
///
/// ```
/// use qmpo::Mps;
///
/// let g = qcirc::generators::ghz(3);
/// let mut a = Mps::basis_state(3, 0);
/// for gate in g.gates() {
///     a.apply_gate(gate, 16);
/// }
/// assert_eq!(a.truncation_error(), 0.0); // χ = 2 suffices for GHZ
/// let b = a.clone();
/// assert!((a.inner_product(&b).abs() - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct Mps {
    d: usize,
    sites: Vec<SiteTensor>,
    truncation_error: f64,
    peak_bond: usize,
    route_hops: usize,
}

impl Mps {
    /// The computational basis state `|b⟩` over `n` qubits as a bond-1
    /// product MPS.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn basis_state(n: usize, basis: u64) -> Self {
        assert!(n > 0, "an MPS needs at least one site");
        let sites = (0..n)
            .map(|q| {
                // Qubits past the 64 bits of `basis` start in |0⟩.
                let bit = if q < 64 {
                    ((basis >> q) & 1) as usize
                } else {
                    0
                };
                let mut data = vec![Complex::ZERO; 2];
                data[bit] = Complex::ONE;
                SiteTensor {
                    chi_l: 1,
                    chi_r: 1,
                    data,
                }
            })
            .collect();
        Mps {
            d: 2,
            sites,
            truncation_error: 0.0,
            peak_bond: 1,
            route_hops: 0,
        }
    }

    /// The identity operator over `n` qubits as a bond-1 MPO, normalized
    /// per site by `1/√2` so the whole chain has Frobenius norm exactly 1
    /// — the scaling that keeps 64-qubit checks inside `f64` range
    /// (`‖𝕀‖_F = √2ⁿ` would overflow nothing, but `Tr` comparisons
    /// against it lose all precision).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity_operator(n: usize) -> Self {
        assert!(n > 0, "an MPO needs at least one site");
        let w = Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        let sites = (0..n)
            .map(|_| SiteTensor {
                chi_l: 1,
                chi_r: 1,
                // Fused index s = 2·row + col: entries 0 and 3 are the
                // diagonal of the 2×2 identity block.
                data: vec![w, Complex::ZERO, Complex::ZERO, w],
            })
            .collect();
        Mps {
            d: 4,
            sites,
            truncation_error: 0.0,
            peak_bond: 1,
            route_hops: 0,
        }
    }

    /// Number of sites (qubits).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Physical dimension per site: 2 for states, 4 for operators.
    #[must_use]
    pub fn physical_dim(&self) -> usize {
        self.d
    }

    /// Accumulated truncation error: the sum over every truncating split
    /// of the discarded singular-value weight `Σ σ²_discarded / Σ σ²`.
    /// Exactly `0.0` when every split fit inside `χ_max` — the exactness
    /// certificate the verdict semantics upstream key on.
    #[must_use]
    pub fn truncation_error(&self) -> f64 {
        self.truncation_error
    }

    /// The largest bond dimension that appeared at any point of the
    /// evolution — the engine's working-set analogue of the DD backend's
    /// peak node count.
    #[must_use]
    pub fn peak_bond(&self) -> usize {
        self.peak_bond
    }

    /// Total adjacent-SWAP splits spent routing distant two-qubit gates
    /// next to each other — the dominant cost of long-range gates (each
    /// hop pays a χ-bounded SVD). Consecutive lowered gates on the same
    /// pair share one route, which this counter makes observable.
    #[must_use]
    pub fn route_hops(&self) -> usize {
        self.route_hops
    }

    /// The largest current bond dimension.
    #[must_use]
    pub fn max_bond(&self) -> usize {
        self.sites.iter().map(|t| t.chi_r).max().unwrap_or(1)
    }

    /// Applies one circuit gate to a state MPS (`d = 2`), truncating any
    /// two-site split to `chi_max` kept singular values.
    ///
    /// # Panics
    ///
    /// Panics if this is an operator MPS or a gate qubit is out of range.
    pub fn apply_gate(&mut self, gate: &Gate, chi_max: usize) {
        assert_eq!(self.d, 2, "apply_gate is for state MPS (d = 2)");
        self.apply_resolved(gate, None, chi_max);
    }

    /// Applies one circuit gate to an operator MPO (`d = 4`) from the
    /// given side: `E ← U·E` ([`OperatorSide::Left`]) or `E ← E·U`
    /// ([`OperatorSide::Right`]).
    ///
    /// # Panics
    ///
    /// Panics if this is a state MPS or a gate qubit is out of range.
    pub fn apply_operator_gate(&mut self, gate: &Gate, side: OperatorSide, chi_max: usize) {
        assert_eq!(self.d, 4, "apply_operator_gate is for MPOs (d = 4)");
        self.apply_resolved(gate, Some(side), chi_max);
    }

    /// Resolves a gate into elementary 1-site/2-site applications; `side`
    /// is `None` for states, `Some` for operators.
    fn apply_resolved(&mut self, gate: &Gate, side: Option<OperatorSide>, chi_max: usize) {
        match resolve_gate(gate) {
            ResolvedGate::Identity => {}
            ResolvedGate::One(q, u) => {
                let m: Vec<Complex> = match side {
                    None => u.to_vec(),
                    Some(s) => fuse_one(&u, s),
                };
                self.apply_one_site(q, &m);
            }
            ResolvedGate::Two(a, b, u) => {
                let m: Vec<Complex> = match side {
                    None => u.to_vec(),
                    Some(s) => fuse_two(&u, s),
                };
                self.apply_two_qubit(a, b, &m, chi_max);
            }
            ResolvedGate::Lowered(gates) => {
                // Lowering a multi-controlled gate emits runs of
                // elementary gates on the same qubit pair; flattening the
                // whole sequence first lets consecutive same-pair gates
                // share one SWAP route instead of routing per gate.
                let mut elementary = Vec::new();
                for g in &gates {
                    flatten_elementary(g, &mut elementary);
                }
                self.apply_elementary(&elementary, side, chi_max);
            }
        }
    }

    /// Applies a flattened elementary sequence, merging same-pair
    /// two-site gates into one shared SWAP route: the `(a, b)` pair is
    /// routed adjacent once, every gate of the run applied in sequence,
    /// and the sites routed back once. A run may carry interleaved
    /// one-site gates — on a site outside the displaced `a+1..=b` window
    /// they apply in place, and on `b` itself they apply at the routed
    /// position `a + 1`; either way the applied matrices are identical to
    /// the per-gate path and only the number of routing hops (each a
    /// χ-bounded SVD, the dominant cost of distant gates) drops.
    fn apply_elementary(
        &mut self,
        ops: &[ResolvedGate],
        side: Option<OperatorSide>,
        chi_max: usize,
    ) {
        // An op a route on `(a, b)` can absorb: same-pair two-site gates
        // extend the run; carried one-site gates ride along at a possibly
        // remapped site.
        let absorbable = |op: &ResolvedGate, a: usize, b: usize| match op {
            ResolvedGate::Identity => true,
            ResolvedGate::One(q, _) => *q <= a || *q >= b,
            ResolvedGate::Two(a2, b2, _) => (*a2, *b2) == (a, b),
            ResolvedGate::Lowered(_) => false,
        };
        let mut i = 0;
        while i < ops.len() {
            match &ops[i] {
                ResolvedGate::Identity => i += 1,
                ResolvedGate::One(q, u) => {
                    let m: Vec<Complex> = match side {
                        None => u.to_vec(),
                        Some(s) => fuse_one(u, s),
                    };
                    self.apply_one_site(*q, &m);
                    i += 1;
                }
                ResolvedGate::Two(a, b, _) => {
                    let (a, b) = (*a, *b);
                    assert!(a < b, "two-site matrices are lower-site-major");
                    assert!(b < self.sites.len(), "qubit {b} out of range");
                    // The run ends at the last same-pair two-site gate
                    // reachable through absorbable ops; trailing one-site
                    // gates are left outside (they need no route).
                    let mut run = i + 1;
                    let mut scan = i + 1;
                    while ops.get(scan).is_some_and(|op| absorbable(op, a, b)) {
                        if matches!(ops[scan], ResolvedGate::Two(..)) {
                            run = scan + 1;
                        }
                        scan += 1;
                    }
                    for j in ((a + 1)..b).rev() {
                        self.swap_adjacent(j, chi_max);
                    }
                    for op in &ops[i..run] {
                        match op {
                            ResolvedGate::Identity => {}
                            ResolvedGate::One(q, u) => {
                                let m: Vec<Complex> = match side {
                                    None => u.to_vec(),
                                    Some(s) => fuse_one(u, s),
                                };
                                // While routed, site b lives at a + 1.
                                self.apply_one_site(if *q == b { a + 1 } else { *q }, &m);
                            }
                            ResolvedGate::Two(_, _, u) => {
                                let m: Vec<Complex> = match side {
                                    None => u.to_vec(),
                                    Some(s) => fuse_two(u, s),
                                };
                                self.apply_two_site(a, &m, chi_max);
                            }
                            ResolvedGate::Lowered(_) => unreachable!("sequence was flattened"),
                        }
                    }
                    for j in (a + 1)..b {
                        self.swap_adjacent(j, chi_max);
                    }
                    i = run;
                }
                ResolvedGate::Lowered(_) => unreachable!("sequence was flattened"),
            }
        }
    }

    /// Contracts a `d × d` matrix into site `q`.
    fn apply_one_site(&mut self, q: usize, m: &[Complex]) {
        let d = self.d;
        let t = &mut self.sites[q];
        let mut out = vec![Complex::ZERO; t.data.len()];
        for l in 0..t.chi_l {
            for r in 0..t.chi_r {
                for sp in 0..d {
                    let mut acc = Complex::ZERO;
                    for s in 0..d {
                        acc += m[sp * d + s] * t.data[(l * d + s) * t.chi_r + r];
                    }
                    out[(l * d + sp) * t.chi_r + r] = acc;
                }
            }
        }
        t.data = out;
    }

    /// Applies a two-site matrix (pair index `p = s_a·d + s_b`, `a < b`)
    /// to qubits `(a, b)`, routing them adjacent with SWAP splits first if
    /// needed.
    fn apply_two_qubit(&mut self, a: usize, b: usize, m: &[Complex], chi_max: usize) {
        assert!(a < b, "two-site matrices are lower-site-major");
        assert!(b < self.sites.len(), "qubit {b} out of range");
        // Route site b down to a+1 …
        for j in ((a + 1)..b).rev() {
            self.swap_adjacent(j, chi_max);
        }
        self.apply_two_site(a, m, chi_max);
        // … and back, restoring the original site order.
        for j in (a + 1)..b {
            self.swap_adjacent(j, chi_max);
        }
    }

    /// Swaps the physical legs of adjacent sites `j` and `j+1` via the
    /// generic d-dimensional SWAP permutation (for operators this swaps
    /// both the row and column halves of the fused leg at once).
    fn swap_adjacent(&mut self, j: usize, chi_max: usize) {
        self.route_hops += 1;
        let d = self.d;
        let mut m = vec![Complex::ZERO; d * d * d * d];
        for sa in 0..d {
            for sb in 0..d {
                m[(sb * d + sa) * d * d + (sa * d + sb)] = Complex::ONE;
            }
        }
        self.apply_two_site(j, &m, chi_max);
    }

    /// Core two-site update on adjacent sites `(q, q+1)`: contract to θ,
    /// apply the `d² × d²` matrix, SVD-split with truncation.
    fn apply_two_site(&mut self, q: usize, m: &[Complex], chi_max: usize) {
        assert!(chi_max > 0, "chi_max must be at least 1");
        let d = self.d;
        let (left, right) = (&self.sites[q], &self.sites[q + 1]);
        assert_eq!(left.chi_r, right.chi_l, "bond mismatch");
        let (chi_l, chi_m, chi_r) = (left.chi_l, left.chi_r, right.chi_r);

        // θ[l, s1, s2, r] = Σ_k A[l, s1, k] · B[k, s2, r]
        let mut theta = vec![Complex::ZERO; chi_l * d * d * chi_r];
        for l in 0..chi_l {
            for s1 in 0..d {
                for k in 0..chi_m {
                    let av = left.at(d, l, s1, k);
                    if av == Complex::ZERO {
                        continue;
                    }
                    for s2 in 0..d {
                        for r in 0..chi_r {
                            theta[((l * d + s1) * d + s2) * chi_r + r] +=
                                av * right.at(d, k, s2, r);
                        }
                    }
                }
            }
        }

        // θ′[l, p′, r] = Σ_p m[p′, p] θ[l, p, r] with p = s1·d + s2.
        let dd = d * d;
        let mut theta2 = vec![Complex::ZERO; chi_l * dd * chi_r];
        for l in 0..chi_l {
            for pp in 0..dd {
                for p in 0..dd {
                    let w = m[pp * dd + p];
                    if w == Complex::ZERO {
                        continue;
                    }
                    for r in 0..chi_r {
                        theta2[(l * dd + pp) * chi_r + r] += w * theta[(l * dd + p) * chi_r + r];
                    }
                }
            }
        }

        // Reshape to (l·s1) × (s2·r) and split.
        let rows = chi_l * d;
        let cols = d * chi_r;
        let mut mat = vec![Complex::ZERO; rows * cols];
        for l in 0..chi_l {
            for s1 in 0..d {
                for s2 in 0..d {
                    for r in 0..chi_r {
                        mat[(l * d + s1) * cols + (s2 * chi_r + r)] =
                            theta2[((l * d + s1) * d + s2) * chi_r + r];
                    }
                }
            }
        }
        let (u, sv, vh) = svd(&mat, rows, cols);

        let total: f64 = sv.iter().map(|x| x * x).sum();
        let keep = sv.len().min(chi_max);
        let kept: f64 = sv[..keep].iter().map(|x| x * x).sum();
        if keep < sv.len() && total > 0.0 {
            self.truncation_error += (total - kept) / total;
        }
        // Renormalize the kept spectrum so the chain norm is preserved —
        // exact (`keep == sv.len()`) splits scale by exactly 1.0.
        let scale = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };

        let rank = u.len() / rows;
        let mut a_data = vec![Complex::ZERO; chi_l * d * keep];
        for l in 0..chi_l {
            for s1 in 0..d {
                for k in 0..keep {
                    a_data[(l * d + s1) * keep + k] = u[(l * d + s1) * rank + k];
                }
            }
        }
        let mut b_data = vec![Complex::ZERO; keep * d * chi_r];
        for k in 0..keep {
            let w = sv[k] * scale;
            for s2 in 0..d {
                for r in 0..chi_r {
                    b_data[(k * d + s2) * chi_r + r] = vh[k * cols + (s2 * chi_r + r)] * w;
                }
            }
        }
        self.sites[q] = SiteTensor {
            chi_l,
            chi_r: keep,
            data: a_data,
        };
        self.sites[q + 1] = SiteTensor {
            chi_l: keep,
            chi_r,
            data: b_data,
        };
        self.peak_bond = self.peak_bond.max(keep);
    }

    /// The inner product `⟨self|other⟩` (conjugate-linear in `self`),
    /// contracted left to right through transfer matrices in
    /// `O(n · d · χ³)`. For operator chains this is the Hilbert–Schmidt
    /// inner product `Tr(self† · other)` of the (per-site-normalized)
    /// operators.
    ///
    /// # Panics
    ///
    /// Panics if the chains differ in length or physical dimension.
    #[must_use]
    pub fn inner_product(&self, other: &Mps) -> Complex {
        assert_eq!(self.sites.len(), other.sites.len(), "length mismatch");
        assert_eq!(self.d, other.d, "physical dimension mismatch");
        let d = self.d;
        // m[α, β]: the contraction of all sites left of the cursor.
        let mut m = vec![Complex::ONE];
        let mut rows = 1usize; // χ of self
        let mut cols = 1usize; // χ of other
        for (a, b) in self.sites.iter().zip(&other.sites) {
            // t[α, s, β′] = Σ_β m[α, β] · B[β, s, β′]
            let mut t = vec![Complex::ZERO; rows * d * b.chi_r];
            for al in 0..rows {
                for be in 0..cols {
                    let w = m[al * cols + be];
                    if w == Complex::ZERO {
                        continue;
                    }
                    for s in 0..d {
                        for bp in 0..b.chi_r {
                            t[(al * d + s) * b.chi_r + bp] += w * b.at(d, be, s, bp);
                        }
                    }
                }
            }
            // m′[α′, β′] = Σ_{α,s} conj(A[α, s, α′]) · t[α, s, β′]
            let mut next = vec![Complex::ZERO; a.chi_r * b.chi_r];
            for al in 0..rows {
                for s in 0..d {
                    for ap in 0..a.chi_r {
                        let w = a.at(d, al, s, ap).conj();
                        if w == Complex::ZERO {
                            continue;
                        }
                        for bp in 0..b.chi_r {
                            next[ap * b.chi_r + bp] += w * t[(al * d + s) * b.chi_r + bp];
                        }
                    }
                }
            }
            m = next;
            rows = a.chi_r;
            cols = b.chi_r;
        }
        debug_assert_eq!(m.len(), 1);
        m[0]
    }

    /// The chain's norm `√⟨self|self⟩`.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.inner_product(self).re.max(0.0).sqrt()
    }

    /// The amplitude `⟨basis|self⟩` of one computational basis state
    /// (`d = 2` only) — the MPS analogue of indexing a dense statevector.
    ///
    /// # Panics
    ///
    /// Panics on operator chains.
    #[must_use]
    pub fn amplitude(&self, basis: u64) -> Complex {
        assert_eq!(self.d, 2, "amplitude is for state MPS (d = 2)");
        let mut v = vec![Complex::ONE];
        for (q, t) in self.sites.iter().enumerate() {
            let s = ((basis >> q) & 1) as usize;
            let mut next = vec![Complex::ZERO; t.chi_r];
            for (l, &w) in v.iter().enumerate() {
                if w == Complex::ZERO {
                    continue;
                }
                for (r, slot) in next.iter_mut().enumerate() {
                    *slot += w * t.at(2, l, s, r);
                }
            }
            v = next;
        }
        v[0]
    }
}

/// A gate resolved to the engine's elementary operations.
enum ResolvedGate {
    Identity,
    /// `(qubit, d×d matrix)` in row-major `m[s′·2 + s]` form.
    One(usize, [Complex; 4]),
    /// `(low qubit a, high qubit b, 4×4 matrix)` with pair index
    /// `p = s_a·2 + s_b`.
    Two(usize, usize, [Complex; 16]),
    /// Needs lowering to the elementary basis first.
    Lowered(Vec<Gate>),
}

fn matrix2_entries(kind: &GateKind) -> [Complex; 4] {
    let m = kind
        .base_matrix()
        .expect("1-qubit kinds have a base matrix");
    [m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1)]
}

/// Recursively resolves a gate all the way to elementary operations,
/// appending them to `out` — the flattened form [`Mps::apply_elementary`]
/// scans for same-pair runs.
fn flatten_elementary(gate: &Gate, out: &mut Vec<ResolvedGate>) {
    match resolve_gate(gate) {
        ResolvedGate::Lowered(gates) => {
            for g in &gates {
                flatten_elementary(g, out);
            }
        }
        other => out.push(other),
    }
}

fn resolve_gate(gate: &Gate) -> ResolvedGate {
    let controls = gate.controls();
    match (gate.kind(), controls.len()) {
        (GateKind::I, 0) => ResolvedGate::Identity,
        (_, 0) if gate.width() == 1 => {
            ResolvedGate::One(gate.target(), matrix2_entries(gate.kind()))
        }
        (GateKind::Swap, 0) => {
            let (mut a, mut b) = (gate.targets()[0], gate.targets()[1]);
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let mut m = [Complex::ZERO; 16];
            for sa in 0..2 {
                for sb in 0..2 {
                    m[(sb * 2 + sa) * 4 + (sa * 2 + sb)] = Complex::ONE;
                }
            }
            ResolvedGate::Two(a, b, m)
        }
        (kind, 1) if gate.width() == 2 && kind.base_matrix().is_some() => {
            let (c, t) = (controls[0], gate.target());
            let u = matrix2_entries(kind);
            let (a, b) = (c.min(t), c.max(t));
            let control_is_low = c < t;
            let mut m = [Complex::ZERO; 16];
            for sa in 0..2 {
                for sb in 0..2 {
                    let (sc, st) = if control_is_low { (sa, sb) } else { (sb, sa) };
                    let p = sa * 2 + sb;
                    if sc == 0 {
                        m[p * 4 + p] = Complex::ONE;
                    } else {
                        for stp in 0..2 {
                            let (pa, pb) = if control_is_low { (sa, stp) } else { (stp, sb) };
                            m[(pa * 2 + pb) * 4 + p] = u[stp * 2 + st];
                        }
                    }
                }
            }
            ResolvedGate::Two(a, b, m)
        }
        _ => {
            let mut lowered = Vec::new();
            qcirc::decompose::lower_gate_to_elementary(gate, &mut lowered);
            ResolvedGate::Lowered(lowered)
        }
    }
}

/// Lifts a 1-qubit state matrix onto the fused operator leg: `U ⊗ I₂`
/// (left multiplication, acting on rows) or `I₂ ⊗ Uᵀ` (right
/// multiplication, acting on columns).
fn fuse_one(u: &[Complex; 4], side: OperatorSide) -> Vec<Complex> {
    let mut m = vec![Complex::ZERO; 16];
    for rp in 0..2 {
        for cp in 0..2 {
            for r in 0..2 {
                for c in 0..2 {
                    let w = match side {
                        OperatorSide::Left => {
                            if c == cp {
                                u[rp * 2 + r]
                            } else {
                                Complex::ZERO
                            }
                        }
                        OperatorSide::Right => {
                            if r == rp {
                                u[c * 2 + cp]
                            } else {
                                Complex::ZERO
                            }
                        }
                    };
                    m[(rp * 2 + cp) * 4 + (r * 2 + c)] = w;
                }
            }
        }
    }
    m
}

/// Lifts a 2-qubit state matrix (pair index `p = t_a·2 + t_b`) onto a pair
/// of fused operator legs: a `16 × 16` matrix over `P = s_a·4 + s_b` with
/// `s = 2·row + col` per site.
fn fuse_two(u: &[Complex; 16], side: OperatorSide) -> Vec<Complex> {
    let mut m = vec![Complex::ZERO; 256];
    for rap in 0..2_usize {
        for cap in 0..2_usize {
            for rbp in 0..2_usize {
                for cbp in 0..2_usize {
                    let pp = (rap * 2 + cap) * 4 + (rbp * 2 + cbp);
                    for ra in 0..2_usize {
                        for ca in 0..2_usize {
                            for rb in 0..2_usize {
                                for cb in 0..2_usize {
                                    let p = (ra * 2 + ca) * 4 + (rb * 2 + cb);
                                    let w = match side {
                                        OperatorSide::Left => {
                                            if ca == cap && cb == cbp {
                                                u[(rap * 2 + rbp) * 4 + (ra * 2 + rb)]
                                            } else {
                                                Complex::ZERO
                                            }
                                        }
                                        OperatorSide::Right => {
                                            if ra == rap && rb == rbp {
                                                u[(ca * 2 + cb) * 4 + (cap * 2 + cbp)]
                                            } else {
                                                Complex::ZERO
                                            }
                                        }
                                    };
                                    m[pp * 16 + p] = w;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::{generators, Circuit};

    fn run(circuit: &Circuit, basis: u64, chi: usize) -> Mps {
        let mut mps = Mps::basis_state(circuit.n_qubits(), basis);
        for gate in circuit.gates() {
            mps.apply_gate(gate, chi);
        }
        mps
    }

    fn dense_overlap(circuit: &Circuit, other: &Circuit, basis: u64) -> Complex {
        qsim::Simulator::new().probe_basis(circuit, other, basis)
    }

    #[test]
    fn amplitudes_match_dense_simulation() {
        for (circuit, basis) in [
            (generators::ghz(4), 0u64),
            (generators::qft(4, true), 5),
            (generators::grover(3, 2, 1), 0),
            (generators::random_clifford_t(5, 40, 3), 9),
        ] {
            let mps = run(&circuit, basis, 64);
            assert_eq!(mps.truncation_error(), 0.0, "{}", circuit.name());
            let n = circuit.n_qubits();
            let evolved = qsim::Simulator::new().run(&circuit, &qsim::StateVector::basis(n, basis));
            for k in 0..(1u64 << n) {
                let want = evolved.amplitudes()[k as usize];
                let got = mps.amplitude(k);
                assert!(
                    (want - got).abs() < 1e-9,
                    "{} amp {k}: {want:?} vs {got:?}",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn inner_products_match_dense_probes() {
        let g = generators::qft(4, true);
        let mut buggy = g.clone();
        buggy.t(2);
        for basis in [0u64, 3, 7, 11] {
            let a = run(&g, basis, 64);
            let b = run(&buggy, basis, 64);
            let got = a.inner_product(&b);
            let want = dense_overlap(&g, &buggy, basis);
            assert!(
                (got - want).abs() < 1e-9,
                "basis {basis}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn non_adjacent_and_multi_controlled_gates_route_correctly() {
        // Long-range CX, a Toffoli (lowered), and a long-range SWAP.
        let mut c = Circuit::new(5);
        c.h(0);
        c.cx(0, 4);
        c.ccx(0, 4, 2);
        c.swap(1, 4);
        c.cx(4, 1);
        let mps = run(&c, 0, 64);
        assert_eq!(mps.truncation_error(), 0.0);
        let s = qsim::Simulator::new().run(&c, &qsim::StateVector::basis(5, 0));
        for k in 0..32u64 {
            assert!(
                (mps.amplitude(k) - s.amplitudes()[k as usize]).abs() < 1e-9,
                "amp {k}"
            );
        }
    }

    #[test]
    fn lowered_runs_share_one_swap_route() {
        // A distant Toffoli lowers to a burst of elementary gates, many on
        // the same far-apart pair; the flattened peephole must route each
        // same-pair run adjacent once instead of once per gate.
        let mut c = Circuit::new(6);
        c.h(0);
        c.ccx(0, 5, 2);
        let mps = run(&c, 0, 64);
        // Per-gate routing cost: every two-site gate in the lowered form
        // pays its full round trip.
        let mut per_gate_hops = 0;
        let mut elementary = Vec::new();
        for gate in c.gates() {
            flatten_elementary(gate, &mut elementary);
        }
        for op in &elementary {
            if let ResolvedGate::Two(a, b, _) = op {
                per_gate_hops += 2 * (b - a - 1);
            }
        }
        assert!(
            mps.route_hops() < per_gate_hops,
            "shared routes must beat per-gate routing: {} vs {}",
            mps.route_hops(),
            per_gate_hops
        );
        // The optimization is a pure routing change: the evolved state is
        // still exact and matches the dense reference.
        assert_eq!(mps.truncation_error(), 0.0);
        let s = qsim::Simulator::new().run(&c, &qsim::StateVector::basis(6, 0));
        for k in 0..64u64 {
            assert!(
                (mps.amplitude(k) - s.amplitudes()[k as usize]).abs() < 1e-9,
                "amp {k}"
            );
        }
    }

    #[test]
    fn truncation_accumulates_and_is_reported() {
        // A volume-law circuit at χ = 2 must truncate.
        let g = generators::supremacy_2d(2, 3, 8, 1);
        let mps = run(&g, 0, 2);
        assert!(mps.truncation_error() > 0.0);
        assert!(mps.max_bond() <= 2);
        // Per-split renormalization keeps the state usable: the global
        // norm drifts (the chain is not kept in canonical form, so a
        // split only preserves the local θ norm) but stays O(1) instead
        // of decaying exponentially with the number of truncations.
        let norm = mps.norm();
        assert!(norm.is_finite() && norm > 0.2 && norm < 5.0, "norm {norm}");
    }

    #[test]
    fn peak_bond_tracks_entanglement() {
        let mps = run(&generators::qft(6, true), 21, 64);
        assert!(mps.peak_bond() >= mps.max_bond());
        assert!(mps.peak_bond() <= 8, "QFT bond stays modest");
    }

    #[test]
    fn operator_sides_reproduce_matrix_products() {
        // Build E = U_G as an MPO by right-multiplying G's gates in
        // reverse, then check Tr(E†E)-normalized overlap against identity
        // behaviour: applying G then G† from the left must return to 𝕀.
        let g = generators::random_clifford_t(3, 25, 7);
        let mut e = Mps::identity_operator(3);
        for gate in g.gates().iter().rev() {
            e.apply_operator_gate(gate, OperatorSide::Right, 64);
        }
        // Peel U† off from the left, back-to-front like the alternating
        // check: the last-built (leftmost) factor must be removed first.
        for gate in g.gates().iter().rev() {
            e.apply_operator_gate(&gate.inverse(), OperatorSide::Left, 64);
        }
        assert_eq!(e.truncation_error(), 0.0);
        let id = Mps::identity_operator(3);
        let t = id.inner_product(&e) / e.norm();
        assert!((t - Complex::ONE).abs() < 1e-8, "t = {t:?}");
    }

    #[test]
    fn determinism_is_bitwise() {
        let g = generators::supremacy_2d(2, 3, 6, 2);
        let a = run(&g, 3, 4);
        let b = run(&g, 3, 4);
        // Conjugate symmetry holds to rounding (summation orders differ) …
        assert!((a.inner_product(&b) - b.inner_product(&a).conj()).abs() < 1e-12);
        assert!(a.truncation_error() == b.truncation_error());
        // … but identical evolutions are bitwise identical.
        let (x, y) = (run(&g, 3, 4), run(&g, 3, 4));
        assert_eq!(x.inner_product(&a), y.inner_product(&b));
    }
}

//! The Aaronson–Gottesman stabilizer tableau (CHP, quant-ph/0406196).
//!
//! An `n`-qubit stabilizer state is represented by `2n` Pauli rows — `n`
//! destabilizers followed by `n` stabilizers — each a sign bit plus `x`/`z`
//! bit vectors. Clifford gates update the tableau in `O(n)`;
//! measurement in `O(n²)`. Everything here is exact (no floating point).

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

/// A stabilizer state on `n` qubits.
///
/// # Examples
///
/// ```
/// use qstab::Tableau;
///
/// let mut t = Tableau::new(2);
/// t.h(0);
/// t.cx(0, 1); // Bell pair
/// assert_eq!(t.measure_probability_of_one(0), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    n: usize,
    /// Row-major bit matrices: `x[i][q]`, `z[i][q]` for row `i < 2n`.
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    /// Sign bits (`true` = −1).
    r: Vec<bool>,
}

impl Tableau {
    /// Creates the tableau of `|0…0⟩`: destabilizers `Xᵢ`, stabilizers `Zᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a tableau needs at least one qubit");
        let mut x = vec![vec![false; n]; 2 * n];
        let mut z = vec![vec![false; n]; 2 * n];
        let r = vec![false; 2 * n];
        for q in 0..n {
            x[q][q] = true; // destabilizer X_q
            z[n + q][q] = true; // stabilizer Z_q
        }
        Tableau { n, x, z, r }
    }

    /// Creates the tableau of the computational basis state `|bits⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bits ≥ 2ⁿ`.
    #[must_use]
    pub fn basis(n: usize, bits: u64) -> Self {
        assert!(n >= 64 || bits < (1u64 << n), "basis state out of range");
        let mut t = Tableau::new(n);
        // Qubits past the 64 bits of `bits` start in |0⟩.
        for q in 0..n.min(64) {
            if (bits >> q) & 1 == 1 {
                t.x_gate(q);
            }
        }
        t
    }

    /// The number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    // ---- gates ---------------------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q] & self.z[i][q];
            std::mem::swap(&mut self.x[i][q], &mut self.z[i][q]);
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q] & self.z[i][q];
            self.z[i][q] ^= self.x[i][q];
        }
    }

    /// Inverse phase gate S† on `q` (S applied three times).
    pub fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// Pauli-X on `q`.
    pub fn x_gate(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.z[i][q];
        }
    }

    /// Pauli-Z on `q`.
    pub fn z_gate(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q];
        }
    }

    /// Pauli-Y on `q` (`Y = iXZ`; the phases cancel in the tableau).
    pub fn y_gate(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q] ^ self.z[i][q];
        }
    }

    /// √X on `q` (`√X = H·S·H` up to global phase).
    pub fn sx(&mut self, q: usize) {
        self.h(q);
        self.s(q);
        self.h(q);
    }

    /// √X† on `q`.
    pub fn sxdg(&mut self, q: usize) {
        self.h(q);
        self.sdg(q);
        self.h(q);
    }

    /// √Y on `q` — as a Clifford map `X ↦ −Z, Z ↦ X`, i.e. `Z` then `H`.
    pub fn sy(&mut self, q: usize) {
        self.z_gate(q);
        self.h(q);
    }

    /// √Y† on `q` (`H` then `Z`).
    pub fn sydg(&mut self, q: usize) {
        self.h(q);
        self.z_gate(q);
    }

    /// CNOT with control `c`, target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either is out of range.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.check(c);
        self.check(t);
        assert_ne!(c, t, "control equals target");
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][c] & self.z[i][t] & (self.x[i][t] ^ self.z[i][c] ^ true);
            self.x[i][t] ^= self.x[i][c];
            self.z[i][c] ^= self.z[i][t];
        }
    }

    /// Controlled-Z (`H(t) · CX · H(t)`).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// SWAP (three CNOTs).
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
    }

    // ---- measurement -----------------------------------------------------------

    /// The probability that measuring qubit `q` yields 1:
    /// `Some(0.0 | 0.5 | 1.0)` — stabilizer measurements are always one of
    /// these.
    #[must_use]
    pub fn measure_probability_of_one(&self, q: usize) -> Option<f64> {
        self.check(q);
        // Random outcome iff some stabilizer anticommutes with Z_q (has x
        // bit set at q).
        let random = (self.n..2 * self.n).any(|i| self.x[i][q]);
        if random {
            return Some(0.5);
        }
        // Deterministic: compute the sign of Z_q as a product of
        // stabilizers (standard 2n-row scratch rowsum).
        let mut scratch = PauliRow::identity(self.n);
        for i in 0..self.n {
            if self.x[i][q] {
                // Destabilizer i anticommutes with Z_q → stabilizer i
                // participates in the product.
                scratch.mul_assign(&self.row(self.n + i));
            }
        }
        Some(if scratch.sign { 1.0 } else { 0.0 })
    }

    /// Measures qubit `q`, collapsing the state; returns the outcome bit.
    pub fn measure(&mut self, q: usize, rng: &mut StdRng) -> bool {
        self.check(q);
        let p = (self.n..2 * self.n).find(|&i| self.x[i][q]);
        match p {
            Some(p) => {
                // Random outcome.
                let outcome: bool = rng.gen();
                // All other rows anticommuting with Z_q get multiplied by
                // row p.
                let row_p = self.row(p);
                for i in 0..2 * self.n {
                    if i != p && self.x[i][q] {
                        let mut acc = self.row(i);
                        acc.mul_assign(&row_p);
                        if i < self.n {
                            // Destabilizer signs are irrelevant bookkeeping
                            // (the paired destabilizer anticommutes with
                            // row p and picks up a meaningless ±i).
                            acc.sign = false;
                            acc.imaginary = false;
                        }
                        self.set_row(i, &acc);
                    }
                }
                // Destabilizer p−n gets the old stabilizer row; stabilizer
                // p becomes ±Z_q.
                let old = self.row(p);
                self.set_row(p - self.n, &old);
                let mut zrow = PauliRow::identity(self.n);
                zrow.z[q] = true;
                zrow.sign = outcome;
                self.set_row(p, &zrow);
                outcome
            }
            None => {
                // Deterministic.
                self.measure_probability_of_one(q)
                    .expect("deterministic branch")
                    > 0.5
            }
        }
    }

    // ---- canonical form & equality ---------------------------------------------

    /// Brings the *stabilizer half* into a canonical reduced row-echelon
    /// form (destabilizers are discarded), so two tableaus describe the
    /// same state iff their canonical stabilizer rows are identical.
    #[must_use]
    pub fn canonical_stabilizers(&self) -> Vec<PauliRow> {
        let mut rows: Vec<PauliRow> = (self.n..2 * self.n).map(|i| self.row(i)).collect();
        let n = self.n;
        let mut pivot = 0usize;
        // First sweep: X (and Y) pivots, column by column.
        for q in 0..n {
            if let Some(found) = (pivot..n).find(|&i| rows[i].x[q]) {
                rows.swap(pivot, found);
                for i in 0..n {
                    if i != pivot && rows[i].x[q] {
                        let (a, b) = pick_two(&mut rows, i, pivot);
                        a.mul_assign(b);
                    }
                }
                pivot += 1;
            }
        }
        // Second sweep: Z pivots among the remaining rows (which are X-free
        // after the first sweep). The pivot row has no X bits, so
        // multiplying any row by it preserves the X echelon — eliminate the
        // Z bit from *every* other row for a unique form.
        for q in 0..n {
            if let Some(found) = (pivot..n).find(|&i| rows[i].z[q]) {
                debug_assert!(rows[found].x.iter().all(|&b| !b));
                rows.swap(pivot, found);
                for i in 0..n {
                    if i != pivot && rows[i].z[q] && !rows[i].x[q] {
                        let (a, b) = pick_two(&mut rows, i, pivot);
                        a.mul_assign(b);
                    }
                }
                pivot += 1;
            }
        }
        rows
    }

    /// Returns `true` if the signed Pauli `p` stabilizes this state
    /// (`p|ψ⟩ = |ψ⟩`), via Gaussian reduction against the echelonized
    /// stabilizer generators.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s qubit count differs.
    #[must_use]
    pub fn stabilizes(&self, p: &PauliRow) -> bool {
        assert_eq!(p.x.len(), self.n, "Pauli row qubit count differs");
        reduces_to_identity(&self.canonical_stabilizers(), p)
    }

    /// Returns `true` if the two tableaus describe the same quantum state:
    /// every stabilizer generator of `other` stabilizes `self` (mutual
    /// stabilization; both groups have full rank `n`, so one-sided
    /// containment is equality). Global phase is not represented by
    /// stabilizer states, so this is equality up to global phase.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    #[must_use]
    pub fn same_state(&self, other: &Tableau) -> bool {
        assert_eq!(self.n, other.n, "qubit counts differ");
        let mine = self.canonical_stabilizers();
        other
            .canonical_stabilizers()
            .iter()
            .all(|row| reduces_to_identity(&mine, row))
    }

    /// Finds a stabilizer generator of `self` that does *not* stabilize
    /// `other` — a measurable witness distinguishing the states (measuring
    /// this Pauli yields +1 on `self` with certainty but not on `other`).
    #[must_use]
    pub fn distinguishing_pauli(&self, other: &Tableau) -> Option<PauliRow> {
        let theirs = other.canonical_stabilizers();
        self.canonical_stabilizers()
            .into_iter()
            .find(|row| !reduces_to_identity(&theirs, row))
    }

    fn row(&self, i: usize) -> PauliRow {
        PauliRow {
            x: self.x[i].clone(),
            z: self.z[i].clone(),
            sign: self.r[i],
            imaginary: false,
        }
    }

    fn set_row(&mut self, i: usize, row: &PauliRow) {
        debug_assert!(!row.imaginary, "tableau rows always carry real phases");
        self.x[i] = row.x.clone();
        self.z[i] = row.z.clone();
        self.r[i] = row.sign;
    }
}

impl fmt::Display for Tableau {
    /// Renders the stabilizer generators, one per line (e.g. `+XXI`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in self.n..2 * self.n {
            if i > self.n {
                writeln!(f)?;
            }
            write!(f, "{}", self.row(i))?;
        }
        Ok(())
    }
}

/// One phased Pauli operator (a tableau row): prefactor `i^phase ∈ {1, i, −1, −i}`.
///
/// Rows of a tableau and group-internal products always carry real phases
/// (`sign` ∈ {+1, −1}); imaginary phases only arise transiently when
/// reducing a *non-member* Pauli during the [`Tableau::stabilizes`] test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliRow {
    /// X bits per qubit.
    pub x: Vec<bool>,
    /// Z bits per qubit.
    pub z: Vec<bool>,
    /// `true` = the real part of the prefactor is −1 (phase 2 or 3).
    pub sign: bool,
    /// `true` = the prefactor is imaginary (phase 1 or 3).
    pub imaginary: bool,
}

impl PauliRow {
    /// The identity row.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        PauliRow {
            x: vec![false; n],
            z: vec![false; n],
            sign: false,
            imaginary: false,
        }
    }

    /// Multiplies `other` into `self`, tracking the full `i^phase`
    /// prefactor via the standard `g`-function bookkeeping. Products of
    /// commuting Paulis stay real; anticommuting products pick up ±i
    /// (which marks a non-member during [`Tableau::stabilizes`]).
    pub fn mul_assign(&mut self, other: &PauliRow) {
        // Phase exponent of i accumulated per qubit.
        let mut phase = 0i32; // modulo 4
        for q in 0..self.x.len() {
            phase += g(self.x[q], self.z[q], other.x[q], other.z[q]);
            self.x[q] ^= other.x[q];
            self.z[q] ^= other.z[q];
        }
        phase += 2 * i32::from(self.sign) + i32::from(self.imaginary);
        phase += 2 * i32::from(other.sign) + i32::from(other.imaginary);
        let phase = phase.rem_euclid(4);
        self.sign = phase == 2 || phase == 3;
        self.imaginary = phase == 1 || phase == 3;
    }
}

impl fmt::Display for PauliRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.sign, self.imaginary) {
            (false, false) => write!(f, "+")?,
            (true, false) => write!(f, "-")?,
            (false, true) => write!(f, "+i")?,
            (true, true) => write!(f, "-i")?,
        }
        // Most significant qubit first, matching ket labels.
        for q in (0..self.x.len()).rev() {
            let c = match (self.x[q], self.z[q]) {
                (false, false) => 'I',
                (true, false) => 'X',
                (false, true) => 'Z',
                (true, true) => 'Y',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Reduces `p` against echelonized generator rows and reports whether the
/// residue is the (+1-phased) identity — i.e. whether `p` belongs to the
/// generated group with positive sign.
fn reduces_to_identity(rows: &[PauliRow], p: &PauliRow) -> bool {
    let mut p = p.clone();
    for row in rows {
        if let Some(q) = row.x.iter().position(|&b| b) {
            if p.x[q] {
                p.mul_assign(row);
            }
        } else if let Some(q) = row.z.iter().position(|&b| b) {
            if p.z[q] {
                p.mul_assign(row);
            }
        }
    }
    p.x.iter().all(|&b| !b) && p.z.iter().all(|&b| !b) && !p.sign && !p.imaginary
}

/// Aaronson–Gottesman `g(x1, z1, x2, z2)`: the exponent of `i` produced
/// when multiplying the single-qubit Paulis `(x1 z1) · (x2 z2)`.
fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    match (x1, z1) {
        (false, false) => 0,
        // X · P
        (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
        // Z · P
        (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
        // Y · P
        (true, true) => i32::from(z2) - i32::from(x2),
    }
}

fn pick_two<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = slice.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = slice.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_state_stabilizers() {
        let t = Tableau::new(2);
        assert_eq!(t.to_string(), "+IZ\n+ZI");
        assert_eq!(t.measure_probability_of_one(0), Some(0.0));
        assert_eq!(t.measure_probability_of_one(1), Some(0.0));
    }

    #[test]
    fn basis_state_signs() {
        let t = Tableau::basis(2, 0b10);
        assert_eq!(t.measure_probability_of_one(0), Some(0.0));
        assert_eq!(t.measure_probability_of_one(1), Some(1.0));
    }

    #[test]
    fn plus_state_is_random() {
        let mut t = Tableau::new(1);
        t.h(0);
        assert_eq!(t.measure_probability_of_one(0), Some(0.5));
    }

    #[test]
    fn bell_pair_correlations() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        assert_eq!(t.measure_probability_of_one(0), Some(0.5));
        // Measure qubit 0; qubit 1 must then be deterministic and equal.
        let mut rng = StdRng::seed_from_u64(5);
        let bit = t.measure(0, &mut rng);
        let p1 = t.measure_probability_of_one(1).unwrap();
        assert_eq!(p1 > 0.5, bit);
    }

    #[test]
    fn gate_identities_hold() {
        // HH = I, SSSS = I, XX = I, CZ symmetric.
        let reference = Tableau::basis(2, 0b01);
        let mut t = reference.clone();
        t.h(0);
        t.h(0);
        assert!(t.same_state(&reference));
        let mut t = reference.clone();
        for _ in 0..4 {
            t.s(1);
        }
        assert!(t.same_state(&reference));
        let mut a = reference.clone();
        let mut b = reference.clone();
        a.h(0);
        a.h(1);
        a.cz(0, 1);
        b.h(0);
        b.h(1);
        b.cz(1, 0);
        assert!(a.same_state(&b));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::basis(3, 0b001);
        t.swap(0, 2);
        assert_eq!(t.measure_probability_of_one(0), Some(0.0));
        assert_eq!(t.measure_probability_of_one(2), Some(1.0));
    }

    #[test]
    fn y_equals_sxs_up_to_phase() {
        // Y = S·X·S† as states (global phase invisible to stabilizers).
        let mut a = Tableau::basis(1, 0);
        a.h(0); // make it non-trivial
        let mut b = a.clone();
        a.y_gate(0);
        b.sdg(0);
        b.x_gate(0);
        b.s(0);
        assert!(a.same_state(&b));
    }

    #[test]
    fn canonical_form_is_stable_under_row_mixing() {
        // GHZ built two different ways gives identical canonical rows.
        let mut a = Tableau::new(3);
        a.h(0);
        a.cx(0, 1);
        a.cx(1, 2);
        let mut b = Tableau::new(3);
        b.h(0);
        b.cx(0, 2);
        b.cx(0, 1);
        assert!(a.same_state(&b));
        let mut c = Tableau::new(3);
        c.h(2);
        c.cx(2, 1);
        c.cx(1, 0);
        assert!(a.same_state(&c));
    }

    #[test]
    fn different_states_are_distinguished() {
        let mut a = Tableau::new(2);
        a.h(0);
        a.cx(0, 1);
        let mut b = a.clone();
        b.z_gate(1); // |00⟩ − |11⟩ vs |00⟩ + |11⟩
        assert!(!a.same_state(&b));
        let mut c = a.clone();
        c.x_gate(0);
        assert!(!a.same_state(&c));
    }

    #[test]
    fn measurement_collapse_is_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..10u64 {
            let mut t = Tableau::new(4);
            t.h(0);
            t.cx(0, 1);
            t.cx(1, 2);
            t.cx(2, 3);
            let _ = seed;
            let b0 = t.measure(0, &mut rng);
            // GHZ: all qubits now deterministic and equal to b0.
            for q in 1..4 {
                assert_eq!(
                    t.measure_probability_of_one(q),
                    Some(if b0 { 1.0 } else { 0.0 })
                );
            }
        }
    }

    #[test]
    fn pauli_row_products() {
        // X · Z = −iY → as stabilizer-group elements only ±1 phases occur;
        // check Y·Y = I and Z·Z = I bookkeeping instead.
        let n = 1;
        let mut y = PauliRow::identity(n);
        y.x[0] = true;
        y.z[0] = true;
        let y2 = y.clone();
        y.mul_assign(&y2);
        assert_eq!(y, PauliRow::identity(n));
        let mut z = PauliRow::identity(n);
        z.z[0] = true;
        let z2 = z.clone();
        z.mul_assign(&z2);
        assert_eq!(z, PauliRow::identity(n));
    }

    #[test]
    fn display_renders_paulis() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        let text = t.to_string();
        assert!(text.contains("XX"));
        assert!(text.contains("ZZ"));
    }
}

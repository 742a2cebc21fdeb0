//! Gate-application kernels on state vectors.
//!
//! Index convention: qubit `q` is bit `q` of the amplitude index.
//!
//! Every kernel is one walk over *runs*. A gate pins some index bits — its
//! controls and targets — so the amplitudes below the lowest pinned bit
//! share every pinned bit and sit in one contiguous run of
//! `2^(lowest pinned bit)` amplitudes. The walk visits only the runs whose
//! controls hold (skipping the others wholesale) and hands each `(lo, hi)`
//! run pair to a row primitive: a 2×2 rotation, a diagonal scale or a
//! swap. Each run takes the widest SIMD row loop whose register it fills
//! (AVX-512 holds four complex values, AVX2 two); runs shorter than a
//! register take the scalar loop, and a run of one amplitude is indexed in
//! place. Per amplitude the floating-point operations are the same on
//! every path, so results are bit-identical whatever the run length or
//! CPU.

use qnum::{Complex, Matrix2};

/// Applies a single-qubit gate `m` to `target` in `amps`, restricted to
/// amplitudes whose `control_mask` bits are all set (pass 0 for no
/// controls).
///
/// Diagonal gates (off-diagonal entries within tolerance of zero) scale
/// each amplitude once, and leave the target-`0` half untouched when its
/// entry is within tolerance of one. Every other gate, X included, is a
/// full 2×2 rotation: a swap shortcut for X would differ from it in the
/// sign of some zero amplitudes.
///
/// # Panics
///
/// Panics if an index the gate touches lies outside `amps`; in debug
/// builds also if `target`'s bit overlaps `control_mask` or `amps` does
/// not hold `2ⁿ` amplitudes.
pub fn apply_controlled_single(
    amps: &mut [Complex],
    control_mask: usize,
    target: usize,
    m: &Matrix2,
) {
    let bt = 1usize << target;
    debug_assert_eq!(control_mask & bt, 0, "target overlaps controls");
    debug_assert!(amps.len().is_power_of_two(), "a state holds 2ⁿ amplitudes");
    let pinned = control_mask | bt;
    let len = run_len(pinned);
    let isa = lane_simd::for_row(len);
    let (m00, m01, m10, m11) = (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1));
    // A run of one amplitude (qubit 0 pinned) is indexed directly: slicing
    // it costs more than the arithmetic.
    if m01.approx_zero() && m10.approx_zero() {
        let d0_is_one = m00.approx_one();
        for_each_run(amps.len(), pinned, control_mask, |lo| {
            if len == 1 {
                if !d0_is_one {
                    amps[lo] *= m00;
                }
                amps[lo | bt] *= m11;
            } else {
                let (lo, hi) = run_pair(amps, lo, lo | bt, len);
                if !d0_is_one {
                    lane_simd::scale_row(isa, lo, m00);
                }
                lane_simd::scale_row(isa, hi, m11);
            }
        });
    } else {
        for_each_run(amps.len(), pinned, control_mask, |lo| {
            if len == 1 {
                let hi = lo | bt;
                let (x0, x1) = (amps[lo], amps[hi]);
                amps[lo] = m00 * x0 + m01 * x1;
                amps[hi] = m10 * x0 + m11 * x1;
            } else {
                let (lo, hi) = run_pair(amps, lo, lo | bt, len);
                lane_simd::rotate_rows(isa, lo, hi, m00, m01, m10, m11);
            }
        });
    }
}

/// Applies a (possibly controlled) SWAP of qubits `a` and `b` in `amps`,
/// exchanging amplitudes exactly.
///
/// # Panics
///
/// Panics if an index the gate touches lies outside `amps`; in debug
/// builds also if `a == b`, either target overlaps the control mask, or
/// `amps` does not hold `2ⁿ` amplitudes.
pub fn apply_controlled_swap(amps: &mut [Complex], control_mask: usize, a: usize, b: usize) {
    let (ba, bb) = (1usize << a, 1usize << b);
    debug_assert_ne!(a, b, "swap targets must differ");
    debug_assert_eq!(control_mask & (ba | bb), 0, "swap targets overlap controls");
    debug_assert!(amps.len().is_power_of_two(), "a state holds 2ⁿ amplitudes");
    let pinned = control_mask | ba | bb;
    let len = run_len(pinned);
    // Visit each swapped pair once, from the run with the higher swap bit
    // set and the lower one clear; its partner flips both, so lies below.
    for_each_run(amps.len(), pinned, control_mask | ba.max(bb), |high| {
        let low = high ^ ba ^ bb;
        if len == 1 {
            amps.swap(low, high);
        } else {
            let (lo, hi) = run_pair(amps, low, high, len);
            lo.swap_with_slice(hi);
        }
    });
}

/// The run length of a gate pinning the index bits `pinned`: the
/// amplitudes below the lowest pinned bit.
fn run_len(pinned: usize) -> usize {
    pinned & pinned.wrapping_neg()
}

/// Calls `visit`, in ascending order, with the first amplitude index of
/// every run whose `pinned` bits equal `set`. A run is the
/// `2^(lowest pinned bit)` consecutive amplitudes below the lowest pinned
/// bit; runs whose pinned bits differ from `set` are never visited.
#[inline(always)]
fn for_each_run(dim: usize, pinned: usize, set: usize, mut visit: impl FnMut(usize)) {
    let run = pinned & pinned.wrapping_neg();
    // The index bits that differ between visited runs.
    let free = (dim - 1) & !pinned & !(run - 1);
    let mut offset = 0usize;
    loop {
        visit(set | offset);
        if offset == free {
            return;
        }
        // The next larger subset of the bits in `free`.
        offset = offset.wrapping_sub(free) & free;
    }
}

/// The disjoint runs `amps[lo..lo + len]` and `amps[hi..hi + len]`, for
/// `lo + len <= hi`.
#[inline(always)]
fn run_pair(
    amps: &mut [Complex],
    lo: usize,
    hi: usize,
    len: usize,
) -> (&mut [Complex], &mut [Complex]) {
    let (head, tail) = amps.split_at_mut(hi);
    (&mut head[lo..lo + len], &mut tail[..len])
}

/// Vectorized row loops for the kernels' run pairs.
///
/// A row is a run of consecutive [`Complex`] values — with `repr(C)` that
/// is interleaved `[re, im]` pairs, so one AVX-512 register holds four of
/// them and one AVX2 register holds two. The instruction set is detected
/// once per gate ([`for_row`]) and every vector path uses only IEEE
/// multiply/add/subtract (plus sign-bit flips, which are exact) — never
/// fused multiply-add — in the same operand order as the scalar loop, so
/// every amplitude gets the same bits on every path and every CPU.
mod lane_simd {
    use qnum::Complex;

    /// A row-loop instruction set. Only [`for_row`] (and, in tests,
    /// `supported`) hand out the vector variants, and only when the CPU
    /// has them.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(super) enum Isa {
        #[cfg(target_arch = "x86_64")]
        Avx512,
        #[cfg(target_arch = "x86_64")]
        Avx2,
        Scalar,
    }

    /// The widest instruction set whose register a row of `len` complex
    /// values fills (AVX-512 holds four, AVX2 two); shorter rows, and CPUs
    /// without either, take the scalar loop. The `std` detection macro
    /// caches its CPUID probe, so calling this once per gate is cheap.
    #[inline]
    pub(super) fn for_row(len: usize) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if len >= 4 && is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if len >= 2 && is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }

    /// Every instruction set the CPU supports, widest first, so tests can
    /// run each row loop and not only the one [`for_row`] picks.
    #[cfg(test)]
    pub(super) fn supported() -> Vec<Isa> {
        let mut isas = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
        }
        isas.push(Isa::Scalar);
        isas
    }

    /// Applies the 2×2 rotation `[m00 m01; m10 m11]` to every amplitude
    /// pair `(lo[j], hi[j])`.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    #[inline]
    pub(super) fn rotate_rows(
        isa: Isa,
        lo: &mut [Complex],
        hi: &mut [Complex],
        m00: Complex,
        m01: Complex,
        m10: Complex,
        m11: Complex,
    ) {
        assert_eq!(lo.len(), hi.len(), "rotated rows differ in length");
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `for_row` and `supported` produce this variant,
            // and only when the CPU supports it; the rows have equal
            // lengths, so the loop's reads and writes of `hi` stay in
            // bounds.
            Isa::Avx512 => unsafe { x86::rotate_rows_avx512(lo, hi, m00, m01, m10, m11) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { x86::rotate_rows_avx2(lo, hi, m00, m01, m10, m11) },
            Isa::Scalar => rotate_rows_scalar(lo, hi, m00, m01, m10, m11),
        }
    }

    /// Multiplies every amplitude of `row` by the diagonal entry `d`.
    #[inline]
    pub(super) fn scale_row(isa: Isa, row: &mut [Complex], d: Complex) {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `for_row` and `supported` produce this variant,
            // and only when the CPU supports it.
            Isa::Avx512 => unsafe { x86::scale_row_avx512(row, d) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx2 => unsafe { x86::scale_row_avx2(row, d) },
            Isa::Scalar => scale_row_scalar(row, d),
        }
    }

    #[inline]
    fn rotate_rows_scalar(
        lo: &mut [Complex],
        hi: &mut [Complex],
        m00: Complex,
        m01: Complex,
        m10: Complex,
        m11: Complex,
    ) {
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x0, x1) = (*a0, *a1);
            *a0 = m00 * x0 + m01 * x1;
            *a1 = m10 * x0 + m11 * x1;
        }
    }

    #[inline]
    fn scale_row_scalar(row: &mut [Complex], d: Complex) {
        for a in row {
            *a *= d;
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::{rotate_rows_scalar, scale_row_scalar};
        use qnum::Complex;
        use std::arch::x86_64::{
            __m256d, __m512d, _mm256_add_pd, _mm256_castpd_si256, _mm256_castsi256_pd,
            _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_pd,
            _mm256_storeu_pd, _mm256_xor_si256, _mm512_add_pd, _mm512_castpd_si512,
            _mm512_castsi512_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_permute_pd, _mm512_set1_pd,
            _mm512_set_pd, _mm512_storeu_pd, _mm512_xor_si512,
        };

        /// Complex multiply of a broadcast scalar `s` by the interleaved
        /// amplitudes in `x` (512-bit: four lanes).
        ///
        /// Per slot pair this computes exactly
        /// `(s.re·x.re − s.im·x.im, s.re·x.im + s.im·x.re)` — the scalar
        /// [`Complex`] product up to IEEE mul/add commutativity, with the
        /// subtraction expressed as an exact sign-bit flip plus add.
        #[inline(always)]
        unsafe fn cmul_broadcast_avx512(
            s_re: __m512d,
            s_im: __m512d,
            neg_even: __m512d,
            x: __m512d,
        ) -> __m512d {
            // [im, re] per lane, for the cross terms.
            let x_swap = _mm512_permute_pd::<0b01010101>(x);
            let t1 = _mm512_mul_pd(s_re, x);
            let t2 = _mm512_mul_pd(s_im, x_swap);
            // Negate the real slots of t2 (sign-bit XOR is exact), turning
            // the componentwise add into (t1.re − t2.re, t1.im + t2.im).
            let t2 = _mm512_castsi512_pd(_mm512_xor_si512(
                _mm512_castpd_si512(t2),
                _mm512_castpd_si512(neg_even),
            ));
            _mm512_add_pd(t1, t2)
        }

        /// 256-bit (two-lane) variant of [`cmul_broadcast_avx512`].
        #[inline(always)]
        unsafe fn cmul_broadcast_avx2(
            s_re: __m256d,
            s_im: __m256d,
            neg_even: __m256d,
            x: __m256d,
        ) -> __m256d {
            let x_swap = _mm256_permute_pd::<0b0101>(x);
            let t1 = _mm256_mul_pd(s_re, x);
            let t2 = _mm256_mul_pd(s_im, x_swap);
            let t2 = _mm256_castsi256_pd(_mm256_xor_si256(
                _mm256_castpd_si256(t2),
                _mm256_castpd_si256(neg_even),
            ));
            _mm256_add_pd(t1, t2)
        }

        /// Sign mask that flips the real (even) slots: `set_pd` lists lanes
        /// high-to-low, so `-0.0` lands in slots 0, 2, ….
        #[inline(always)]
        unsafe fn neg_even_avx512() -> __m512d {
            _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0)
        }

        #[inline(always)]
        unsafe fn neg_even_avx2() -> __m256d {
            _mm256_set_pd(0.0, -0.0, 0.0, -0.0)
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn rotate_rows_avx512(
            lo: &mut [Complex],
            hi: &mut [Complex],
            m00: Complex,
            m01: Complex,
            m10: Complex,
            m11: Complex,
        ) {
            let lanes = lo.len();
            let lo_p = lo.as_mut_ptr().cast::<f64>();
            let hi_p = hi.as_mut_ptr().cast::<f64>();
            let neg = neg_even_avx512();
            let (m00re, m00im) = (_mm512_set1_pd(m00.re), _mm512_set1_pd(m00.im));
            let (m01re, m01im) = (_mm512_set1_pd(m01.re), _mm512_set1_pd(m01.im));
            let (m10re, m10im) = (_mm512_set1_pd(m10.re), _mm512_set1_pd(m10.im));
            let (m11re, m11im) = (_mm512_set1_pd(m11.re), _mm512_set1_pd(m11.im));
            let mut l = 0usize;
            while l + 4 <= lanes {
                let (p0, p1) = (lo_p.add(2 * l), hi_p.add(2 * l));
                let x0 = _mm512_loadu_pd(p0);
                let x1 = _mm512_loadu_pd(p1);
                let y0 = _mm512_add_pd(
                    cmul_broadcast_avx512(m00re, m00im, neg, x0),
                    cmul_broadcast_avx512(m01re, m01im, neg, x1),
                );
                let y1 = _mm512_add_pd(
                    cmul_broadcast_avx512(m10re, m10im, neg, x0),
                    cmul_broadcast_avx512(m11re, m11im, neg, x1),
                );
                _mm512_storeu_pd(p0, y0);
                _mm512_storeu_pd(p1, y1);
                l += 4;
            }
            rotate_rows_scalar(&mut lo[l..], &mut hi[l..], m00, m01, m10, m11);
        }

        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn rotate_rows_avx2(
            lo: &mut [Complex],
            hi: &mut [Complex],
            m00: Complex,
            m01: Complex,
            m10: Complex,
            m11: Complex,
        ) {
            let lanes = lo.len();
            let lo_p = lo.as_mut_ptr().cast::<f64>();
            let hi_p = hi.as_mut_ptr().cast::<f64>();
            let neg = neg_even_avx2();
            let (m00re, m00im) = (_mm256_set1_pd(m00.re), _mm256_set1_pd(m00.im));
            let (m01re, m01im) = (_mm256_set1_pd(m01.re), _mm256_set1_pd(m01.im));
            let (m10re, m10im) = (_mm256_set1_pd(m10.re), _mm256_set1_pd(m10.im));
            let (m11re, m11im) = (_mm256_set1_pd(m11.re), _mm256_set1_pd(m11.im));
            let mut l = 0usize;
            while l + 2 <= lanes {
                let (p0, p1) = (lo_p.add(2 * l), hi_p.add(2 * l));
                let x0 = _mm256_loadu_pd(p0);
                let x1 = _mm256_loadu_pd(p1);
                let y0 = _mm256_add_pd(
                    cmul_broadcast_avx2(m00re, m00im, neg, x0),
                    cmul_broadcast_avx2(m01re, m01im, neg, x1),
                );
                let y1 = _mm256_add_pd(
                    cmul_broadcast_avx2(m10re, m10im, neg, x0),
                    cmul_broadcast_avx2(m11re, m11im, neg, x1),
                );
                _mm256_storeu_pd(p0, y0);
                _mm256_storeu_pd(p1, y1);
                l += 2;
            }
            rotate_rows_scalar(&mut lo[l..], &mut hi[l..], m00, m01, m10, m11);
        }

        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn scale_row_avx512(row: &mut [Complex], d: Complex) {
            let lanes = row.len();
            let p = row.as_mut_ptr().cast::<f64>();
            let neg = neg_even_avx512();
            let (d_re, d_im) = (_mm512_set1_pd(d.re), _mm512_set1_pd(d.im));
            let mut l = 0usize;
            while l + 4 <= lanes {
                let q = p.add(2 * l);
                let x = _mm512_loadu_pd(q);
                _mm512_storeu_pd(q, cmul_broadcast_avx512(d_re, d_im, neg, x));
                l += 4;
            }
            scale_row_scalar(&mut row[l..], d);
        }

        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn scale_row_avx2(row: &mut [Complex], d: Complex) {
            let lanes = row.len();
            let p = row.as_mut_ptr().cast::<f64>();
            let neg = neg_even_avx2();
            let (d_re, d_im) = (_mm256_set1_pd(d.re), _mm256_set1_pd(d.im));
            let mut l = 0usize;
            while l + 2 <= lanes {
                let q = p.add(2 * l);
                let x = _mm256_loadu_pd(q);
                _mm256_storeu_pd(q, cmul_broadcast_avx2(d_re, d_im, neg, x));
                l += 2;
            }
            scale_row_scalar(&mut row[l..], d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnum::FRAC_1_SQRT_2;

    fn basis(n: usize, i: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; 1 << n];
        v[i] = Complex::ONE;
        v
    }

    #[test]
    fn x_flips_target_bit() {
        let mut amps = basis(3, 0b010);
        apply_controlled_single(&mut amps, 0, 0, &Matrix2::pauli_x());
        assert!(amps[0b011].approx_one());
    }

    #[test]
    fn hadamard_splits_amplitude() {
        let mut amps = basis(1, 0);
        apply_controlled_single(&mut amps, 0, 0, &Matrix2::hadamard());
        assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2)));
        assert!(amps[1].approx_eq(Complex::real(FRAC_1_SQRT_2)));
    }

    #[test]
    fn control_blocks_application() {
        // CX with control bit 1 (qubit 1) on target 0: |01⟩ has control 0.
        let mut amps = basis(2, 0b01);
        apply_controlled_single(&mut amps, 0b10, 0, &Matrix2::pauli_x());
        assert!(amps[0b01].approx_one(), "control=0 must not fire");
        let mut amps = basis(2, 0b10);
        apply_controlled_single(&mut amps, 0b10, 0, &Matrix2::pauli_x());
        assert!(amps[0b11].approx_one(), "control=1 must fire");
    }

    #[test]
    fn diagonal_fast_path_matches_general() {
        let z = Matrix2::rz(0.7);
        let h = Complex::real(0.5);
        let mk = || vec![h, h, h, h];
        let mut fast = mk();
        apply_controlled_single(&mut fast, 0, 1, &z);
        // Force the general path by using an equivalent non-detectably
        // diagonal matrix (off-diagonals exactly zero still uses fast path),
        // so instead compare against hand-computed values.
        assert!(fast[0].approx_eq(h * z.entry(0, 0)));
        assert!(fast[1].approx_eq(h * z.entry(0, 0)));
        assert!(fast[2].approx_eq(h * z.entry(1, 1)));
        assert!(fast[3].approx_eq(h * z.entry(1, 1)));
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut amps = basis(3, 0b001);
        apply_controlled_swap(&mut amps, 0, 0, 2);
        assert!(amps[0b100].approx_one());
        // Symmetric pair stays put.
        let mut amps = basis(3, 0b101);
        apply_controlled_swap(&mut amps, 0, 0, 2);
        assert!(amps[0b101].approx_one());
    }

    #[test]
    fn controlled_swap_respects_control() {
        let mut amps = basis(3, 0b001); // control qubit 1 is 0
        apply_controlled_swap(&mut amps, 0b010, 0, 2);
        assert!(amps[0b001].approx_one());
        let mut amps = basis(3, 0b011); // control qubit 1 is 1
        apply_controlled_swap(&mut amps, 0b010, 0, 2);
        assert!(amps[0b110].approx_one());
    }

    #[test]
    fn kernels_preserve_norm() {
        let h = Complex::real(0.5);
        let mut amps = vec![h, h * Complex::I, -h, h];
        apply_controlled_single(&mut amps, 0, 1, &Matrix2::u3(0.3, 1.0, -0.4));
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-10);
    }

    /// Deterministic pseudo-random state, distinct per seed.
    fn scrambled(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..1usize << n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 40) as f64) / (1u64 << 24) as f64 - 0.5;
                let im = ((s >> 16) as f64 % (1u64 << 24) as f64) / (1u64 << 24) as f64 - 0.5;
                Complex::new(re, im)
            })
            .collect()
    }

    #[test]
    fn controlled_diagonal_respects_high_and_low_controls() {
        // Controls both below (qubit 0) and above (qubit 3) the target
        // (qubit 1) exercise the block-skip and per-offset tests.
        let n = 4;
        let z = Matrix2::rz(0.9);
        let mut amps = scrambled(n, 7);
        let expected: Vec<Complex> = amps
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mask = 0b1001;
                if i & mask != mask {
                    a
                } else if i & 0b10 != 0 {
                    a * z.entry(1, 1)
                } else {
                    a * z.entry(0, 0)
                }
            })
            .collect();
        apply_controlled_single(&mut amps, 0b1001, 1, &z);
        for (got, want) in amps.iter().zip(expected.iter()) {
            assert!(got.approx_eq(*want));
        }
    }

    #[test]
    fn controlled_swap_matches_full_scan_reference() {
        let n = 5;
        for &(a, b, mask) in &[(0, 4, 0b01010), (3, 1, 0b10001), (2, 4, 0b00011)] {
            let mut amps = scrambled(n, (a * 31 + b) as u64);
            let mut want = amps.clone();
            let (ba, bb) = (1usize << a, 1usize << b);
            for i in 0..want.len() {
                if i & ba != 0 && i & bb == 0 && i & mask == mask {
                    want.swap(i, i ^ ba ^ bb);
                }
            }
            apply_controlled_swap(&mut amps, mask, a, b);
            assert_eq!(amps, want, "swap({a},{b}) mask {mask:#b}");
        }
    }

    /// The `(re, im)` bit patterns of `amps`: unlike `Complex`'s `==`, they
    /// tell `-0.0` from `0.0`.
    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// [`scrambled`] with exact `0.0` and `-0.0` components mixed in.
    fn signed_zeros(n: usize, seed: u64) -> Vec<Complex> {
        scrambled(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, a)| match (i + seed as usize) % 6 {
                0 => Complex::new(0.0, a.im),
                1 => Complex::new(-0.0, -0.0),
                2 => Complex::new(a.re, -0.0),
                3 => Complex::ZERO,
                _ => a,
            })
            .collect()
    }

    /// The per-index single-qubit kernel: `m00·a0 + m01·a1` and
    /// `m10·a0 + m11·a1` on every pair whose controls hold, or, for a
    /// diagonal `m`, a scale of each amplitude that skips the target-`0`
    /// half when `m00 ≈ 1`.
    fn reference_single(amps: &mut [Complex], control_mask: usize, target: usize, m: &Matrix2) {
        let bt = 1usize << target;
        let (m00, m01, m10, m11) = (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1));
        let diagonal = m01.approx_zero() && m10.approx_zero();
        for lo in 0..amps.len() {
            if lo & bt != 0 || lo & control_mask != control_mask {
                continue;
            }
            let hi = lo | bt;
            if diagonal {
                if !m00.approx_one() {
                    amps[lo] *= m00;
                }
                amps[hi] *= m11;
            } else {
                let (a0, a1) = (amps[lo], amps[hi]);
                amps[lo] = m00 * a0 + m01 * a1;
                amps[hi] = m10 * a0 + m11 * a1;
            }
        }
    }

    /// SWAP as an index exchange: `i ↔ i ^ (2^a | 2^b)` wherever bits `a`
    /// and `b` differ and the controls hold.
    fn reference_swap(amps: &mut [Complex], control_mask: usize, a: usize, b: usize) {
        for i in 0..amps.len() {
            let j = i ^ (1 << a) ^ (1 << b);
            if i < j && (i >> a) & 1 != (i >> b) & 1 && i & control_mask == control_mask {
                amps.swap(i, j);
            }
        }
    }

    /// Every control set of at most two of the `n` qubits outside
    /// `targets`: none, one below or above the targets, one on each side,
    /// and two on one side.
    fn control_sets(n: usize, targets: usize) -> Vec<usize> {
        let free: Vec<usize> = (0..n)
            .map(|q| 1usize << q)
            .filter(|bit| bit & targets == 0)
            .collect();
        let mut sets = vec![0];
        for (i, &first) in free.iter().enumerate() {
            sets.push(first);
            sets.extend(free[i + 1..].iter().map(|&second| first | second));
        }
        sets
    }

    #[test]
    fn walker_matches_per_index_reference_bit_for_bit() {
        let n = 5;
        let gates = [
            ("h", Matrix2::hadamard()),
            ("x", Matrix2::pauli_x()),
            ("y", Matrix2::pauli_y()),
            ("t", Matrix2::phase(std::f64::consts::FRAC_PI_4)),
            ("rz", Matrix2::rz(0.7)),
            ("u3", Matrix2::u3(0.3, 1.0, -0.4)),
        ];
        for seed in 0..4u64 {
            let state = signed_zeros(n, seed);
            for target in 0..n {
                for mask in control_sets(n, 1 << target) {
                    for (name, m) in &gates {
                        let mut want = state.clone();
                        reference_single(&mut want, mask, target, m);
                        let mut got = state.clone();
                        apply_controlled_single(&mut got, mask, target, m);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{name} on {target}, controls {mask:#b}, seed {seed}"
                        );
                    }
                }
            }
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                if a == b {
                    continue;
                }
                for mask in control_sets(n, (1 << a) | (1 << b)) {
                    let mut want = state.clone();
                    reference_swap(&mut want, mask, a, b);
                    let mut got = state.clone();
                    apply_controlled_swap(&mut got, mask, a, b);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "swap({a}, {b}), controls {mask:#b}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_supported_row_loop_matches_the_scalar_formulas_bit_for_bit() {
        let rotations = [Matrix2::pauli_x(), Matrix2::u3(0.3, 1.0, -0.4)];
        let scales = [Matrix2::rz(0.7).entry(1, 1), Complex::new(-0.0, 1.0)];
        for isa in lane_simd::supported() {
            for len in 1..=9 {
                let x0 = &signed_zeros(4, len as u64)[..len];
                let x1 = &signed_zeros(4, 50 + len as u64)[..len];
                for m in &rotations {
                    let (m00, m01, m10, m11) =
                        (m.entry(0, 0), m.entry(0, 1), m.entry(1, 0), m.entry(1, 1));
                    let (mut lo, mut hi) = (x0.to_vec(), x1.to_vec());
                    lane_simd::rotate_rows(isa, &mut lo, &mut hi, m00, m01, m10, m11);
                    let want_lo: Vec<Complex> = x0
                        .iter()
                        .zip(x1)
                        .map(|(&a0, &a1)| m00 * a0 + m01 * a1)
                        .collect();
                    let want_hi: Vec<Complex> = x0
                        .iter()
                        .zip(x1)
                        .map(|(&a0, &a1)| m10 * a0 + m11 * a1)
                        .collect();
                    assert_eq!(bits(&lo), bits(&want_lo), "{isa:?} rotate, len {len}");
                    assert_eq!(bits(&hi), bits(&want_hi), "{isa:?} rotate, len {len}");
                }
                for &d in &scales {
                    let mut row = x0.to_vec();
                    lane_simd::scale_row(isa, &mut row, d);
                    let want: Vec<Complex> = x0.iter().map(|&a| a * d).collect();
                    assert_eq!(bits(&row), bits(&want), "{isa:?} scale, len {len}");
                }
            }
        }
    }
}

//! Explicitly vectorized min-sum kernels with runtime ISA dispatch.
//!
//! The BP check-node pass is the one hot loop whose reductions are both
//! expensive and **order-free**: per-row sign parity is an XOR of `msg < 0.0`
//! predicates (XOR commutes), and the two-smallest-magnitude scan computes the
//! two minima of a multiset (`min` over IEEE `f64` is exact — no rounding, so
//! the result does not depend on scan order). That makes lane-parallel row
//! processing produce **byte-identical** messages to the scalar pass — unlike
//! the variable-node pass, whose floating-point summation is order-sensitive
//! and stays scalar. See [`crate::bp::BeliefPropagation`] for the dispatch
//! site; the **row-interleaved** layout the kernels consume is built by
//! [`crate::sparse::TannerGraph`]: checks are processed in groups of four,
//! lane = check, so each lane runs its own row's strict-`<` two-min ladder and
//! sign-parity XOR — the kernels contain *no* horizontal (cross-lane)
//! operations at all, which is what makes them profitable on the low-degree
//! rows of quantum LDPC checks. Padding slots (rows shorter than their group's
//! depth, phantom lanes past the last check) hold neutral messages (`+∞`
//! magnitude, positive sign) that no strict-`<` comparison ever promotes, so
//! they cannot perturb either reduction.
//!
//! Dispatch is decided **once** at decoder construction ([`Simd::from_env`]):
//! `is_x86_feature_detected!` picks AVX2 (4 × `f64`) or SSE2 (2 × `f64`)
//! kernels from [`std::arch`], with the portable scalar path — the
//! property-pinned reference — as the fallback on other architectures. The
//! `CYCLONE_SIMD` environment variable takes two values: `auto` (the default;
//! empty counts as unset) detects, and `off` pins the scalar reference. Any
//! other value panics with a message naming the variable.
//!
//! Why hand-written kernels instead of trusting the auto-vectorizer: the check
//! pass mixes a data-dependent two-min select ladder with sign-predicate
//! parity, exactly the pattern compilers decline to vectorize (or vectorize
//! differently across versions, silently changing instruction selection). The
//! compiler must not be left to decide — bit-identity across `CYCLONE_SIMD`
//! settings is asserted in CI, so the vector and scalar paths have to be
//! *designed* equivalent, not hoped equivalent.

/// Which instruction set the dispatched kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdIsa {
    /// 256-bit AVX2 kernels, four `f64` lanes.
    Avx2,
    /// 128-bit SSE2 kernels, two `f64` lanes (x86-64 baseline).
    Sse2,
    /// The portable scalar reference path.
    Scalar,
}

/// How the `CYCLONE_SIMD` environment variable asked dispatch to behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Detect the best available ISA (the default).
    Auto,
    /// Pin the scalar reference path.
    Off,
}

/// The capability report of one dispatch decision: which ISA the decoder's
/// check pass runs on. Selected once at [`crate::bp::BeliefPropagation::new`]
/// and carried by the decoder; benches serialize it as `simd: {isa, lanes}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simd {
    isa: SimdIsa,
}

impl Simd {
    /// Reads `CYCLONE_SIMD` and resolves the dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `CYCLONE_SIMD` is set to anything but `auto`, `off` or empty.
    pub fn from_env() -> Self {
        let raw = std::env::var("CYCLONE_SIMD").unwrap_or_default();
        match raw.trim() {
            "" | "auto" => Self::with_mode(SimdMode::Auto),
            "off" => Self::with_mode(SimdMode::Off),
            other => panic!("CYCLONE_SIMD {other:?}: expected auto or off"),
        }
    }

    /// Resolves an explicit mode (tests and benches construct dispatched and
    /// scalar decoders side by side through this).
    pub fn with_mode(mode: SimdMode) -> Self {
        match mode {
            SimdMode::Auto => Simd {
                isa: best_available(),
            },
            SimdMode::Off => Self::scalar(),
        }
    }

    /// The scalar reference path (what non-x86 hosts auto-detect).
    pub fn scalar() -> Self {
        Simd {
            isa: SimdIsa::Scalar,
        }
    }

    /// The dispatched instruction set.
    pub fn isa(&self) -> SimdIsa {
        self.isa
    }

    /// `f64` lanes per vector on the dispatched path (1 on the scalar path).
    pub fn lanes(&self) -> usize {
        match self.isa {
            SimdIsa::Avx2 => 4,
            SimdIsa::Sse2 => 2,
            SimdIsa::Scalar => 1,
        }
    }

    /// Whether a vector ISA (not the scalar reference) was dispatched.
    pub fn is_vectorized(&self) -> bool {
        self.isa != SimdIsa::Scalar
    }

    /// The ISA name as recorded in bench artifacts.
    pub fn isa_name(&self) -> &'static str {
        match self.isa {
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Scalar => "scalar",
        }
    }
}

/// The best vector ISA this host supports (SSE2 is the x86-64 baseline, so the
/// detection can only upgrade from there).
#[cfg(target_arch = "x86_64")]
fn best_available() -> SimdIsa {
    if is_x86_feature_detected!("avx2") {
        SimdIsa::Avx2
    } else {
        SimdIsa::Sse2
    }
}

/// Non-x86 hosts run the portable scalar reference.
#[cfg(not(target_arch = "x86_64"))]
fn best_available() -> SimdIsa {
    SimdIsa::Scalar
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// The vectorized min-sum check-node pass over the row-interleaved layout:
    /// AVX2, four `f64` lanes, lane = check within its row group. Reads
    /// `var_to_check`, writes `check_to_var` (both in interleaved slot
    /// numbering; padding slots must hold `+∞` on entry — they are read, and
    /// written with never-consumed values, but their `var_to_check` side is
    /// never modified). `syn_mask` holds one word per lane-row — all-ones for
    /// a set syndrome bit, zero otherwise (phantom rows: zero).
    ///
    /// Per lane, this is *exactly* the scalar row update: the strict-`<`
    /// select-form two-min ladder over the lane's messages in row order, sign
    /// parity accumulated by XOR of full-width `msg < 0.0` masks seeded with
    /// the syndrome mask, and outputs `±(scale · min-excluding-self)` formed by
    /// sign-bit XOR. The only divergence is tie handling: the output half
    /// emits `scaled2` at *every* lane position whose magnitude equals the row
    /// minimum (the scalar path excludes only the first such index) — same
    /// bits, because tied magnitudes force `min2 == min1` and hence
    /// `scaled2 == scaled1`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support (the dispatch in
    /// [`crate::bp::BeliefPropagation`] selects this only when
    /// `is_x86_feature_detected!("avx2")` reported it); `group_ptr` must be a
    /// valid interleaved group-pointer array for both message slices (monotone,
    /// bounded by their length, every span a multiple of 4 long), and
    /// `syn_mask` must hold at least `4 · (group_ptr.len() - 1)` words.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn check_pass_avx2(
        syn_mask: &[u64],
        group_ptr: &[usize],
        var_to_check: &[f64],
        check_to_var: &mut [f64],
        scale: f64,
    ) {
        let zero = _mm256_setzero_pd();
        let sign_bit = _mm256_set1_pd(-0.0);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let scale_v = _mm256_set1_pd(scale);
        for g in 0..group_ptr.len() - 1 {
            let start = group_ptr[g];
            let end = group_ptr[g + 1];

            // Reduction half: per-lane (= per-check) sign-predicate parity and
            // two minima. Seeding the parity accumulator with the syndrome
            // masks folds `neg = syn ^ parity` into the XOR chain for free.
            let mut sign_acc =
                // SAFETY: `syn_mask` holds 4 words per group; reinterpreting
                // the mask words as `f64` lanes is a pure bit-pattern load.
                unsafe { _mm256_loadu_pd(syn_mask.as_ptr().add(g * 4).cast::<f64>()) };
            let mut vmin1 = inf;
            let mut vmin2 = inf;
            let mut e = start;
            while e < end {
                // SAFETY: `e..e + 4` is inside the group span, which the
                // layout guarantees is in bounds of `var_to_check`; loadu has
                // no alignment requirement.
                let m = unsafe { _mm256_loadu_pd(var_to_check.as_ptr().add(e)) };
                let neg_mask = _mm256_cmp_pd::<_CMP_LT_OQ>(m, zero);
                sign_acc = _mm256_xor_pd(sign_acc, neg_mask);
                let mag = _mm256_andnot_pd(sign_bit, m);
                let new1 = _mm256_cmp_pd::<_CMP_LT_OQ>(mag, vmin1);
                let lt2 = _mm256_cmp_pd::<_CMP_LT_OQ>(mag, vmin2);
                // min2 = new1 ? min1 : (mag < min2 ? mag : min2); min1 = min.
                let min2_keep = _mm256_blendv_pd(vmin2, mag, lt2);
                vmin2 = _mm256_blendv_pd(min2_keep, vmin1, new1);
                vmin1 = _mm256_blendv_pd(vmin1, mag, new1);
                e += 4;
            }
            // `mulpd` is the same IEEE double multiply the scalar path's
            // `scale * min` performs — per-lane, exact, no reassociation.
            let flip_base = _mm256_and_pd(sign_acc, sign_bit);
            let s1 = _mm256_mul_pd(scale_v, vmin1);
            let s2 = _mm256_mul_pd(scale_v, vmin2);

            // Output half: ±(scale · min-excluding-self) with the sign flipped
            // where neg ^ (msg < 0.0) — pure sign-bit XOR, bit-exact.
            let mut e = start;
            while e < end {
                // SAFETY: same in-bounds argument as the reduction loop, for
                // both the load and the store through the group span.
                unsafe {
                    let m = _mm256_loadu_pd(var_to_check.as_ptr().add(e));
                    let neg_mask = _mm256_cmp_pd::<_CMP_LT_OQ>(m, zero);
                    let flip = _mm256_xor_pd(flip_base, _mm256_and_pd(neg_mask, sign_bit));
                    let mag = _mm256_andnot_pd(sign_bit, m);
                    let is_min = _mm256_cmp_pd::<_CMP_EQ_OQ>(mag, vmin1);
                    let val = _mm256_blendv_pd(s1, s2, is_min);
                    _mm256_storeu_pd(check_to_var.as_mut_ptr().add(e), _mm256_xor_pd(val, flip));
                }
                e += 4;
            }
        }
    }

    /// The word-packed hard-decision update, AVX2: packs `llrs[c] < 0.0`
    /// predicates into `err_words` (bit `c & 63` of word `c >> 6`), exactly the
    /// bits the mask-based convergence check consumes. `err_words` is zeroed
    /// here; lanes at `c >= n` (the phantom/padding tail) are masked off.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `llrs` must be padded to at
    /// least `n.div_ceil(4) * 4` entries and `err_words` must hold
    /// `n.div_ceil(64)` words.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hard_decision_avx2(llrs: &[f64], n: usize, err_words: &mut [u64]) {
        let zero = _mm256_setzero_pd();
        for w in err_words.iter_mut() {
            *w = 0;
        }
        let mut b = 0;
        while b < n {
            // SAFETY: `b < n` and `llrs` is padded past `n` to a multiple of 4,
            // so the 4-lane read stays in bounds.
            let m = unsafe { _mm256_loadu_pd(llrs.as_ptr().add(b)) };
            let mut bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(m, zero)) as u64;
            if b + 4 > n {
                bits &= (1u64 << (n - b)) - 1;
            }
            err_words[b >> 6] |= bits << (b & 63);
            b += 4;
        }
    }

    /// SSE2 `blendv` emulation (`_mm_blendv_pd` is SSE4.1): lanes where `mask`
    /// is all-ones take `b`, others take `a`. Exact for the full-width masks
    /// `cmp` produces.
    #[inline(always)]
    fn sse2_blendv(a: __m128d, b: __m128d, mask: __m128d) -> __m128d {
        // SAFETY: pure register-to-register SSE2 bit operations, no memory
        // access; SSE2 is the x86-64 baseline so these are always available.
        unsafe { _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a)) }
    }

    /// The vectorized check-node pass, SSE2 — same contract and per-lane logic
    /// as [`check_pass_avx2`], walking each 4-lane group as two 2-lane halves
    /// (low lanes 0–1, high lanes 2–3), so both ISAs consume the same
    /// interleaved layout.
    ///
    /// # Safety
    ///
    /// `group_ptr` must be a valid interleaved group-pointer array bounding
    /// both slices and `syn_mask` must hold `4 · (group_ptr.len() - 1)` words
    /// (SSE2 itself is the x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn check_pass_sse2(
        syn_mask: &[u64],
        group_ptr: &[usize],
        var_to_check: &[f64],
        check_to_var: &mut [f64],
        scale: f64,
    ) {
        let zero = _mm_setzero_pd();
        let sign_bit = _mm_set1_pd(-0.0);
        let inf = _mm_set1_pd(f64::INFINITY);
        let scale_v = _mm_set1_pd(scale);
        for g in 0..group_ptr.len() - 1 {
            let start = group_ptr[g];
            let end = group_ptr[g + 1];

            // SAFETY: `syn_mask` holds 4 words per group; pure bit-pattern
            // loads of the low and high lane pairs.
            let (mut acc_lo, mut acc_hi) = unsafe {
                let p = syn_mask.as_ptr().add(g * 4).cast::<f64>();
                (_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)))
            };
            let (mut min1_lo, mut min1_hi) = (inf, inf);
            let (mut min2_lo, mut min2_hi) = (inf, inf);
            let mut e = start;
            while e < end {
                // SAFETY: `e..e + 4` lies inside the group span, in bounds of
                // `var_to_check`; loadu is unaligned-safe.
                let (m_lo, m_hi) = unsafe {
                    let p = var_to_check.as_ptr().add(e);
                    (_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)))
                };
                acc_lo = _mm_xor_pd(acc_lo, _mm_cmplt_pd(m_lo, zero));
                acc_hi = _mm_xor_pd(acc_hi, _mm_cmplt_pd(m_hi, zero));
                let mag_lo = _mm_andnot_pd(sign_bit, m_lo);
                let mag_hi = _mm_andnot_pd(sign_bit, m_hi);
                let new1_lo = _mm_cmplt_pd(mag_lo, min1_lo);
                let new1_hi = _mm_cmplt_pd(mag_hi, min1_hi);
                let lt2_lo = _mm_cmplt_pd(mag_lo, min2_lo);
                let lt2_hi = _mm_cmplt_pd(mag_hi, min2_hi);
                min2_lo = sse2_blendv(sse2_blendv(min2_lo, mag_lo, lt2_lo), min1_lo, new1_lo);
                min2_hi = sse2_blendv(sse2_blendv(min2_hi, mag_hi, lt2_hi), min1_hi, new1_hi);
                min1_lo = sse2_blendv(min1_lo, mag_lo, new1_lo);
                min1_hi = sse2_blendv(min1_hi, mag_hi, new1_hi);
                e += 4;
            }
            let flip_lo = _mm_and_pd(acc_lo, sign_bit);
            let flip_hi = _mm_and_pd(acc_hi, sign_bit);
            let s1_lo = _mm_mul_pd(scale_v, min1_lo);
            let s1_hi = _mm_mul_pd(scale_v, min1_hi);
            let s2_lo = _mm_mul_pd(scale_v, min2_lo);
            let s2_hi = _mm_mul_pd(scale_v, min2_hi);

            let mut e = start;
            while e < end {
                // SAFETY: same in-bounds argument as the reduction loop.
                unsafe {
                    let p = var_to_check.as_ptr().add(e);
                    let (m_lo, m_hi) = (_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)));
                    let neg_lo = _mm_cmplt_pd(m_lo, zero);
                    let neg_hi = _mm_cmplt_pd(m_hi, zero);
                    let f_lo = _mm_xor_pd(flip_lo, _mm_and_pd(neg_lo, sign_bit));
                    let f_hi = _mm_xor_pd(flip_hi, _mm_and_pd(neg_hi, sign_bit));
                    let mag_lo = _mm_andnot_pd(sign_bit, m_lo);
                    let mag_hi = _mm_andnot_pd(sign_bit, m_hi);
                    let v_lo = sse2_blendv(s1_lo, s2_lo, _mm_cmpeq_pd(mag_lo, min1_lo));
                    let v_hi = sse2_blendv(s1_hi, s2_hi, _mm_cmpeq_pd(mag_hi, min1_hi));
                    let q = check_to_var.as_mut_ptr().add(e);
                    _mm_storeu_pd(q, _mm_xor_pd(v_lo, f_lo));
                    _mm_storeu_pd(q.add(2), _mm_xor_pd(v_hi, f_hi));
                }
                e += 4;
            }
        }
    }

    /// The word-packed hard-decision update, SSE2 — same contract as
    /// [`hard_decision_avx2`] (the 2-lane step divides the 4-padded buffer).
    ///
    /// # Safety
    ///
    /// `llrs` must be padded to at least `n.div_ceil(2) * 2` entries and
    /// `err_words` must hold `n.div_ceil(64)` words.
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn hard_decision_sse2(llrs: &[f64], n: usize, err_words: &mut [u64]) {
        let zero = _mm_setzero_pd();
        for w in err_words.iter_mut() {
            *w = 0;
        }
        let mut b = 0;
        while b < n {
            // SAFETY: `b < n` and `llrs` is padded past `n`, so the 2-lane
            // read stays in bounds.
            let m = unsafe { _mm_loadu_pd(llrs.as_ptr().add(b)) };
            let mut bits = _mm_movemask_pd(_mm_cmplt_pd(m, zero)) as u64;
            if b + 2 > n {
                bits &= 1;
            }
            err_words[b >> 6] |= bits << (b & 63);
            b += 2;
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{check_pass_avx2, check_pass_sse2, hard_decision_avx2, hard_decision_sse2};

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference of one check-row update, lifted verbatim from the
    /// property-pinned `propagate` loop — the ground truth the kernels must
    /// match bit for bit.
    fn scalar_check_row(syn: bool, msgs: &[f64], scale: f64, out: &mut [f64]) {
        let mut neg = u64::from(syn);
        let mut min1 = f64::INFINITY;
        let mut min2 = f64::INFINITY;
        let mut min1_idx = usize::MAX;
        for (j, &msg) in msgs.iter().enumerate() {
            neg ^= u64::from(msg < 0.0);
            let mag = msg.abs();
            let new1 = mag < min1;
            min2 = if new1 {
                min1
            } else if mag < min2 {
                mag
            } else {
                min2
            };
            min1 = if new1 { mag } else { min1 };
            min1_idx = if new1 { j } else { min1_idx };
        }
        let scaled1 = scale * min1;
        let scaled2 = scale * min2;
        for (j, (&msg, out)) in msgs.iter().zip(out.iter_mut()).enumerate() {
            let flip = (neg ^ u64::from(msg < 0.0)) << 63;
            let v = if j == min1_idx { scaled2 } else { scaled1 };
            *out = f64::from_bits(v.to_bits() ^ flip);
        }
    }

    /// Builds a row-interleaved arena from per-row message lists (lane = row
    /// within its group of four, padding = `+∞`, group depth = max degree),
    /// runs the requested kernel over it, and asserts the real-edge outputs
    /// are byte-identical to the scalar reference.
    #[cfg(target_arch = "x86_64")]
    fn assert_kernel_matches_scalar(rows: &[(bool, Vec<f64>)], scale: f64, isa: SimdIsa) {
        use crate::sparse::PAD_LANES;
        let m = rows.len();
        let groups = m.div_ceil(PAD_LANES);
        let mut group_ptr = vec![0usize];
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(m);
        let mut base = 0usize;
        for g in 0..groups {
            let first = g * PAD_LANES;
            let last = (first + PAD_LANES).min(m);
            let depth = (first..last).map(|r| rows[r].1.len()).max().unwrap_or(0);
            for (lane, r) in (first..last).enumerate() {
                slots.push(
                    (0..rows[r].1.len())
                        .map(|j| base + j * PAD_LANES + lane)
                        .collect(),
                );
            }
            base += depth * PAD_LANES;
            group_ptr.push(base);
        }
        let mut var_to_check = vec![f64::INFINITY; base];
        for (r, (_, msgs)) in rows.iter().enumerate() {
            for (j, &msg) in msgs.iter().enumerate() {
                var_to_check[slots[r][j]] = msg;
            }
        }
        let mut syn_mask = vec![0u64; groups * PAD_LANES];
        for (r, &(syn, _)) in rows.iter().enumerate() {
            syn_mask[r] = if syn { u64::MAX } else { 0 };
        }
        let mut check_to_var = vec![0.0f64; base];
        match isa {
            // SAFETY: the test harness only calls this arm after
            // `is_x86_feature_detected!` confirmed the ISA on this host.
            SimdIsa::Avx2 => unsafe {
                check_pass_avx2(
                    &syn_mask,
                    &group_ptr,
                    &var_to_check,
                    &mut check_to_var,
                    scale,
                );
            },
            // SAFETY: SSE2 is the x86-64 baseline — always available here.
            SimdIsa::Sse2 => unsafe {
                check_pass_sse2(
                    &syn_mask,
                    &group_ptr,
                    &var_to_check,
                    &mut check_to_var,
                    scale,
                );
            },
            SimdIsa::Scalar => unreachable!("scalar has no kernel"),
        }
        for (r, (syn, msgs)) in rows.iter().enumerate() {
            let mut expect = vec![0.0f64; msgs.len()];
            scalar_check_row(*syn, msgs, scale, &mut expect);
            for (j, want) in expect.iter().enumerate() {
                let got = check_to_var[slots[r][j]];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {r} edge {j} ({isa:?}): got {got:?}, want {want:?}"
                );
            }
        }
    }

    /// Adversarial rows: `-0.0` messages (sign predicate must treat them as
    /// positive), exact magnitude ties, infinities, degree-1 and empty rows,
    /// and degrees that are not lane multiples.
    #[cfg(target_arch = "x86_64")]
    fn adversarial_rows() -> Vec<(bool, Vec<f64>)> {
        vec![
            (true, vec![1.5, -2.5, 0.75, -0.25, 3.0]), // degree 5: one partial vector
            (false, vec![-0.0, 0.0, -1.0]),            // -0.0 must stay "positive"
            (true, vec![2.0, -2.0, 2.0]),              // |.|-ties across signs
            (false, vec![0.5]),                        // degree 1: min2 stays +inf
            (true, vec![]),                            // empty row: nothing written
            (false, vec![f64::INFINITY, -1.0, f64::NEG_INFINITY, 4.0]),
            (true, vec![1e-300, -1e-300, 1e308, -1e308, 7.0, -7.0, 0.125]),
            (false, vec![3.0; 8]), // all tied, two full vectors
            (
                true,
                vec![-4.0, -3.0, -2.0, -1.0, -5.0, -6.0, -7.0, -8.0, -9.0],
            ),
        ]
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_check_pass_is_bit_identical_to_scalar() {
        assert_kernel_matches_scalar(&adversarial_rows(), 0.75, SimdIsa::Sse2);
        assert_kernel_matches_scalar(&adversarial_rows(), 1.0, SimdIsa::Sse2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_check_pass_is_bit_identical_to_scalar() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("avx2 not available on this host; kernel covered by SSE2 test only");
            return;
        }
        assert_kernel_matches_scalar(&adversarial_rows(), 0.75, SimdIsa::Avx2);
        assert_kernel_matches_scalar(&adversarial_rows(), 1.0, SimdIsa::Avx2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hard_decision_kernels_pack_sign_predicates() {
        // 70 entries straddles a word boundary; the padded tail (negative
        // values past n) must be masked off, and -0.0 / NaN count as positive.
        let n: usize = 70;
        let mut llrs: Vec<f64> = (0..n)
            .map(|c| match c % 5 {
                0 => -1.0,
                1 => 0.0,
                2 => -0.0,
                3 => f64::NAN,
                _ => 2.5,
            })
            .collect();
        llrs.resize(n.next_multiple_of(4), -1.0); // poisoned padding
        let words = n.div_ceil(64);
        let expect: Vec<u64> = (0..words)
            .map(|w| {
                let mut word = 0u64;
                for b in 0..64 {
                    let c = w * 64 + b;
                    if c < n && llrs[c] < 0.0 {
                        word |= 1 << b;
                    }
                }
                word
            })
            .collect();
        let mut got = vec![u64::MAX; words];
        // SAFETY: SSE2 is the x86-64 baseline; buffers sized per the contract.
        unsafe { hard_decision_sse2(&llrs, n, &mut got) };
        assert_eq!(got, expect, "sse2 hard decision");
        if is_x86_feature_detected!("avx2") {
            let mut got = vec![u64::MAX; words];
            // SAFETY: guarded by the runtime AVX2 check directly above.
            unsafe { hard_decision_avx2(&llrs, n, &mut got) };
            assert_eq!(got, expect, "avx2 hard decision");
        }
    }

    #[test]
    fn mode_parsing_and_report_shape() {
        let auto = Simd::with_mode(SimdMode::Auto);
        let off = Simd::with_mode(SimdMode::Off);
        assert_eq!(off, Simd::scalar());
        assert_eq!(off.lanes(), 1);
        assert!(!off.is_vectorized());
        #[cfg(target_arch = "x86_64")]
        {
            assert!(auto.is_vectorized(), "x86-64 always has at least SSE2");
            assert!(auto.lanes() >= 2);
        }
        assert_eq!(Simd::scalar().isa_name(), "scalar");
        assert!(matches!(auto.isa_name(), "avx2" | "sse2" | "scalar"));
    }
}

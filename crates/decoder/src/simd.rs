//! The min-sum lane kernels and their runtime ISA dispatch.
//!
//! The loops of the BP iteration are written once, in safe Rust, over the two
//! lane layouts built by [`crate::sparse::TannerGraph`]:
//!
//! * the **check-node pass** and the word-packed hard decision run over the
//!   row-interleaved arenas: checks are processed in groups of [`PAD_LANES`],
//!   lane = check, so each lane runs its own row's strict-`<` two-min ladder
//!   and sign-parity XOR. Padding slots (rows shorter than their group's
//!   depth, phantom lanes past the last check) hold neutral messages (`+∞`
//!   magnitude, positive sign) that no strict-`<` comparison ever promotes,
//!   so they cannot perturb either reduction;
//! * the **variable-node pass** and its writeback run over the depth-major
//!   column table: lane = column, and each lane adds its column's messages in
//!   ascending check order — the order of the scalar row-major sweep — so the
//!   order-sensitive floating-point sum is unchanged. Short columns and
//!   phantom lanes add `-0.0` from the spare cell, which changes no bit.
//!
//! The **lockstep kernels** decode several syndromes at once over the same
//! slot numbering: their arenas are slot-major with [`LOCKSTEP_LANES`] `f64`
//! per slot, lane = syndrome. Each check's real slots run in row order and
//! each column's in ascending check order, padding skipped, so every lane
//! repeats the single-syndrome arithmetic above exactly.
//!
//! Each kernel is compiled three times: once for the target's baseline ISA
//! (what [`Simd::scalar`] and non-x86 hosts run; the compiler is free to
//! vectorize it, e.g. with SSE2 on x86-64), once inside a
//! `#[target_feature(enable = "avx2")]` wrapper, and once inside an
//! `avx512f,avx512vl,avx512dq,avx512bw` wrapper, whose eight `f64` lanes fill
//! one lockstep slot. [`Simd::detect`] picks one at decoder construction by
//! `is_x86_feature_detected!`: AVX-512, else AVX2, else the baseline. Only
//! the kernels are compiled under these features, not the whole propagate
//! loop. On a 2-vCPU Xeon reporting AVX-512 (rustc 1.95), the lockstep check
//! pass over `[[72,12,6]]`'s 216 slots took 1,380–1,890 TSC cycles a call in
//! the AVX-512 compilation, against 2,030–2,050 in the AVX2 one and 3,550 in
//! the baseline one (medians of 200 rounds of 100 calls, two runs).
//!
//! Why every compilation is bit-identical to the others and to the
//! scalar reference without hand-written intrinsics: Rust never reassociates
//! or contracts floating-point operations, and no kernel has horizontal
//! (cross-lane) operations — every check lane performs exactly the
//! comparisons, selects, sign-bit XORs and one IEEE multiply of the scalar row
//! update, in row order, and every column lane exactly the scalar additions,
//! in check order. The vector width therefore changes only speed.
//! Vectorization quality still depends on the compiler, so the kernel-level
//! tests below and the property tests in `tests/properties.rs` pin every
//! compilation the host supports ([`Simd::supported`]) to the scalar
//! reference byte for byte.
//!
//! The `CYCLONE_SIMD` environment variable takes two values: `auto` (the
//! default; empty counts as unset) detects, and `off` pins the baseline
//! compilation. [`Simd::parse`] is the one parser of that value.

use crate::sparse::PAD_LANES;

/// How many syndromes the lockstep kernels decode at once: their arenas hold
/// this many `f64` per slot, one lane per syndrome.
pub const LOCKSTEP_LANES: usize = 8;

/// The IEEE-754 sign bit of an `f64`.
const SIGN_BIT: u64 = 1 << 63;

/// Which compilation of the kernels the decoder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdIsa {
    /// The kernels compiled with AVX-512 (F, VL, DQ, BW) enabled: eight `f64`
    /// per vector, one lockstep slot; only x86-64 hosts detect it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// The kernels compiled with AVX2 enabled (four `f64` per vector);
    /// only x86-64 hosts detect it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
    /// The kernels compiled for the target's baseline ISA.
    Scalar,
}

/// The dispatch decision: which compilation of the kernels the decoder's BP
/// runs. Selected once at [`crate::bp::BeliefPropagation::new`] and carried by
/// the decoder; benches record it by [`Simd::isa_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simd {
    isa: SimdIsa,
}

impl Simd {
    /// Reads `CYCLONE_SIMD` and resolves the dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `CYCLONE_SIMD` is set to anything but `auto`, `off` or empty
    /// (the figure runner rejects such a value before any decoder is built).
    pub fn from_env() -> Self {
        let raw = std::env::var("CYCLONE_SIMD").unwrap_or_default();
        Self::parse(&raw).unwrap_or_else(|expected| panic!("CYCLONE_SIMD {raw:?}: {expected}"))
    }

    /// Parses a `CYCLONE_SIMD` value: `auto` or empty detects, `off` pins the
    /// baseline compilation.
    ///
    /// # Errors
    ///
    /// Any other value, with what was expected instead.
    pub fn parse(raw: &str) -> Result<Self, &'static str> {
        match raw.trim() {
            "" | "auto" => Ok(Self::detect()),
            "off" => Ok(Self::scalar()),
            _ => Err("expected auto or off"),
        }
    }

    /// The widest compilation this host supports: AVX-512, else AVX2, else
    /// the baseline one. The last entry of [`Simd::supported`].
    pub fn detect() -> Self {
        *Self::supported()
            .last()
            .expect("the baseline is always supported")
    }

    /// Every compilation this host can run, baseline first and widest last —
    /// how tests and benches cover each of them.
    pub fn supported() -> Vec<Self> {
        let mut supported = vec![Self::scalar()];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                supported.push(Simd { isa: SimdIsa::Avx2 });
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw")
            {
                supported.push(Simd {
                    isa: SimdIsa::Avx512,
                });
            }
        }
        supported
    }

    /// The baseline compilation (what non-x86 hosts detect).
    pub fn scalar() -> Self {
        Simd {
            isa: SimdIsa::Scalar,
        }
    }

    /// The compilation's name as recorded in bench artifacts.
    pub fn isa_name(&self) -> &'static str {
        match self.isa {
            SimdIsa::Avx512 => "avx512",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Scalar => "scalar",
        }
    }

    /// The fewest syndromes a lockstep group runs with in this compilation;
    /// a shorter last group decodes on the single-syndrome loop. A lockstep
    /// group costs about the same however many of its [`LOCKSTEP_LANES`]
    /// lanes are used, so this is where a group overtakes decoding its
    /// syndromes one at a time. Measured on 30-iteration decodes on
    /// `[[72,12,6]]` and `[[225,9,6]]` (a 2-vCPU Xeon reporting AVX-512,
    /// rustc 1.95; median time ratio, one at a time over lockstep, of 60
    /// interleaved pairs, two runs): the baseline compilation breaks even at
    /// six lanes (0.99–1.05) and gains 1.29–1.34× at eight; AVX2 loses at
    /// four (0.86–0.91), gains 1.08–1.15× at five and 1.75–1.87× at eight;
    /// AVX-512, whose eight lanes fill one vector, loses at three
    /// (0.81–0.88), gains 1.07–1.21× at four and 2.08–2.33× at eight.
    pub fn min_lockstep_lanes(&self) -> usize {
        match self.isa {
            SimdIsa::Avx512 => 4,
            SimdIsa::Avx2 => 5,
            SimdIsa::Scalar => 6,
        }
    }
}

/// Defines `mod $module`, the kernels compiled under `$features`: one
/// `#[target_feature]` wrapper per kernel, into which the `#[inline(always)]`
/// kernel body is inlined.
macro_rules! compiled_under {
    ($module:ident, $features:literal, $($kernel:ident($($arg:ident: $ty:ty),*);)*) => {
        #[doc = concat!("The kernels compiled with `", $features, "` enabled.")]
        #[cfg(target_arch = "x86_64")]
        mod $module {
            $(
                #[target_feature(enable = $features)]
                pub(super) fn $kernel($($arg: $ty),*) {
                    super::$kernel($($arg),*);
                }
            )*
        }
    };
}

/// For each kernel `name(args)`, defines `Simd::name(self, args)`, which runs
/// the kernel in the dispatched compilation, and its AVX2 and AVX-512
/// compilations, `avx2::name` and `avx512::name` ([`compiled_under`]).
macro_rules! compiled_thrice {
    ($($kernel:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
        impl Simd {
            $(
                #[doc = concat!("Runs [`", stringify!($kernel), "`] in the dispatched compilation.")]
                // One argument more than its kernel, `self`.
                #[allow(clippy::too_many_arguments)]
                pub(crate) fn $kernel(self, $($arg: $ty),*) {
                    #[cfg(target_arch = "x86_64")]
                    match self.isa {
                        // SAFETY: an `Avx512` dispatch is only built by `supported`,
                        // after `is_x86_feature_detected!` reported all four features.
                        SimdIsa::Avx512 => return unsafe { avx512::$kernel($($arg),*) },
                        // SAFETY: an `Avx2` dispatch is only built by `supported`,
                        // after `is_x86_feature_detected!("avx2")` reported the feature.
                        SimdIsa::Avx2 => return unsafe { avx2::$kernel($($arg),*) },
                        SimdIsa::Scalar => {}
                    }
                    $kernel($($arg),*);
                }
            )*
        }

        compiled_under!(avx2, "avx2", $($kernel($($arg: $ty),*);)*);
        compiled_under!(
            avx512,
            "avx512f,avx512vl,avx512dq,avx512bw",
            $($kernel($($arg: $ty),*);)*
        );
    };
}

compiled_thrice! {
    check_pass(
        syn_mask: &[u64],
        group_ptr: &[usize],
        var_to_check: &[f64],
        check_to_var: &mut [f64],
        scale: f64,
    );
    hard_decision(llrs_pad: &[f64], err_words: &mut [u64]);
    var_pass(
        col_ptr: &[usize],
        col_slots: &[u32],
        channel_llr: &[f64],
        check_to_var: &[f64],
        llrs_pad: &mut [f64],
    );
    var_writeback(
        col_ptr: &[usize],
        col_slots: &[u32],
        llrs_pad: &[f64],
        check_to_var: &[f64],
        var_to_check: &mut [f64],
    );
    lockstep_check_pass(
        syn_masks: &[u64],
        row_ptr: &[usize],
        row_slots: &[u32],
        var_to_check: &[f64],
        check_to_var: &mut [f64],
        scale: f64,
    );
    lockstep_var_pass(
        col_ptr: &[usize],
        col_slots: &[u32],
        channel_llr: &[f64],
        check_to_var: &[f64],
        var_to_check: &mut [f64],
        posteriors: &mut [f64],
        last: bool,
    );
    lockstep_hard_decision(posteriors: &[f64], err_words: &mut [u64]);
}

/// The min-sum check-node pass over the row-interleaved layout: reads
/// `var_to_check`, writes `check_to_var` (both in interleaved slot numbering;
/// padding slots must hold `+∞`, and are written with never-consumed values).
/// Group `g` owns slots `group_ptr[g]..group_ptr[g + 1]`; `syn_mask` holds one
/// word per lane-row, all-ones for a set syndrome bit and zero otherwise.
///
/// Per lane this is exactly the scalar row update: the strict-`<` two-min
/// ladder over the lane's messages in row order, sign parity as the XOR of
/// full-width `msg < 0.0` masks seeded with the syndrome mask, and outputs
/// `±(scale · min-excluding-self)` formed by sign-bit XOR. Where the scalar
/// row excludes only the first index holding the minimum, this emits `scaled2`
/// at every lane position whose magnitude equals it — the same bits, because
/// tied magnitudes force `min2 == min1` and hence `scaled2 == scaled1`.
///
/// The ladder is written without a blend: `above1` is the larger of `mag`
/// and `min1` (`min1` when `mag < min1`, else `mag`), and `min2` takes it
/// when `above1 < min2`. That gives the scalar ladder's `min2` for every
/// input: on a new minimum both give the old `min1` (never above `min2`),
/// otherwise both give the smaller of `mag` and `min2`. A NaN magnitude
/// fails every `<`, so `above1` is that NaN and `min2` keeps its value, just
/// as in the scalar ladder; the reverse operand order would promote `min1`
/// instead. Each select is one vector min or max. The source computes
/// `scaled1` and `scaled2`, the sign-folded scaled minima, once per check, but
/// that saves nothing in the shipped code: every compilation re-forms them per
/// message, as a blend of `min1` and `min2`, a multiply by `scale` and a
/// parity XOR, and then XORs in the message's own `msg < 0.0` sign bit.
#[inline(always)]
fn check_pass(
    syn_mask: &[u64],
    group_ptr: &[usize],
    var_to_check: &[f64],
    check_to_var: &mut [f64],
    scale: f64,
) {
    for (span, syn) in group_ptr.windows(2).zip(syn_mask.chunks_exact(PAD_LANES)) {
        let (start, end) = (span[0], span[1]);
        let mut sign = [0u64; PAD_LANES];
        sign.copy_from_slice(syn);
        let mut min1 = [f64::INFINITY; PAD_LANES];
        let mut min2 = [f64::INFINITY; PAD_LANES];
        for msgs in var_to_check[start..end].chunks_exact(PAD_LANES) {
            for lane in 0..PAD_LANES {
                let msg = msgs[lane];
                sign[lane] ^= u64::from(msg < 0.0).wrapping_neg();
                let mag = msg.abs();
                let above1 = if mag < min1[lane] { min1[lane] } else { mag };
                min2[lane] = if above1 < min2[lane] {
                    above1
                } else {
                    min2[lane]
                };
                min1[lane] = if mag < min1[lane] { mag } else { min1[lane] };
            }
        }
        let mut scaled1 = [0.0f64; PAD_LANES];
        let mut scaled2 = [0.0f64; PAD_LANES];
        for lane in 0..PAD_LANES {
            let parity = sign[lane] & SIGN_BIT;
            scaled1[lane] = f64::from_bits((scale * min1[lane]).to_bits() ^ parity);
            scaled2[lane] = f64::from_bits((scale * min2[lane]).to_bits() ^ parity);
        }
        for (msgs, out) in var_to_check[start..end]
            .chunks_exact(PAD_LANES)
            .zip(check_to_var[start..end].chunks_exact_mut(PAD_LANES))
        {
            for lane in 0..PAD_LANES {
                let msg = msgs[lane];
                let v = if msg.abs() == min1[lane] {
                    scaled2[lane]
                } else {
                    scaled1[lane]
                };
                out[lane] = f64::from_bits(v.to_bits() ^ (u64::from(msg < 0.0) << 63));
            }
        }
    }
}

/// The word-packed hard decision: bit `c & 63` of `err_words[c >> 6]` is
/// `llrs_pad[c] < 0.0`, exactly the bits the column-packed convergence test
/// consumes. `llrs_pad` holds 64 entries per word; entries past the variable
/// count must be `+∞`, which packs as a zero bit (so does `-0.0` and `NaN`),
/// because the test reads one column of `H` per set bit.
#[inline(always)]
fn hard_decision(llrs_pad: &[f64], err_words: &mut [u64]) {
    for (word, llrs) in err_words.iter_mut().zip(llrs_pad.chunks_exact(64)) {
        let mut bits = 0u64;
        for (b, &llr) in llrs.iter().enumerate() {
            bits |= u64::from(llr < 0.0) << b;
        }
        *word = bits;
    }
}

/// A power-of-two-long arena and its index mask. `slot & mask` is `slot` for
/// every slot in bounds, and the returned view is exactly `mask + 1` long, so
/// the compiler drops the bounds check of every masked gather or scatter.
///
/// # Panics
///
/// Panics if the arena's length is not a power of two.
#[inline(always)]
fn masked(arena: &[f64]) -> (&[f64], usize) {
    assert!(
        arena.len().is_power_of_two(),
        "message arenas are a power of two long"
    );
    let mask = arena.len() - 1;
    (&arena[..=mask], mask)
}

// cyclone-lint: hot-path
/// The variable-node sum over the depth-major column table
/// ([`crate::sparse::TannerGraph::col_slots`]): lane = column, so
/// `llrs_pad[c]` becomes `channel_llr[c]` plus column `c`'s check→variable
/// messages added one at a time in ascending check order — exactly the
/// scalar accumulation's order. Padding entries read the spare cell, which
/// must hold `-0.0`: `x + (-0.0)` is `x` bit for bit for every `x`, `±0` and
/// `±∞` included. `channel_llr` must be `+∞` past the last column, so
/// phantom lanes write `+∞`. The arenas are a power of two long
/// ([`crate::sparse::TannerGraph::arena_len`]), which lets both column-table
/// kernels gather and scatter through [`masked`] views.
#[inline(always)]
fn var_pass(
    col_ptr: &[usize],
    col_slots: &[u32],
    channel_llr: &[f64],
    check_to_var: &[f64],
    llrs_pad: &mut [f64],
) {
    let (check_to_var, mask) = masked(check_to_var);
    for ((span, prior), out) in col_ptr
        .windows(2)
        .zip(channel_llr.chunks_exact(PAD_LANES))
        .zip(llrs_pad.chunks_exact_mut(PAD_LANES))
    {
        let mut acc = [0.0f64; PAD_LANES];
        acc.copy_from_slice(prior);
        for slots in col_slots[span[0]..span[1]].chunks_exact(PAD_LANES) {
            for lane in 0..PAD_LANES {
                acc[lane] += check_to_var[slots[lane] as usize & mask];
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// The variable→check writeback over the same column table: each real slot
/// gets its column's posterior minus the slot's own check→variable message.
/// Padding entries write the spare cell, which no pass reads.
#[inline(always)]
fn var_writeback(
    col_ptr: &[usize],
    col_slots: &[u32],
    llrs_pad: &[f64],
    check_to_var: &[f64],
    var_to_check: &mut [f64],
) {
    let (check_to_var, mask) = masked(check_to_var);
    let var_to_check = &mut var_to_check[..=mask];
    for (span, llr) in col_ptr.windows(2).zip(llrs_pad.chunks_exact(PAD_LANES)) {
        for slots in col_slots[span[0]..span[1]].chunks_exact(PAD_LANES) {
            for lane in 0..PAD_LANES {
                let slot = slots[lane] as usize & mask;
                var_to_check[slot] = llr[lane] - check_to_var[slot];
            }
        }
    }
}

/// The lanes of one slot (or column) in a lockstep arena: entries
/// `slot * LOCKSTEP_LANES..(slot + 1) * LOCKSTEP_LANES`, one per syndrome.
#[inline(always)]
fn lanes(arena: &[f64], slot: usize) -> &[f64; LOCKSTEP_LANES] {
    let at = slot * LOCKSTEP_LANES;
    arena[at..at + LOCKSTEP_LANES]
        .try_into()
        .expect("a slot holds one entry per lane")
}

/// [`lanes`], writable.
#[inline(always)]
fn lanes_mut(arena: &mut [f64], slot: usize) -> &mut [f64; LOCKSTEP_LANES] {
    let at = slot * LOCKSTEP_LANES;
    (&mut arena[at..at + LOCKSTEP_LANES])
        .try_into()
        .expect("a slot holds one entry per lane")
}

/// The check-node pass of the lockstep arenas (slot-major, one entry per
/// lane = syndrome): check `r` owns the interleaved slots
/// `row_slots[row_ptr[r]..row_ptr[r + 1]]`, its real messages in row order,
/// and `syn_masks[r * LOCKSTEP_LANES + lane]` is all-ones when the lane's
/// syndrome sets check `r`. Per lane this is [`check_pass`]'s update of one
/// lane-row, minus the padding slots, whose neutral messages change neither
/// reduction: the same ladder and sign fold over the same messages in the
/// same order. As there, the machine code re-forms the selected scaled
/// minimum and its parity per message (blend, multiply, XOR), not once per
/// check.
#[inline(always)]
fn lockstep_check_pass(
    syn_masks: &[u64],
    row_ptr: &[usize],
    row_slots: &[u32],
    var_to_check: &[f64],
    check_to_var: &mut [f64],
    scale: f64,
) {
    for (span, syn) in row_ptr
        .windows(2)
        .zip(syn_masks.chunks_exact(LOCKSTEP_LANES))
    {
        let slots = &row_slots[span[0]..span[1]];
        let mut sign = [0u64; LOCKSTEP_LANES];
        sign.copy_from_slice(syn);
        let mut min1 = [f64::INFINITY; LOCKSTEP_LANES];
        let mut min2 = [f64::INFINITY; LOCKSTEP_LANES];
        for &slot in slots {
            let msgs = lanes(var_to_check, slot as usize);
            for lane in 0..LOCKSTEP_LANES {
                let msg = msgs[lane];
                sign[lane] ^= u64::from(msg < 0.0).wrapping_neg();
                let mag = msg.abs();
                let above1 = if mag < min1[lane] { min1[lane] } else { mag };
                min2[lane] = if above1 < min2[lane] {
                    above1
                } else {
                    min2[lane]
                };
                min1[lane] = if mag < min1[lane] { mag } else { min1[lane] };
            }
        }
        let mut scaled1 = [0.0f64; LOCKSTEP_LANES];
        let mut scaled2 = [0.0f64; LOCKSTEP_LANES];
        for lane in 0..LOCKSTEP_LANES {
            let parity = sign[lane] & SIGN_BIT;
            scaled1[lane] = f64::from_bits((scale * min1[lane]).to_bits() ^ parity);
            scaled2[lane] = f64::from_bits((scale * min2[lane]).to_bits() ^ parity);
        }
        for &slot in slots {
            let msgs = lanes(var_to_check, slot as usize);
            let out = lanes_mut(check_to_var, slot as usize);
            for lane in 0..LOCKSTEP_LANES {
                let msg = msgs[lane];
                let v = if msg.abs() == min1[lane] {
                    scaled2[lane]
                } else {
                    scaled1[lane]
                };
                out[lane] = f64::from_bits(v.to_bits() ^ (u64::from(msg < 0.0) << 63));
            }
        }
    }
}

/// The variable-node pass of the lockstep arenas, with its writeback:
/// column `c` owns the slots `col_slots[col_ptr[c]..col_ptr[c + 1]]` in
/// ascending check order, so each lane's posterior is `channel_llr[c]` plus
/// the column's messages added in [`var_pass`]'s order (its `-0.0` padding
/// terms are skipped, which changes no bit). On the `last` iteration the
/// posterior is stored in `posteriors[c * LOCKSTEP_LANES + lane]`; on every
/// other one each slot instead gets the posterior minus its own message, as
/// in [`var_writeback`]. Only the last iteration's posteriors are read (its
/// hard decision and the returned LLRs), and its writeback would feed no
/// further check pass, so each store is skipped where nothing reads it —
/// about 3% of a 30-iteration lockstep group in every compilation. Columns
/// past the last are left as they are.
#[inline(always)]
fn lockstep_var_pass(
    col_ptr: &[usize],
    col_slots: &[u32],
    channel_llr: &[f64],
    check_to_var: &[f64],
    var_to_check: &mut [f64],
    posteriors: &mut [f64],
    last: bool,
) {
    for ((span, &prior), post) in col_ptr
        .windows(2)
        .zip(channel_llr)
        .zip(posteriors.chunks_exact_mut(LOCKSTEP_LANES))
    {
        let slots = &col_slots[span[0]..span[1]];
        let mut acc = [prior; LOCKSTEP_LANES];
        for &slot in slots {
            let msgs = lanes(check_to_var, slot as usize);
            for lane in 0..LOCKSTEP_LANES {
                acc[lane] += msgs[lane];
            }
        }
        if last {
            post.copy_from_slice(&acc);
            continue;
        }
        for &slot in slots {
            let msgs = lanes(check_to_var, slot as usize);
            let out = lanes_mut(var_to_check, slot as usize);
            for lane in 0..LOCKSTEP_LANES {
                out[lane] = acc[lane] - msgs[lane];
            }
        }
    }
}

/// [`hard_decision`] of every lane of the lockstep posteriors (64 columns
/// of `LOCKSTEP_LANES` entries per word, `+∞` past the last column): word
/// `w` of lane `l`'s packed decision is `err_words[w * LOCKSTEP_LANES + l]`.
/// Each word is shifted in from its last column down, a recurrence per lane,
/// so the compiler vectorizes across lanes rather than across columns.
#[inline(always)]
fn lockstep_hard_decision(posteriors: &[f64], err_words: &mut [u64]) {
    for (block, out) in posteriors
        .chunks_exact(64 * LOCKSTEP_LANES)
        .zip(err_words.chunks_exact_mut(LOCKSTEP_LANES))
    {
        let mut bits = [0u64; LOCKSTEP_LANES];
        for post in block.chunks_exact(LOCKSTEP_LANES).rev() {
            for lane in 0..LOCKSTEP_LANES {
                bits[lane] = (bits[lane] << 1) | u64::from(post[lane] < 0.0);
            }
        }
        out.copy_from_slice(&bits);
    }
}
// cyclone-lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference of one check-row update, lifted verbatim from the
    /// property-pinned reference loop — the ground truth every compilation of
    /// the kernel must match bit for bit.
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
    /// runs the kernel in `simd`'s compilation over it, and asserts the
    /// real-edge outputs are byte-identical to the scalar reference.
    fn assert_kernel_matches_scalar(rows: &[(bool, Vec<f64>)], scale: f64, simd: Simd) {
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
        simd.check_pass(
            &syn_mask,
            &group_ptr,
            &var_to_check,
            &mut check_to_var,
            scale,
        );
        for (r, (syn, msgs)) in rows.iter().enumerate() {
            let mut expect = vec![0.0f64; msgs.len()];
            scalar_check_row(*syn, msgs, scale, &mut expect);
            for (j, want) in expect.iter().enumerate() {
                let got = check_to_var[slots[r][j]];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {r} edge {j} ({}): got {got:?}, want {want:?}",
                    simd.isa_name()
                );
            }
        }
    }

    /// Adversarial rows: `-0.0` messages (sign predicate must treat them as
    /// positive), exact magnitude ties, infinities, degree-1 and empty rows,
    /// and degrees that are not lane multiples.
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
            (true, vec![-0.0, -0.0]),                        // tied zeros
            (false, vec![f64::NEG_INFINITY, f64::INFINITY]), // tied infinities
            // NaN magnitudes: first, middle and last in the row, next to
            // tied minima, and with the sign bit set. No comparison may
            // promote a NaN into either minimum.
            (true, vec![f64::NAN, 1.0, -3.0, 2.0]),
            (false, vec![1.0, f64::NAN, 3.0, -2.0, 5.0]),
            (true, vec![-1.0, 4.0, 2.0, f64::NAN]),
            (false, vec![2.0, f64::NAN, -2.0, 6.0]),
            (true, vec![0.5, -0.5, -f64::NAN, 0.5, 9.0]),
            (false, vec![f64::NAN, f64::NAN]),
            (true, vec![3.0, -f64::NAN, f64::NAN, 1.0, f64::NAN]),
        ]
    }

    /// The host's compilation named `isa`, if it supports it.
    fn compilation(isa: &str) -> Option<Simd> {
        let found = Simd::supported().into_iter().find(|s| s.isa_name() == isa);
        if found.is_none() {
            eprintln!("{isa} not available on this host; kernel covered by the baseline test");
        }
        found
    }

    #[test]
    fn baseline_check_pass_is_bit_identical_to_scalar() {
        assert_kernel_matches_scalar(&adversarial_rows(), 0.75, Simd::scalar());
        assert_kernel_matches_scalar(&adversarial_rows(), 1.0, Simd::scalar());
    }

    #[test]
    fn avx2_check_pass_is_bit_identical_to_scalar() {
        if let Some(simd) = compilation("avx2") {
            assert_kernel_matches_scalar(&adversarial_rows(), 0.75, simd);
            assert_kernel_matches_scalar(&adversarial_rows(), 1.0, simd);
        }
    }

    #[test]
    fn avx512_check_pass_is_bit_identical_to_scalar() {
        if let Some(simd) = compilation("avx512") {
            assert_kernel_matches_scalar(&adversarial_rows(), 0.75, simd);
            assert_kernel_matches_scalar(&adversarial_rows(), 1.0, simd);
        }
    }

    /// The lockstep check pass over the adversarial rows, one check per row:
    /// lane `l` holds the row rotated left by `l` (so each NaN, tie and
    /// infinity visits every position) with its syndrome bit flipped on odd
    /// lanes, and every lane's outputs must match the scalar reference of
    /// that lane's row byte for byte, in every compilation.
    #[test]
    fn lockstep_check_pass_is_bit_identical_to_scalar() {
        let rows = adversarial_rows();
        let lane_row = |r: usize, lane: usize| {
            let (syn, msgs) = &rows[r];
            let mut msgs = msgs.clone();
            if !msgs.is_empty() {
                let len = msgs.len();
                msgs.rotate_left(lane % len);
            }
            (*syn ^ (lane % 2 == 1), msgs)
        };
        let mut row_ptr = vec![0usize];
        for (_, msgs) in &rows {
            row_ptr.push(row_ptr.last().unwrap() + msgs.len());
        }
        let slots = *row_ptr.last().unwrap();
        // Slots in reverse order, so a check's slots are not contiguous.
        let row_slots: Vec<u32> = (0..slots as u32).rev().collect();
        let mut var_to_check = vec![0.0f64; slots * LOCKSTEP_LANES];
        let mut syn_masks = vec![0u64; rows.len() * LOCKSTEP_LANES];
        for r in 0..rows.len() {
            for lane in 0..LOCKSTEP_LANES {
                let (syn, msgs) = lane_row(r, lane);
                syn_masks[r * LOCKSTEP_LANES + lane] = if syn { u64::MAX } else { 0 };
                for (j, &msg) in msgs.iter().enumerate() {
                    let slot = row_slots[row_ptr[r] + j] as usize;
                    var_to_check[slot * LOCKSTEP_LANES + lane] = msg;
                }
            }
        }
        for simd in Simd::supported() {
            for scale in [0.75, 1.0] {
                let mut check_to_var = vec![0.0f64; slots * LOCKSTEP_LANES];
                simd.lockstep_check_pass(
                    &syn_masks,
                    &row_ptr,
                    &row_slots,
                    &var_to_check,
                    &mut check_to_var,
                    scale,
                );
                for r in 0..rows.len() {
                    for lane in 0..LOCKSTEP_LANES {
                        let (syn, msgs) = lane_row(r, lane);
                        let mut want = vec![0.0f64; msgs.len()];
                        scalar_check_row(syn, &msgs, scale, &mut want);
                        for (j, want) in want.iter().enumerate() {
                            let slot = row_slots[row_ptr[r] + j] as usize;
                            let got = check_to_var[slot * LOCKSTEP_LANES + lane];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} row {r} lane {lane} edge {j}: got {got:?}, want {want:?}",
                                simd.isa_name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hard_decision_kernels_pack_sign_predicates() {
        // 70 entries straddle a word boundary; the `+∞` tail packs as zeros,
        // and -0.0 / NaN count as positive.
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
        let words = n.div_ceil(64);
        llrs.resize(words * 64, f64::INFINITY);
        let expect: Vec<u64> = (0..words)
            .map(|w| {
                let mut word = 0u64;
                for b in 0..64 {
                    let c = w * 64 + b;
                    if c < n && c % 5 == 0 {
                        word |= 1 << b;
                    }
                }
                word
            })
            .collect();
        for simd in Simd::supported() {
            let mut got = vec![u64::MAX; words];
            simd.hard_decision(&llrs, &mut got);
            assert_eq!(got, expect, "{} hard decision", simd.isa_name());
        }
    }

    /// The column-lane variable pass and its writeback against row-major
    /// scalar accumulation (channel LLR, then every real edge in row-major
    /// order), byte for byte, in every compilation. The first column group
    /// has degrees 2, 2, 3 and 5; `n = 10` leaves two phantom lanes; column 9
    /// has degree 0 and a `-0.0` channel LLR. Messages include `±0.0`, `±∞`
    /// (column 3 sums both into NaN) and extreme magnitudes; padding slots
    /// hold NaN to show they are never read.
    #[test]
    fn column_lane_variable_pass_matches_row_major_accumulation() {
        use crate::sparse::{SparseBinMat, TannerGraph};
        let n = 10;
        let rows = vec![
            vec![0, 1, 2, 3],
            vec![1, 2, 3, 6],
            vec![2, 3],
            vec![3, 4, 5, 6, 7, 8],
            vec![0, 3, 8],
            vec![7],
        ];
        let graph = TannerGraph::new(&SparseBinMat::from_row_supports(n, rows.clone()));
        let spare = graph.num_interleaved_slots();
        let values = [
            -0.0,
            0.0,
            1.5,
            f64::INFINITY,
            -2.25,
            f64::NEG_INFINITY,
            1e-300,
            -1e308,
            0.1,
            -0.0,
        ];
        let mut ctv = vec![f64::NAN; graph.arena_len()];
        ctv[spare] = -0.0;
        let slot =
            |r: usize, j: usize| graph.group_ptr()[r / PAD_LANES] + j * PAD_LANES + r % PAD_LANES;
        let mut k = 0;
        for (r, row) in rows.iter().enumerate() {
            for j in 0..row.len() {
                ctv[slot(r, j)] = values[k % values.len()];
                k += 1;
            }
        }
        let padded = n.div_ceil(64) * 64;
        let inf = f64::INFINITY;
        let mut channel = vec![0.0, -0.0, 2.0, -inf, inf, 1.0, -0.0, 3.0, -inf, -0.0];
        channel.resize(padded, inf);
        let mut want = channel.clone();
        for (r, row) in rows.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                want[c] += ctv[slot(r, j)];
            }
        }
        for simd in Simd::supported() {
            let isa = simd.isa_name();
            let mut llrs = vec![0.0f64; padded];
            simd.var_pass(
                graph.col_ptr(),
                graph.col_slots(),
                &channel,
                &ctv,
                &mut llrs,
            );
            for c in 0..n.div_ceil(PAD_LANES) * PAD_LANES {
                assert_eq!(llrs[c].to_bits(), want[c].to_bits(), "{isa} column {c}");
            }
            let mut vtc = vec![7.0f64; graph.arena_len()];
            simd.var_writeback(graph.col_ptr(), graph.col_slots(), &llrs, &ctv, &mut vtc);
            let mut real = vec![false; graph.arena_len()];
            for (r, row) in rows.iter().enumerate() {
                for (j, &c) in row.iter().enumerate() {
                    let s = slot(r, j);
                    real[s] = true;
                    let expect = want[c] - ctv[s];
                    assert_eq!(vtc[s].to_bits(), expect.to_bits(), "{isa} slot {s}");
                }
            }
            for s in (0..spare).filter(|&s| !real[s]) {
                assert_eq!(vtc[s], 7.0, "{isa} wrote padding slot {s}");
            }
        }
    }

    #[test]
    fn mode_parsing_and_report_shape() {
        assert_eq!(Simd::parse("off"), Ok(Simd::scalar()));
        assert_eq!(Simd::parse(" auto "), Ok(Simd::detect()));
        assert_eq!(Simd::parse(""), Ok(Simd::detect()));
        assert_eq!(Simd::parse("sse2"), Err("expected auto or off"));
        assert_eq!(Simd::scalar().isa_name(), "scalar");
        let detected = Simd::detect();
        #[cfg(target_arch = "x86_64")]
        {
            let avx512 = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw");
            let avx2 = is_x86_feature_detected!("avx2");
            let want = if avx512 {
                SimdIsa::Avx512
            } else if avx2 {
                SimdIsa::Avx2
            } else {
                SimdIsa::Scalar
            };
            assert_eq!(detected.isa, want);
            let mut names = vec!["scalar"];
            names.extend(avx2.then_some("avx2"));
            names.extend(avx512.then_some("avx512"));
            let supported: Vec<_> = Simd::supported().iter().map(Simd::isa_name).collect();
            assert_eq!(supported, names);
        }
        assert!(matches!(detected.isa_name(), "avx512" | "avx2" | "scalar"));
        assert_eq!(Simd::supported().last(), Some(&detected));
        assert_eq!(Simd::supported()[0], Simd::scalar());
    }
}

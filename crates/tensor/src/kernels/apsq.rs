//! One step of the paper's Algorithm 1: the one scalar definition that
//! `apsq_core::StreamingApsq` (through [`super::lanes::apsq_fold_i32`] and
//! [`super::lanes::apsq_quantize_i32`]), the int8 attention row kernels,
//! the fused APSQ linear kernel's scalar body, `FoldPlan`'s proof and the
//! `apsq_quant` shifters all run.
//!
//! Step `i` folds its [`carried_rows`] into its exact tile ([`fold`]),
//! quantizes the sum at `2^e` ([`quantize`]) — a self-calibrating stream
//! picks `e` as the sum's [`covering_shift`] — and stores the codes in
//! ring row `i mod gs`; the last codes dequantize by [`shl_saturate`].
//! Every function is `#[inline(always)]`, so a caller built under
//! `#[target_feature]` compiles the same body at its own vector width.
//!
//! ```
//! use apsq_tensor::apsq;
//!
//! // Step 3 of 4 in groups of 2 opens a group: it folds rows 0 and 1.
//! assert_eq!(apsq::carried_rows(2, 0, 4, 2), 2);
//! let (codes0, codes1) = ([10, -3], [4, 4]);
//! let mut acc = [100, 50];
//! let rows = [(&codes0[..], 2), (&codes1[..], 0)];
//! apsq::fold(&mut acc, 2, |r| rows[r], (-128, 127));
//! assert_eq!(acc, [100 + 40 + 4, 50 - 12 + 4]);
//! // 144 needs 2^1 (127 · 2 ≥ 144); 144 / 2 = 72, 42 / 2 = 21.
//! let sh = apsq::covering_shift(apsq::max_abs(&acc), 127);
//! apsq::quantize_in_place(&mut acc, sh, (-128, 127));
//! assert_eq!((sh, acc), (1, [72, 21]));
//! ```

/// Algorithm 1's control: how many stored code rows step `i` of `steps`
/// (in groups of `gs`, its codes going to ring row `row = i mod gs`) folds
/// into its input. An APSQ step (`row = 0`, lines 4–7) folds the whole
/// previous group (nothing at `i = 0`); a final mid-group step (lines
/// 13–14) folds its group's stored prefix; a plain PSQ step (lines 9–11)
/// folds nothing. The carried rows are ring rows `0..carried`, holding
/// steps `i − carried..i`: a group starts at a multiple of `gs`.
#[inline(always)]
pub fn carried_rows(i: usize, row: usize, steps: usize, gs: usize) -> usize {
    if row == 0 {
        i.min(gs)
    } else if i == steps - 1 {
        row
    } else {
        0
    }
}

/// The shift `e` of the tightest power-of-two scale covering a largest
/// magnitude `max_abs` with codes up to `qp ≥ 0`: the least `e ≤ 30` with
/// `qp · 2^e ≥ max_abs.clamp(1, i32::MAX)`, or 30 when none does. Closed
/// form: `qp · 2^e` shares its top bit with the magnitude at
/// `e = lz(qp) − lz(m)`, and one compare decides between `e` and `e + 1`.
#[inline(always)]
pub fn covering_shift(max_abs: u32, qp: i32) -> u32 {
    let m = max_abs.clamp(1, i32::MAX as u32);
    let qp = qp as u32;
    if m <= qp {
        0
    } else if qp == 0 {
        30
    } else {
        let e = qp.leading_zeros() - m.leading_zeros();
        let e = e + u32::from(u64::from(qp) << e < u64::from(m));
        e.min(30)
    }
}

/// The largest `|x|` in `xs` (0 when empty), as a `u32` so `|i32::MIN|`
/// is exact.
#[inline(always)]
pub fn max_abs(xs: &[i32]) -> u32 {
    xs.iter().fold(0, |m, x| m.max(x.unsigned_abs()))
}

/// Whether a fold stays in `i32`: a tile of magnitude at most `tile_mag`
/// plus `carried` rows of `range` codes, row `r` dequantized at
/// `shift(r) ≤ 30`, `tile_mag + Σ max(|lo|, |hi|) · 2^e ≤ i32::MAX`, so no
/// code saturates and no partial sum wraps.
#[inline(always)]
pub fn fold_fits_i32(
    tile_mag: u64,
    (lo, hi): (i32, i32),
    carried: usize,
    shift: impl Fn(usize) -> u32,
) -> bool {
    let code_mag = u64::from(lo.unsigned_abs().max(hi.unsigned_abs()));
    let bound = (0..carried).fold(tile_mag, |b, r| b.saturating_add(code_mag << shift(r)));
    bound <= i32::MAX as u64
}

/// The carried-row fold, in place: adds the `carried` code rows (`row(r)`
/// gives row `r`'s codes and shift, oldest first) into `acc`. With
/// `in_i32` (the caller proved [`fold_fits_i32`]) it adds `code · 2^e` in
/// `i32`, a multiply, so an overflow-checked build panics on a broken
/// proof instead of wrapping; otherwise each element's sum is formed in
/// `i64` over [`shl_saturate`]d codes and clamped into `i32`. Under the
/// proof both give the same bits.
#[inline(always)]
pub fn fold_carried<'r>(
    acc: &mut [i32],
    carried: usize,
    row: impl Fn(usize) -> (&'r [i32], u32),
    in_i32: bool,
) {
    if in_i32 {
        for r in 0..carried {
            let (codes, sh) = row(r);
            let mul = 1i32 << sh;
            for (a, &c) in acc.iter_mut().zip(codes) {
                *a += c * mul;
            }
        }
    } else {
        for (j, a) in acc.iter_mut().enumerate() {
            let sum = (0..carried).fold(i64::from(*a), |s, r| {
                let (codes, sh) = row(r);
                s + i64::from(shl_saturate(codes[j], sh))
            });
            *a = sum.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        }
    }
}

/// [`fold_carried`] under the per-step bound: in `i32` when
/// `max|acc| + Σ max|code| · 2^e ≤ i32::MAX` over the carried rows of
/// `range` codes, else the clamped `i64` sum.
#[inline(always)]
pub fn fold<'r>(
    acc: &mut [i32],
    carried: usize,
    row: impl Fn(usize) -> (&'r [i32], u32),
    range: (i32, i32),
) {
    if carried == 0 {
        return;
    }
    let in_i32 = fold_fits_i32(max_abs(acc).into(), range, carried, |r| row(r).1);
    fold_carried(acc, carried, row, in_i32);
}

/// `clamp(round(x / 2^sh), lo, hi)` for `sh ≤ 31`, rounding half away
/// from zero without a sign branch: take the sign mask, round the
/// magnitude (`|x| + 2^(sh−1)` cannot overflow a `u32`), restore the sign.
#[inline(always)]
pub fn round_shift_clamp(x: i32, sh: u32, lo: i32, hi: i32) -> i32 {
    if sh == 0 {
        return x.clamp(lo, hi);
    }
    let s = x >> 31; // 0 for x ≥ 0, −1 for x < 0
    let t = ((x.unsigned_abs() + (1 << (sh - 1))) >> sh) as i32;
    ((t ^ s) - s).clamp(lo, hi)
}

/// `code · 2^sh`, saturating at the `i32` limits, for every shift: past
/// 32 every nonzero code saturates, and up to 32 the `i64` product is
/// exact.
#[inline(always)]
pub fn shl_saturate(code: i32, sh: u32) -> i32 {
    (i64::from(code) << sh.min(32)).clamp(i32::MIN.into(), i32::MAX.into()) as i32
}

/// `out[j] = round_shift_clamp(xs[j], sh, lo, hi)`.
///
/// # Panics
///
/// Panics if the slices differ in length or `sh > 31`.
#[inline(always)]
pub fn quantize(xs: &[i32], sh: u32, (lo, hi): (i32, i32), out: &mut [i32]) {
    assert_eq!(xs.len(), out.len(), "input/code length mismatch");
    assert!(sh <= 31, "shift {sh} out of range 0..=31");
    // Branch once per slice, not per element, so both loops vectorize.
    if sh == 0 {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x.clamp(lo, hi);
        }
    } else {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = round_shift_clamp(x, sh, lo, hi);
        }
    }
}

/// [`quantize`] in place.
///
/// # Panics
///
/// Panics if `sh > 31`.
#[inline(always)]
pub fn quantize_in_place(xs: &mut [i32], sh: u32, (lo, hi): (i32, i32)) {
    assert!(sh <= 31, "shift {sh} out of range 0..=31");
    if sh == 0 {
        xs.iter_mut().for_each(|x| *x = (*x).clamp(lo, hi));
    } else {
        xs.iter_mut()
            .for_each(|x| *x = round_shift_clamp(*x, sh, lo, hi));
    }
}

/// Whether every code of `range` dequantizes at `sh ≤ 32` without
/// saturating.
#[inline(always)]
pub fn dequantize_fits_i32((lo, hi): (i32, i32), sh: u32) -> bool {
    i64::from(lo) << sh >= i32::MIN.into() && i64::from(hi) << sh <= i32::MAX.into()
}

/// `xs[j] = shl_saturate(xs[j], sh)` for codes of `range`, in place: in
/// `i32` when [`dequantize_fits_i32`].
#[inline(always)]
pub fn dequantize(xs: &mut [i32], sh: u32, range: (i32, i32)) {
    if dequantize_fits_i32(range, sh) {
        let mul = 1i32 << sh;
        xs.iter_mut().for_each(|x| *x *= mul);
    } else {
        xs.iter_mut().for_each(|x| *x = shl_saturate(*x, sh));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one covering rule against its definition, by search: the least
    /// `e ≤ 30` with `qp · 2^e ≥ max(m, 1)` (`m` capped at `i32::MAX`), at
    /// every bit-width's `qp` and on both sides of every boundary
    /// `qp · 2^e` for e in 0..=30, plus 0, 1, `i32::MAX` and `|i32::MIN|`.
    #[test]
    fn covering_shift_is_the_least_covering_exponent() {
        for bits in 1..=32u32 {
            let qp = ((1i64 << (bits - 1)) - 1) as i32;
            let mut mags = vec![0u64, 1, i32::MAX as u64, 1 << 31];
            for e in 0..=30 {
                let b = (qp as u64) << e;
                mags.extend([b.saturating_sub(1), b, b + 1]);
            }
            for m in mags.into_iter().filter(|&m| m <= u32::MAX as u64) {
                let target = m.clamp(1, i32::MAX as u64);
                let want = (0..=30).find(|&e| (qp as u64) << e >= target).unwrap_or(30);
                assert_eq!(
                    covering_shift(m as u32, qp),
                    want,
                    "{bits} bits, max_abs {m}"
                );
            }
        }
    }

    /// The saturating shift against an `i128` reference at every shift to
    /// 70, on the edges of `i32` and the shifts' own boundaries.
    #[test]
    fn shl_saturate_matches_i128_at_every_shift() {
        let mut xs = vec![0, 1, -1, 2, -2, 3, -3, 127, -128, i32::MAX, i32::MIN];
        xs.extend([i32::MAX - 1, i32::MIN + 1, 1 << 30, -(1 << 30), 1 << 15]);
        for sh in 0..=70u32 {
            for &x in &xs {
                let want = (i128::from(x) << sh).clamp(i32::MIN.into(), i32::MAX.into()) as i32;
                assert_eq!(shl_saturate(x, sh), want, "{x} << {sh}");
            }
        }
        assert_eq!(shl_saturate(1 << 30, 40), i32::MAX);
        assert_eq!(shl_saturate(3, 62), i32::MAX);
        assert_eq!(shl_saturate(2, 62), i32::MAX);
    }
}

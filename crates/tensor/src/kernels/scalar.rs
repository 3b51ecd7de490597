//! Portable reference kernels — the semantic definition every SIMD
//! backend must reproduce bit-for-bit.
//!
//! Written with fixed-width lane arrays (the unrolled shape non-x86
//! autovectorizers digest well): the `MR×NR` register tile of the blocked
//! kernels, the [`LANES`]-lane K-dot of `gemm_bt_f32`. Ragged edges all go
//! through the shared [`tail_f32`]/[`tail_np_i8`] helpers, so
//! the edge index arithmetic — historically triplicated across partial-NR,
//! partial-MR, and remainder paths — is written once and shared with the
//! SIMD variants.

use super::apsq;
use super::{dot_f32_lanes, for_qk_chunks, np_passes, tail_f32, tail_np_i8, KC, MR, NR};
use crate::fold::Fused;

pub(super) fn gemm_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                // Full MR×NR register tile.
                let mut acc = [[0.0f32; NR]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * lda + l];
                        for (c, accv) in accr.iter_mut().enumerate() {
                            *accv += av * brow[c];
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    for (o, &v) in orow.iter_mut().zip(accr.iter()) {
                        *o += v;
                    }
                }
                j += NR;
            }
            // Column remainder: same panel-local accumulation order.
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        // Row remainder: one row at a time, still panel-accumulated.
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

pub(super) fn gemm_bt_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            out[i * ldo + j] += dot_f32_lanes(arow, brow);
        }
    }
}

pub(super) fn gemm_at_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient,
            // exactly as the pre-engine matmul_at did.
            let av = a[l * lda + i];
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

pub(super) fn gemm_np_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    np_passes(a, lda, m, (k0, k1), |pairs, i, rows, (pp, pq)| {
        let mut j = 0;
        while rows == MR && j + NR <= n {
            // Full MR×NR tile: each staged pair meets the NR column pairs
            // of its panel row, one i32 lane per column.
            let mut acc = [[0i32; NR]; MR];
            for (t, p) in (pp..pq).enumerate() {
                let bp = &b[p * ldb + 2 * j..p * ldb + 2 * (j + NR)];
                for (accr, staged) in acc.iter_mut().zip(pairs) {
                    let [x0, x1] = staged[t];
                    for (accv, w) in accr.iter_mut().zip(bp.chunks_exact(2)) {
                        *accv += x0 as i32 * w[0] as i32 + x1 as i32 * w[1] as i32;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                for (o, &v) in orow.iter_mut().zip(accr.iter()) {
                    *o += v;
                }
            }
            j += NR;
        }
        tail_np_i8(pairs, rows, b, ldb, out, ldo, i, (j, n), (pp, pq));
    });
}

/// Columns per tile of the fused APSQ linear body: twice the GEMM tile,
/// so each step's fold and ring traffic run over enough lanes to pay for
/// their loop overhead.
const FW: usize = 2 * NR;

/// The fused APSQ linear body over columns `[j0, j1)`: the staged row
/// blocks of up to MR rows, each in [`FW`]-wide tiles, then one column at
/// a time. Also the SIMD builds' column tail.
pub(super) fn apsq_linear_i8(
    f: &Fused<'_>,
    rows: usize,
    (j0, j1): (usize, usize),
    out: &mut [f32],
    codes: &mut [i32],
) {
    let mut ring = vec![0i32; f.plan.ring_rows * MR * FW];
    for i in (0..rows).step_by(MR) {
        let cols = (j0, j1);
        match usize::min(MR, rows - i) {
            4 => fused_strip::<4>(f, i, cols, &mut ring, out, codes),
            3 => fused_strip::<3>(f, i, cols, &mut ring, out, codes),
            2 => fused_strip::<2>(f, i, cols, &mut ring, out, codes),
            _ => fused_strip::<1>(f, i, cols, &mut ring, out, codes),
        }
    }
}

/// The row block `i..i + R` over columns `[j0, j1)`: [`FW`]-wide tiles,
/// then one column at a time.
fn fused_strip<const R: usize>(
    f: &Fused<'_>,
    i: usize,
    (j0, j1): (usize, usize),
    ring: &mut [i32],
    out: &mut [f32],
    codes: &mut [i32],
) {
    let mut j = j0;
    while j + FW <= j1 {
        fused_tile::<R, FW>(f, i, j, ring, out, codes);
        j += FW;
    }
    for j in j..j1 {
        fused_tile::<R, 1>(f, i, j, ring, out, codes);
    }
}

/// One R×W tile at `(i, j)` through every step of the plan. Ring row
/// `row` is `ring[row · R · W..]`, `[R][W]` row-major.
#[inline(always)]
fn fused_tile<const R: usize, const W: usize>(
    f: &Fused<'_>,
    i: usize,
    j: usize,
    ring: &mut [i32],
    out: &mut [f32],
    codes: &mut [i32],
) {
    let plan = f.plan;
    let tile = R * W;
    for (step, w) in plan.steps.iter().zip(&plan.windows) {
        let mut acc = [[0i32; W]; R];
        let b_rows = f.b[w.pair * f.ldb..].chunks_exact(f.ldb);
        for (words, b_row) in f.block::<R>(i, w).chunks_exact(R).zip(b_rows) {
            let bp = &b_row[2 * j..][..2 * W];
            for (accr, &word) in acc.iter_mut().zip(words) {
                let (x0, x1) = (word as i16 as i32, word >> 16);
                for (a, wp) in accr.iter_mut().zip(bp.chunks_exact(2)) {
                    *a += x0 * wp[0] as i32 + x1 * wp[1] as i32;
                }
            }
        }
        // The plan's proof is the fold's bound at the largest tile.
        let carried = |r: usize| {
            let (row, sh) = step.carried[r];
            (&ring[row * tile..][..tile], sh)
        };
        let acc = acc.as_flattened_mut();
        apsq::fold_carried(acc, step.carried.len(), carried, plan.i32_exact);
        let dst = &mut ring[step.row * tile..][..tile];
        apsq::quantize(acc, step.shift, (plan.qn, plan.qp), dst);
    }
    let last = &plan.steps[plan.steps.len() - 1];
    let src = &ring[last.row * tile..][..tile];
    let mul = 1i32 << last.shift;
    for (r, cr) in src.chunks_exact(W).enumerate() {
        let o = (i + r) * f.n + j;
        let bias = &f.bias[j..][..W];
        for ((y, &code), &b) in out[o..][..W].iter_mut().zip(cr).zip(bias) {
            // Under the proof the last codes dequantize without saturating.
            let v = if plan.i32_exact {
                code * mul
            } else {
                apsq::shl_saturate(code, last.shift)
            };
            *y = v as f32 * f.scale + b;
        }
        if !codes.is_empty() {
            codes[o..][..W].copy_from_slice(cr);
        }
    }
}

pub(super) fn qk_block_i8(
    q: &[i8],
    heads: usize,
    k_tile: usize,
    keys: &[i8],
    tiles: &mut [i32],
    ldt: usize,
) {
    let d = q.len();
    let dh = d / heads;
    for (j, krow) in keys.chunks_exact(d).enumerate() {
        for_qk_chunks(heads, dh, k_tile, |c, l0, l1| {
            let mut acc = 0i32;
            for (&x, &y) in q[l0..l1].iter().zip(&krow[l0..l1]) {
                acc += x as i32 * y as i32;
            }
            tiles[c * ldt + j] = acc;
        });
    }
}

pub(super) fn pv_block_i8(
    p: &[i8],
    ldp: usize,
    values: &[i8],
    heads: usize,
    out: &mut [i32],
    accumulate: bool,
) {
    let d = out.len();
    let dh = d / heads;
    let len = values.len() / d;
    for (h, o) in out.chunks_exact_mut(dh).enumerate() {
        if !accumulate {
            o.fill(0);
        }
        for (j, &pj) in p[h * ldp..][..len].iter().enumerate() {
            let vrow = &values[j * d + h * dh..][..dh];
            for (oc, &v) in o.iter_mut().zip(vrow) {
                *oc += pj as i32 * v as i32;
            }
        }
    }
}

// ------------------------------------------------------------ exp / tanh

/// `2^(k/N)`'s table size: `exp` reduces `x` to `(k + r)/N · ln 2`.
pub(super) const EXP_N: u64 = 32;
/// `N / ln 2`.
pub(super) const EXP_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe); // 0x1.71547652b82fep+5
/// `1.5 · 2^52`: adding it rounds `z` to the integer `k` held in the low
/// mantissa bits.
pub(super) const EXP_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000); // 0x1.8p+52
/// The cubic in `r` approximating `2^(r/N)`, highest degree first
/// (`C0 · r³ + C1 · r² + C2 · r + 1`).
pub(super) const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394), // 0x1.c6af84b912394p-5 / N³
    f64::from_bits(0x3f2e_bfce_50fa_c4f3), // 0x1.ebfce50fac4f3p-3 / N²
    f64::from_bits(0x3f96_2e42_ff0c_52d6), // 0x1.62e42ff0c52d6p-1 / N
];
/// `T[i] = bits(2^(i/N)) − (i << 47)`: adding `k << 47` to `T[k % N]`
/// puts `k / N` into the exponent field, so the entry becomes
/// `2^(k/N)` exactly.
pub(super) static EXP_TAB: [u64; EXP_N as usize] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `(bits(x) >> 20) & 0x7ff` at and above which `exp` takes its special
/// cases: `|x| ≥ 88`, infinities and NaN.
pub(super) const EXP_SPECIAL_TOP: u32 = 0x42b;
/// The largest `x` whose `e^x` is finite in f32 (≈ 88.72).
const EXP_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this (≈ −103.97) `e^x` rounds to zero.
const EXP_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `e^x`, the one definition in the workspace: glibc 2.36's `expf`.
/// `x · N/ln 2 = k + r` is reduced with two fused multiply-adds (both
/// correctly rounded, so the same on every host), `2^(k/N)` comes from
/// [`EXP_TAB`] with `k / N` added to its exponent, and an unfused cubic
/// in f64 gives `2^(r/N)`. The f64 product rounds once to f32.
#[inline]
pub(crate) fn exp(x: f32) -> f32 {
    if (x.to_bits() >> 20) & 0x7ff >= EXP_SPECIAL_TOP {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if x.is_infinite() || x.is_nan() {
            return x + x;
        }
        if x > EXP_OFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UFLOW {
            return 0.0;
        }
    }
    let xd = x as f64;
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki % EXP_N) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_POLY;
    let z = c0 * r + c1;
    let r2 = r * r;
    let y = c2 * r + 1.0;
    let y = z * r2 + y;
    (y * s) as f32
}

/// `ln 2` split so `k · LN2_HI` is exact for the `k` [`expm1`] uses.
pub(super) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln 2 − LN2_HI`.
pub(super) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `1 / ln 2`.
pub(super) const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled `expm1` coefficients `Q1..Q5`.
pub(super) const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `e^x − 1`: fdlibm's `expm1f`, branch for branch, in f32 throughout.
/// Only [`tanh`] calls it, with `|x| < 44`.
#[inline]
fn expm1(x: f32) -> f32 {
    const HUGE: f32 = 1.0e30;
    const TINY: f32 = 1.0e-30;
    let neg = x.is_sign_negative();
    let hx = x.to_bits() & 0x7fff_ffff;
    // |x| ≥ 27·ln 2: infinities, NaN, overflow, or −1.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > f32::from_bits(0x42b1_7180) {
                return HUGE * HUGE;
            }
        }
        if neg {
            return TINY - 1.0;
        }
    }
    // Reduce to x = k·ln 2 + (hi − lo), with `c` the rounding of hi − lo.
    let (x, k, c) = if hx > 0x3eb1_7218 {
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let x = hi - lo;
        (x, k, (hi - x) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: x itself.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0, 0.0)
    };
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c;
    let e = e - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    let add_k = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    if k <= -2 || k > 56 {
        return add_k(1.0 - (e - x)) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_k(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23);
        add_k(x - (e + t) + 1.0)
    }
}

/// `tanh x`, the one definition in the workspace: fdlibm's `tanhf` over
/// [`expm1`], branch for branch. Every operation is a correctly rounded
/// f32 add, multiply or divide, so it is the same on every host.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if x.is_sign_negative() {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// [`exp`] over a slice, in place.
pub(super) fn exp_f32(xs: &mut [f32]) {
    for x in xs {
        *x = exp(*x);
    }
}

/// [`tanh`] over a slice, in place.
pub(super) fn tanh_f32(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

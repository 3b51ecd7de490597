//! Portable reference kernels — the semantic definition every SIMD
//! backend must reproduce bit-for-bit.
//!
//! Written with fixed-width lane arrays (the unrolled shape non-x86
//! autovectorizers digest well): the `MR×NR` register tile of the blocked
//! kernels, the [`LANES`]-lane K-dot of `gemm_bt_f32`. Ragged edges all go
//! through the shared [`tail_f32`]/[`tail_i8`]/[`tail_np_i8`] helpers, so
//! the edge index arithmetic — historically triplicated across partial-NR,
//! partial-MR, and remainder paths — is written once and shared with the
//! SIMD variants.

use super::{dot_f32_lanes, np_passes, qk_chunk, tail_f32, tail_i8, tail_np_i8, KC, MR, NR};

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

pub(super) fn gemm_i8(
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
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                let mut acc = [[0i32; NR]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * lda + l] as i32;
                        for (c, accv) in accr.iter_mut().enumerate() {
                            *accv += av * brow[c] as i32;
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
            if j < n {
                tail_i8(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_i8(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

pub(super) fn gemm_bt_i8(
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
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            let mut acc = 0i32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x as i32 * y as i32;
            }
            out[i * ldo + j] += acc;
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
        for c in 0..heads * dh.div_ceil(k_tile) {
            let (l0, l1) = qk_chunk(c, heads, dh, k_tile);
            let mut acc = 0i32;
            for (&x, &y) in q[l0..l1].iter().zip(&krow[l0..l1]) {
                acc += x as i32 * y as i32;
            }
            tiles[c * ldt + j] = acc;
        }
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

//! Cache-blocked, register-tiled GEMM micro-kernels with explicit-width
//! SIMD backends behind one runtime dispatch.
//!
//! These are the serial building blocks the [`crate::exec::ExecEngine`]
//! dispatches over its worker pool. Every kernel:
//!
//! - operates on an explicit `[k0, k1)` slice of the reduction axis, so the
//!   same code path serves full GEMMs and K-tiled partial-sum (PSUM) tiles;
//! - takes leading dimensions (`lda`/`ldb`/`ldo`), so the accelerator
//!   simulator can run it over sub-blocks of larger matrices in place;
//! - **accumulates** into `out` (callers zero the buffer when they want a
//!   plain product), which is what makes K-panel streaming additive;
//! - reduces every output element in a **fixed order that depends only on
//!   the kernel's argument values** — never on the backend, the thread
//!   partition, or the host CPU. Integer kernels are exact regardless;
//!   float kernels pin the order explicitly (see below).
//!
//! # Backends
//!
//! Each kernel exists in up to three implementations selected by
//! [`KernelBackend`]:
//!
//! - [`KernelBackend::Scalar`] — the portable reference, written with
//!   fixed-width lane arrays (the unrolled form non-x86 autovectorizers
//!   digest well). This is the semantic definition of every kernel.
//! - [`KernelBackend::Sse2`] — `core::arch::x86_64` 128-bit intrinsics.
//!   SSE2 is part of the x86-64 baseline, so this tier needs no feature
//!   detection; it is the floor on any x86-64 host.
//! - [`KernelBackend::Avx2`] — 256-bit intrinsics (i8×i8→i16 widening
//!   multiply-add into i32 lanes, 8-wide f32 mul/add lanes), used when
//!   `is_x86_feature_detected!("avx2")` reports support.
//!
//! # The lane-reduction-order rule
//!
//! Bit-identity across backends is a hard contract, not an accident:
//!
//! - **Integer kernels** accumulate in `i32`; integer addition associates,
//!   so any summation order produces identical bits. SIMD variants are
//!   free to use widening multiply-adds and horizontal reductions.
//! - **f32 kernels that vectorize along N** (`gemm_f32`, `gemm_at_f32`)
//!   keep one output element per SIMD lane, so the per-element reduction
//!   order is `l` increasing — exactly the scalar order. They use separate
//!   multiply and add (never FMA: fusing would change rounding).
//! - **f32 kernels that vectorize along K** (`gemm_bt_f32`) cannot keep
//!   the serial order, so the order itself is pinned lane-structured:
//!   [`LANES`] partial sums accumulate strided chunks of the `[k0, k1)`
//!   range (lane `c` takes elements at chunk offset `c`, the < [`LANES`]
//!   tail folds into lanes `0..rem`), then lanes reduce in ascending index
//!   order ([`reduce_lanes_f32`]). Every backend implements *that*
//!   definition, so scalar and SIMD agree bit-for-bit.

// BLAS-convention argument lists (operand/ld/extent/k-range) are the
// clearest way to spell these kernels.
#![allow(clippy::too_many_arguments)]

pub mod lanes;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// Register-tile height: rows of `a` processed together.
pub(crate) const MR: usize = 4;
/// Register-tile width: columns of `out` processed together.
pub(crate) const NR: usize = 8;
/// K-panel depth: reduction slice summed into registers per pass.
pub(crate) const KC: usize = 256;
/// Fixed partial-sum lane count for f32 K-axis reductions (`gemm_bt_f32`):
/// every backend accumulates into exactly this many lanes and reduces them
/// in ascending index order, which is what keeps a 128-bit, a 256-bit, and
/// a scalar implementation bit-identical.
pub(crate) const LANES: usize = 8;

/// Environment variable that overrides kernel-backend detection
/// (`scalar` | `sse2` | `avx2`). Unknown or unsupported values panic
/// loudly — a CI job forcing the fallback must never silently run SIMD.
pub const BACKEND_ENV: &str = "APSQ_KERNEL_BACKEND";

/// The micro-kernel implementation the execution engine dispatches to.
///
/// All backends produce **bit-identical** results (see the module docs for
/// why that holds even for f32); they differ only in speed. The default is
/// [`KernelBackend::detect`], cached per process; tests and CI force a
/// specific backend with [`crate::ExecEngine::with_backend`] or the
/// [`BACKEND_ENV`] environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable fixed-width-lane reference — the semantic definition.
    Scalar,
    /// 128-bit `core::arch::x86_64` intrinsics (x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 intrinsics (runtime-detected).
    Avx2,
}

impl KernelBackend {
    /// The best supported backend on this host, resolved once per process
    /// (cached in a `OnceLock`): the [`BACKEND_ENV`] override if set,
    /// otherwise AVX2 when `is_x86_feature_detected!` reports it, SSE2 on
    /// any other x86-64, scalar elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if [`BACKEND_ENV`] names an unknown backend or one this CPU
    /// cannot run.
    pub fn detect() -> KernelBackend {
        static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
        *DETECTED.get_or_init(|| match std::env::var(BACKEND_ENV) {
            Ok(name) => {
                let bk = KernelBackend::from_name(&name).unwrap_or_else(|| {
                    panic!("{BACKEND_ENV}={name}: unknown backend (scalar|sse2|avx2)")
                });
                assert!(
                    bk.is_supported(),
                    "{BACKEND_ENV}={name}: backend not supported on this CPU"
                );
                bk
            }
            Err(_) => Self::native_best(),
        })
    }

    fn native_best() -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelBackend::Avx2
            } else {
                KernelBackend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelBackend::Scalar
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend variant, fastest last (sweep order for benches).
    pub fn all() -> [KernelBackend; 3] {
        [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
        ]
    }

    /// The backends this host can actually run, scalar first.
    pub fn supported() -> Vec<KernelBackend> {
        Self::all()
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Stable lowercase name (`"scalar"` | `"sse2"` | `"avx2"`) — the
    /// spelling benches record in `BENCH_*.json` and [`BACKEND_ENV`]
    /// accepts.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a [`KernelBackend::name`] spelling (case-insensitive).
    pub fn from_name(name: &str) -> Option<KernelBackend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "sse2" => Some(KernelBackend::Sse2),
            "avx2" => Some(KernelBackend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ------------------------------------------------------------------ dispatch

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[l, j]` for `i < m`, `j < n`,
/// with row strides `lda`, `ldb`, `ldo`.
pub(crate) fn gemm_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 engines only exist on hosts where detection
        // confirmed the feature (`ExecEngine::with_backend` asserts it).
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[j, l]` — `b` transposed
/// (`[N, K]` row-major), the backward-pass `dY · Wᵀ` primitive. The K-axis
/// reduction uses the pinned [`LANES`]-lane order (module docs).
pub(crate) fn gemm_bt_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_bt_f32(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[l, i] · b[l, j]` — `a` transposed
/// (`[K, M]` row-major), the weight-gradient `Xᵀ · dY` primitive.
///
/// Rows of `out` (columns of `a`) are independent, so the engine can
/// partition `[0, m)` across threads; the reduction order per element is
/// `l` increasing regardless of the partition or backend.
pub(crate) fn gemm_at_f32(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_at_f32(a, lda, b, ldb, out, ldo, i0, i1, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Exact integer micro-kernel:
/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[l, j]` with `i8` operands
/// widened to `i32` products, `i32` accumulation.
pub(crate) fn gemm_i8(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe { x86::sse2_gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe { x86::avx2_gemm_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Exact integer transposed-B micro-kernel:
/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[j, l]` — `b` stored `[N, K]`
/// row-major, the layout a weight-stationary PE array keeps its filter
/// rows in. Unit-stride dot products on both operands make this the
/// decode-path (`[B, d] × Wᵀ`) primitive — and the kernel where the AVX2
/// i8×i8→i16 widening multiply-add pays off hardest.
pub(crate) fn gemm_bt_i8(
    bk: KernelBackend,
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
    match bk {
        KernelBackend::Scalar => scalar::gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_bt_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

// ------------------------------------------------------- shared helpers

/// Reduces the [`LANES`] f32 partial sums in ascending index order —
/// the one and only lane-reduction every backend is allowed to use.
#[inline]
pub(super) fn reduce_lanes_f32(lanes: &[f32; LANES]) -> f32 {
    let mut s = 0.0f32;
    for &v in lanes {
        s += v;
    }
    s
}

/// The pinned-order f32 dot product over `[k0, k1)` slices: [`LANES`]
/// strided partial sums (lane `c` takes chunk offset `c`; the short tail
/// folds into lanes `0..rem`), reduced by [`reduce_lanes_f32`]. This is the
/// scalar definition the SIMD `gemm_bt_f32` variants replicate bit-for-bit.
#[inline]
pub(super) fn dot_f32_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; LANES];
    let full = x.len() - x.len() % LANES;
    let mut t = 0;
    while t < full {
        for (c, lane) in lanes.iter_mut().enumerate() {
            *lane += x[t + c] * y[t + c];
        }
        t += LANES;
    }
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

/// Ragged-edge f32 tile: rows `[i0, i1)` × cols `[j0, j1)` over the K panel
/// `[kp, kq)`, in ≤[`NR`]-wide column blocks with lane-array accumulation in
/// `l` order — the per-element reduction order of the full-size register
/// tile. The single tail path shared by the scalar kernel's partial-NR,
/// partial-MR, and remainder cases **and** by every SIMD variant's edges,
/// so edge handling is written (and audited) once.
#[inline]
pub(super) fn tail_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    kp: usize,
    kq: usize,
) {
    for i in i0..i1 {
        let mut j = j0;
        while j < j1 {
            let jn = usize::min(j + NR, j1);
            let mut acc = [0.0f32; NR];
            for l in kp..kq {
                let av = a[i * lda + l];
                for (c, accv) in acc[..jn - j].iter_mut().enumerate() {
                    *accv += av * b[l * ldb + j + c];
                }
            }
            let orow = &mut out[i * ldo + j..i * ldo + jn];
            for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                *o += v;
            }
            j = jn;
        }
    }
}

/// Ragged-edge i8→i32 tile, the integer twin of [`tail_f32`]: one tail
/// helper for every partial-NR / partial-MR / remainder case of the scalar
/// kernel and every SIMD variant's edges.
#[inline]
pub(super) fn tail_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    kp: usize,
    kq: usize,
) {
    for i in i0..i1 {
        let mut j = j0;
        while j < j1 {
            let jn = usize::min(j + NR, j1);
            let mut acc = [0i32; NR];
            for l in kp..kq {
                let av = a[i * lda + l] as i32;
                for (c, accv) in acc[..jn - j].iter_mut().enumerate() {
                    *accv += av * b[l * ldb + j + c] as i32;
                }
            }
            let orow = &mut out[i * ldo + j..i * ldo + jn];
            for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                *o += v;
            }
            j = jn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for l in 0..k {
                    acc += (a[i * k + l] as f64) * (b[l * n + j] as f64);
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn blocked_matches_naive_at_awkward_sizes() {
        for bk in KernelBackend::supported() {
            for (m, k, n) in [(1, 1, 1), (5, 7, 9), (13, 300, 17), (MR, KC + 3, NR)] {
                let a: Vec<f32> = (0..m * k)
                    .map(|x| ((x % 23) as f32) * 0.125 - 1.0)
                    .collect();
                let b: Vec<f32> = (0..k * n).map(|x| ((x % 19) as f32) * 0.25 - 2.0).collect();
                let mut out = vec![0.0f32; m * n];
                gemm_f32(bk, &a, k, &b, n, &mut out, n, m, n, 0, k);
                let want = naive_f32(&a, &b, m, k, n);
                for (x, y) in out.iter().zip(want.iter()) {
                    assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{bk} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn k_ranges_partition_the_reduction_exactly_i8() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (6, 40, 10);
            let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 5) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|x| ((x * 53 + 7) % 251) as i8).collect();
            let mut full = vec![0i32; m * n];
            gemm_i8(bk, &a, k, &b, n, &mut full, n, m, n, 0, k);
            let mut tiled = vec![0i32; m * n];
            for (k0, k1) in [(0, 13), (13, 14), (14, 40)] {
                gemm_i8(bk, &a, k, &b, n, &mut tiled, n, m, n, k0, k1);
            }
            assert_eq!(full, tiled, "{bk}");
        }
    }

    #[test]
    fn leading_dimensions_address_sub_blocks() {
        for bk in KernelBackend::supported() {
            // Compute into the top-left 2×3 corner of a 4×5 out buffer,
            // reading a 2-column slice of b.
            let (m, k, n) = (2usize, 3usize, 3usize);
            let a: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2,3]
            let b: Vec<f32> = (0..k * 5).map(|x| x as f32).collect(); // [3,5], ldb=5
            let mut out = vec![0.0f32; 4 * 5];
            gemm_f32(bk, &a, k, &b, 5, &mut out, 5, m, n, 0, k);
            for i in 0..m {
                for j in 0..n {
                    let want: f32 = (0..k).map(|l| a[i * k + l] * b[l * 5 + j]).sum();
                    assert_eq!(out[i * 5 + j], want, "{bk}");
                }
            }
            // Untouched region stays zero.
            assert!(out[5 * 3..].iter().all(|&v| v == 0.0), "{bk}");
        }
    }

    #[test]
    fn bt_and_at_match_plain() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (5, 11, 4);
            let a: Vec<f32> = (0..m * k).map(|x| (x % 13) as f32 - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|x| (x % 7) as f32 - 3.0).collect();
            let mut plain = vec![0.0f32; m * n];
            gemm_f32(bk, &a, k, &b, n, &mut plain, n, m, n, 0, k);

            // bᵀ stored [N, K]. The bt kernel reduces K in the pinned
            // lane order, so compare within rounding, not bitwise.
            let mut bt = vec![0.0f32; n * k];
            for l in 0..k {
                for j in 0..n {
                    bt[j * k + l] = b[l * n + j];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_bt_f32(bk, &a, k, &bt, k, &mut out, n, m, n, 0, k);
            for (x, y) in out.iter().zip(plain.iter()) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{bk}");
            }

            // aᵀ stored [K, M].
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for l in 0..k {
                    at[l * m + i] = a[i * k + l];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_at_f32(bk, &at, m, &b, n, &mut out, n, 0, m, n, 0, k);
            for (x, y) in out.iter().zip(plain.iter()) {
                assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{bk}");
            }
        }
    }

    #[test]
    fn bt_i8_matches_plain_i8_and_partitions_k() {
        for bk in KernelBackend::supported() {
            let (m, k, n) = (5, 23, 7);
            let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 5) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|x| ((x * 53 + 7) % 251) as i8).collect();
            let mut plain = vec![0i32; m * n];
            gemm_i8(bk, &a, k, &b, n, &mut plain, n, m, n, 0, k);

            // bᵀ stored [N, K].
            let mut bt = vec![0i8; n * k];
            for l in 0..k {
                for j in 0..n {
                    bt[j * k + l] = b[l * n + j];
                }
            }
            let mut out = vec![0i32; m * n];
            gemm_bt_i8(bk, &a, k, &bt, k, &mut out, n, m, n, 0, k);
            assert_eq!(out, plain, "{bk}");

            // K ranges partition the reduction exactly (integer addition).
            let mut tiled = vec![0i32; m * n];
            for (k0, k1) in [(0, 9), (9, 10), (10, 23)] {
                gemm_bt_i8(bk, &a, k, &bt, k, &mut tiled, n, m, n, k0, k1);
            }
            assert_eq!(tiled, plain, "{bk}");
        }
    }

    /// Every supported SIMD backend must agree with the scalar reference
    /// bit-for-bit, across ragged shapes and k-ranges — the unit-level
    /// smoke for the contract the backend proptests sweep at scale.
    #[test]
    fn simd_backends_bit_identical_to_scalar() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (MR, 16, NR),
            (MR + 1, 17, NR + 3),
            (2 * MR + 3, KC + 9, 3 * NR + 5),
            (7, LANES * 4 + 3, 9),
        ];
        for bk in KernelBackend::supported() {
            for &(m, k, n) in &shapes {
                let af: Vec<f32> = (0..m * k)
                    .map(|x| ((x * 31 + 7) % 101) as f32 * 0.03 - 1.5)
                    .collect();
                let bf: Vec<f32> = (0..k * n)
                    .map(|x| ((x * 17 + 3) % 97) as f32 * 0.05 - 2.4)
                    .collect();
                let ai: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect();
                let bi: Vec<i8> = (0..k * n).map(|x| ((x * 73 + 5) % 251) as i8).collect();
                let btf: Vec<f32> = (0..n * k)
                    .map(|x| ((x * 13 + 1) % 89) as f32 * 0.04 - 1.8)
                    .collect();
                let bti: Vec<i8> = (0..n * k).map(|x| ((x * 29 + 3) % 253) as i8).collect();
                let atf: Vec<f32> = (0..k * m)
                    .map(|x| ((x * 11 + 5) % 83) as f32 * 0.06 - 2.5)
                    .collect();
                for (k0, k1) in [(0, k), (k / 3, k), (0, k - k / 4), (k / 3, 2 * k / 3 + 1)] {
                    let run_pair =
                        |want: &mut Vec<f32>,
                         got: &mut Vec<f32>,
                         f: &dyn Fn(KernelBackend, &mut [f32])| {
                            f(KernelBackend::Scalar, want);
                            f(bk, got);
                        };
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_f32(bk, &af, k, &bf, n, out, n, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_f32 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_bt_f32(bk, &af, k, &btf, k, out, n, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_bt_f32 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0.0f32; m * n];
                    let mut got = vec![0.0f32; m * n];
                    run_pair(&mut want, &mut got, &|bk, out| {
                        gemm_at_f32(bk, &atf, m, &bf, n, out, n, 0, m, n, k0, k1)
                    });
                    assert_eq!(want, got, "gemm_at_f32 {bk} {m}x{k}x{n} [{k0},{k1})");

                    let mut want = vec![0i32; m * n];
                    let mut got = vec![0i32; m * n];
                    gemm_i8(
                        KernelBackend::Scalar,
                        &ai,
                        k,
                        &bi,
                        n,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    gemm_i8(bk, &ai, k, &bi, n, &mut got, n, m, n, k0, k1);
                    assert_eq!(want, got, "gemm_i8 {bk} {m}x{k}x{n} [{k0},{k1})");
                    let mut want = vec![0i32; m * n];
                    let mut got = vec![0i32; m * n];
                    gemm_bt_i8(
                        KernelBackend::Scalar,
                        &ai,
                        k,
                        &bti,
                        k,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    gemm_bt_i8(bk, &ai, k, &bti, k, &mut got, n, m, n, k0, k1);
                    assert_eq!(want, got, "gemm_bt_i8 {bk} {m}x{k}x{n} [{k0},{k1})");
                }
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for bk in KernelBackend::all() {
            assert_eq!(KernelBackend::from_name(bk.name()), Some(bk));
            assert_eq!(format!("{bk}"), bk.name());
        }
        assert_eq!(KernelBackend::from_name("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::from_name("neon"), None);
    }

    #[test]
    fn detection_returns_a_supported_backend() {
        let bk = KernelBackend::detect();
        assert!(bk.is_supported());
        // Scalar is supported everywhere; x86-64 always has at least SSE2.
        assert!(KernelBackend::supported().contains(&KernelBackend::Scalar));
        #[cfg(target_arch = "x86_64")]
        assert!(KernelBackend::Sse2.is_supported());
    }
}

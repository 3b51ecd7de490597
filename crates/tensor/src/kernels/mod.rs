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
//!   detection; it is the floor on any x86-64 host. It builds the f32
//!   GEMMs, the packed-B i8 GEMM and the fused APSQ linear kernel; the
//!   attention, quantizer and transcendental kernels run their scalar
//!   bodies.
//! - [`KernelBackend::Avx2`] — 256-bit intrinsics (i16 `madd` into i32
//!   lanes, 8-wide f32 mul/add lanes), used when
//!   `is_x86_feature_detected!("avx2")` reports support.
//!
//! # The packed-B i8 kernel
//!
//! [`gemm_np_i8`] is the workspace's one i8 GEMM: every `i8 → i32`
//! product the engine runs takes its weight-stationary layout, where `b`
//! is stored once as k-pair panels `[⌈k/2⌉][n][2]`
//! ([`crate::pack_k_pairs`]), so one pair row holds both k values of
//! every column side by side. Each row of `a` contributes an activation
//! pair `(a[i, 2p], a[i, 2p + 1])`, staged once per pass and broadcast
//! against a whole run of columns; a `madd_epi16` turns that into one i32
//! partial sum per column, so the register tile accumulates straight into
//! output lanes and never reduces horizontally. A `[k0, k1)` boundary at
//! odd k splits a pair: the out-of-range half is zeroed on the activation
//! side. A caller holding a row-major `[k, n]` matrix packs it once; the
//! transposed-B `a · bᵀ` wrapper (`int8_matmul_bt`) runs each row of `a`
//! through [`qk_block_i8`] as a one-head query instead.
//!
//! # The per-block attention kernels
//!
//! Int8 decode attention reads a paged KV block where it is stored:
//! `[len, d]` code rows, `d = heads · dh`. [`qk_block_i8`] scores one
//! `[d]` query row against every key row of a block in one pass. It cuts
//! `d` into *chunks*, one per (K step `s`, head `h`): columns
//! `h·dh + [s·k_tile, min((s + 1)·k_tile, dh))`. Chunk `c = s·heads + h`
//! of row `j` lands in `tiles[c · ldt + j]`, so the caller's step-major
//! `[steps][heads][t]` tiles fill block by block ([`qk_chunk`]).
//! [`pv_block_i8`] is the P·V piece of one K step that a block holds:
//! every head's `[dh]` tile summed over the block's rows, overwriting or
//! accumulating. The AVX2 builds use `madd_epi16` on sign-extended i16
//! codes, never `maddubs`, so no sum saturates in i16. Q·Kᵀ reduces each
//! chunk with an `hadd` tree over eight rows at once. P·V interleaves two
//! value rows and madds them against a broadcast probability pair, so
//! each i32 lane is one output column. SSE2 runs the scalar body.
//!
//! # The fused APSQ linear kernel
//!
//! [`apsq_linear_i8`] is `Int8Linear`'s whole APSQ path in one call
//! (`crate::fold`): the activation rows arrive quantized and staged as the
//! pair words of each `k_tile` step, and every register tile of the
//! packed-B product runs the [`crate::FoldPlan`] in place. Per step the
//! madd loop accumulates the step's exact PSUM tile, the carried ring rows
//! are added shifted left by their exponents, and the sum is
//! round-shift-clamped into the step's ring row; the epilogue dequantizes
//! the last codes and writes `v as f32 · scale + bias`, multiplied then
//! added, as the unfused epilogue did. The ring is the only state a tile
//! keeps between steps, and no PSUM tile is ever stored. The scalar body
//! defines the fold per element: a sum formed in `i64` over saturating
//! dequantized codes, clamped into `i32`. Under the plan's `i32` proof it
//! adds `code · 2^e` in `i32` instead, which is the same sum, and an
//! overflow-checked build would panic on a broken proof. The AVX2 (4×16
//! and 4×8 tiles) and SSE2 (4×8 and 4×4 tiles) builds run only under the
//! proof and with at most [`MAX_RING`] ring rows; narrower column tails
//! and every other plan run the scalar body.
//!
//! # The transcendental kernels
//!
//! [`exp_f32`] and [`tanh_f32`] (public as [`lanes::exp_f32`] and
//! [`lanes::tanh_f32`]) are the workspace's only `exp` and `tanh`. Each
//! scalar body is a port of a libm routine, kept operation for operation:
//! `exp` is glibc 2.36's `expf` (its range reduction is two fused
//! multiply-adds, then a table of `2^(i/32)` and an unfused f64 cubic),
//! and `tanh` is fdlibm's `tanhf` over fdlibm's `expm1f`, in f32. Every
//! step is a correctly rounded IEEE operation, so the bodies give the same
//! bits on every host. The scalar and SSE2 tiers run the bodies. The AVX2
//! build runs the same operations per lane: `exp` in two f64×4 halves
//! per 8 lanes, `tanh` through every `expm1` path, blended per lane. It
//! needs FMA too, and an `Avx2` process on a host without FMA runs the
//! bodies. An exhaustive sweep finds no input where the AVX2 builds and
//! the bodies differ, nor, on glibc 2.36 (x86-64), where the bodies and
//! libm's `expf`/`tanhf` do.
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

use crate::fold::Fused;
use std::sync::OnceLock;

/// Register-tile height: rows of `a` processed together.
pub(crate) const MR: usize = 4;
/// Register-tile width: columns of `out` processed together.
pub(crate) const NR: usize = 8;
/// K-panel depth: reduction slice summed into registers per pass.
pub(crate) const KC: usize = 256;
/// K pairs per packed-B pass ([`gemm_np_i8`]): the staged activation
/// pairs of one row block cover at most [`KC`] reduction steps.
pub(crate) const KP: usize = KC / 2;
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

/// Exact integer packed-B micro-kernel:
/// `out[i, j] += Σ_{l ∈ [k0, k1)} a[i, l] · b[(l / 2) · ldb + 2j + l % 2]`
/// — `b` stored as k-pair panels (module docs), the weight-stationary
/// `[B, d] × W` layout of `Int8Linear`.
pub(crate) fn gemm_np_i8(
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
        KernelBackend::Scalar => scalar::gemm_np_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 => unsafe {
            x86::sse2_gemm_np_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_gemm_np_i8(a, lda, b, ldb, out, ldo, m, n, k0, k1)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("x86 backends are rejected at engine construction"),
    }
}

/// Per-block Q·Kᵀ (module docs): for every row `j` of `keys` (`[len, d]`
/// row-major, `d = q.len()`) and every chunk `c`,
/// `tiles[c · ldt + j] = Σ_{l ∈ chunk c} q[l] · keys[j · d + l]`,
/// overwriting. Callers check the extents.
pub(crate) fn qk_block_i8(
    bk: KernelBackend,
    q: &[i8],
    heads: usize,
    k_tile: usize,
    keys: &[i8],
    tiles: &mut [i32],
    ldt: usize,
) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe { x86::avx2_qk_block_i8(q, heads, k_tile, keys, tiles, ldt) },
        _ => scalar::qk_block_i8(q, heads, k_tile, keys, tiles, ldt),
    }
}

/// Per-block P·V (module docs): for every head `h` and column `c < dh`
/// (`dh = out.len() / heads`),
/// `out[h · dh + c] (+)= Σ_j p[h · ldp + j] · values[j · d + h · dh + c]`
/// over the `len` rows of `values` (`[len, d]`, `d = out.len()`), adding
/// to `out` when `accumulate` and overwriting it otherwise. Callers check
/// the extents.
pub(crate) fn pv_block_i8(
    bk: KernelBackend,
    p: &[i8],
    ldp: usize,
    values: &[i8],
    heads: usize,
    out: &mut [i32],
    accumulate: bool,
) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe {
            x86::avx2_pv_block_i8(p, ldp, values, heads, out, accumulate)
        },
        _ => scalar::pv_block_i8(p, ldp, values, heads, out, accumulate),
    }
}

/// The fused APSQ linear kernel (module docs, "The fused APSQ linear
/// kernel") over the `rows` staged rows of `f`: writes the `[rows, n]`
/// epilogue into `out` and, when `codes` is not empty, the last step's
/// codes into it.
pub(crate) fn apsq_linear_i8(
    bk: KernelBackend,
    f: &Fused<'_>,
    rows: usize,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let simd = f.plan.i32_exact && f.plan.ring_rows <= MAX_RING;
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 if simd => unsafe { x86::avx2_apsq_linear_i8(f, rows, out, codes) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline — always present.
        KernelBackend::Sse2 if simd => unsafe { x86::sse2_apsq_linear_i8(f, rows, out, codes) },
        _ => scalar::apsq_linear_i8(f, rows, (0, f.n), out, codes),
    }
}

/// `xs[j] = e^xs[j]`, in place, bit for bit glibc 2.36's `expf` on every
/// backend (module docs, "The transcendental kernels").
pub(crate) fn exp_f32(bk: KernelBackend, xs: &mut [f32]) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 engines only exist on hosts with AVX2 (as in
        // `gemm_f32`), and the guard confirms FMA.
        KernelBackend::Avx2 if has_fma() => unsafe { x86::avx2_exp_f32(xs) },
        _ => scalar::exp_f32(xs),
    }
}

/// `xs[j] = tanh xs[j]`, in place, bit for bit fdlibm's `tanhf` on every
/// backend (module docs, "The transcendental kernels").
pub(crate) fn tanh_f32(bk: KernelBackend, xs: &mut [f32]) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `exp_f32`.
        KernelBackend::Avx2 if has_fma() => unsafe { x86::avx2_tanh_f32(xs) },
        _ => scalar::tanh_f32(xs),
    }
}

/// `out[j] = clamp(round(xs[j] / scale), −128, 127)` as `i8`
/// ([`lanes::quantize_i8`]): the explicit AVX2 build on an `Avx2`
/// backend, the body on every other.
pub(crate) fn quantize_i8(bk: KernelBackend, xs: &[f32], scale: f32, out: &mut [i8]) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_f32`.
        KernelBackend::Avx2 => unsafe { x86::avx2_quantize_i8(xs, scale, out) },
        _ => lanes::quantize_i8_body(xs, scale, out),
    }
}

/// Whether this host has FMA, which the AVX2 builds of [`exp_f32`] and
/// [`tanh_f32`] also need (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// The scalar body of [`tanh_f32`], one element at a time.
pub(crate) use scalar::tanh as tanh_one;

// ------------------------------------------------------- shared helpers

/// The columns `[l0, l1)` of [`qk_block_i8`]'s chunk `c`: head
/// `c % heads`'s K step `c / heads` of width `k_tile` (the last step of a
/// head may be narrower).
#[inline(always)]
pub(super) fn qk_chunk(c: usize, heads: usize, dh: usize, k_tile: usize) -> (usize, usize) {
    let (s, h) = (c / heads, c % heads);
    (h * dh + s * k_tile, h * dh + dh.min((s + 1) * k_tile))
}

/// The most ring rows a SIMD build of [`apsq_linear_i8`] holds per
/// register tile; a plan with more runs the scalar body.
pub(crate) const MAX_RING: usize = 8;

/// An activation pair as the one i32 word `madd_epi16` pairs with a
/// column's `(b[2p], b[2p + 1])`: `lo` in the low half multiplies the
/// even k.
#[inline(always)]
pub(crate) fn pair_word(lo: i16, hi: i16) -> i32 {
    (lo as u16 as u32 | (hi as u16 as u32) << 16) as i32
}

/// The staged activation pairs of one [`gemm_np_i8`] row block: row `r`,
/// pass-local pair `t`.
pub(super) type Pairs = [[[i16; 2]; KP]; MR];

/// Stages the activation pairs `[pp, pq)` of rows `[i, i + rows)` of `a`:
/// pair `p` is `(a[i, 2p], a[i, 2p + 1])`, with a half outside `[k0, k1)`
/// zeroed (and never read), so a range that starts or ends at odd k
/// splits its boundary pair exactly.
#[inline(always)]
fn stage_pairs(
    a: &[i8],
    lda: usize,
    i: usize,
    rows: usize,
    (k0, k1): (usize, usize),
    (pp, pq): (usize, usize),
    pairs: &mut Pairs,
) {
    for (r, staged) in pairs[..rows].iter_mut().enumerate() {
        let arow = &a[(i + r) * lda..];
        for (s, p) in staged[..pq - pp].iter_mut().zip(pp..pq) {
            let l = 2 * p;
            let lo = if l >= k0 { arow[l] } else { 0 };
            let hi = if l + 1 < k1 { arow[l + 1] } else { 0 };
            *s = [lo as i16, hi as i16];
        }
    }
}

/// The pass structure every [`gemm_np_i8`] backend shares: the pair range
/// of `[k0, k1)` in passes of at most [`KP`] pairs, each pass over
/// [`MR`]-row blocks (the last may be shorter) whose activation pairs are
/// staged once; `strip(pairs, i, rows, (pp, pq))` then runs every column
/// tile of rows `[i, i + rows)` over pairs `[pp, pq)`.
#[inline(always)]
pub(super) fn np_passes(
    a: &[i8],
    lda: usize,
    m: usize,
    (k0, k1): (usize, usize),
    mut strip: impl FnMut(&Pairs, usize, usize, (usize, usize)),
) {
    let mut pairs: Pairs = [[[0; 2]; KP]; MR];
    let (mut pp, pend) = (k0 / 2, k1.div_ceil(2));
    while pp < pend {
        let pq = usize::min(pp + KP, pend);
        let mut i = 0;
        while i < m {
            let rows = usize::min(MR, m - i);
            stage_pairs(a, lda, i, rows, (k0, k1), (pp, pq), &mut pairs);
            strip(&pairs, i, rows, (pp, pq));
            i += rows;
        }
        pp = pq;
    }
}

/// Ragged-edge packed-B tile over staged pairs: rows `[i, i + rows)` ×
/// cols `[j0, j1)` over pass pairs `[pp, pq)`. The one tail path of the
/// scalar kernel and every SIMD variant's column edges.
#[inline]
pub(super) fn tail_np_i8(
    pairs: &Pairs,
    rows: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    (j0, j1): (usize, usize),
    (pp, pq): (usize, usize),
) {
    for (r, staged) in pairs[..rows].iter().enumerate() {
        for j in j0..j1 {
            let mut acc = 0i32;
            for (p, &[x0, x1]) in (pp..pq).zip(staged) {
                let bp = &b[p * ldb + 2 * j..p * ldb + 2 * j + 2];
                acc += x0 as i32 * bp[0] as i32 + x1 as i32 * bp[1] as i32;
            }
            out[(i + r) * ldo + j] += acc;
        }
    }
}

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
            let panels = crate::pack_k_pairs(&b, k, n);
            let mut full = vec![0i32; m * n];
            gemm_np_i8(bk, &a, k, &panels, 2 * n, &mut full, n, m, n, 0, k);
            let mut tiled = vec![0i32; m * n];
            for (k0, k1) in [(0, 13), (13, 14), (14, 40)] {
                gemm_np_i8(bk, &a, k, &panels, 2 * n, &mut tiled, n, m, n, k0, k1);
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
                let panels = crate::pack_k_pairs(&bi, k, n);
                let btf: Vec<f32> = (0..n * k)
                    .map(|x| ((x * 13 + 1) % 89) as f32 * 0.04 - 1.8)
                    .collect();
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
                    gemm_np_i8(
                        KernelBackend::Scalar,
                        &ai,
                        k,
                        &panels,
                        2 * n,
                        &mut want,
                        n,
                        m,
                        n,
                        k0,
                        k1,
                    );
                    gemm_np_i8(bk, &ai, k, &panels, 2 * n, &mut got, n, m, n, k0, k1);
                    assert_eq!(want, got, "gemm_np_i8 {bk} {m}x{k}x{n} [{k0},{k1})");
                }
            }
        }
    }

    /// The packed-B kernel equals the shared oracle
    /// ([`crate::Gemm::reference`]) over the unpacked `[k, n]` codes on
    /// every backend: odd and even k, ranges that start or end mid-pair,
    /// a range crossing a [`KP`]-pair pass, every row tail below [`MR`]
    /// and column tails below 16, 8 and 4.
    #[test]
    fn np_i8_matches_plain_i8_at_every_split() {
        for bk in KernelBackend::supported() {
            for (m, k, n) in [
                (1, 1, 1),
                (3, 5, 4),
                (4, 16, 16),
                (5, 33, 27),
                (9, KC + 9, 41),
            ] {
                let a: Vec<i8> = (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect();
                let b: Vec<i8> = (0..k * n).map(|x| ((x * 73 + 5) % 251) as i8).collect();
                let panels = crate::pack_k_pairs(&b, k, n);
                for (k0, k1) in [(0, k), (1, k), (0, k - k / 2), (k / 3, 2 * k / 3 + 1)] {
                    if k0 >= k1 {
                        continue;
                    }
                    let mut want = vec![0i32; m * n];
                    let nn = crate::Gemm {
                        k_range: k0..k1,
                        ..crate::Gemm::new(crate::Layout::NN, &a[..], &b[..], m, n, k)
                    };
                    nn.reference(&mut want);
                    let mut got = vec![0i32; m * n];
                    gemm_np_i8(bk, &a, k, &panels, 2 * n, &mut got, n, m, n, k0, k1);
                    assert_eq!(got, want, "{bk} {m}x{k}x{n} [{k0},{k1})");
                }
            }
        }
    }

    /// The inputs every `exp`/`tanh` sweep includes: signed zeros,
    /// infinities, NaNs, subnormals, `exp`'s special-case cut (±88), both
    /// ends of its finite range (±88.72, −103.97), `tanh`'s saturation
    /// (±22) and tiny cut (2^-55), and `expm1`'s 27·ln 2 — each cut with
    /// its neighbours.
    fn transcendental_edges() -> Vec<f32> {
        let mut bits = vec![
            0u32,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
        ];
        bits.extend([
            0x7f80_0001,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x0080_0000,
        ]);
        for b in [
            0x42b0_0000u32,
            0xc2b0_0000,
            0x42b1_7217,
            0xc2b1_7217,
            0xc2cf_f1b4,
            0x41b0_0000,
            0xc1b0_0000,
            0x2400_0000,
            0x4195_b844,
        ] {
            bits.extend([b - 1, b, b + 1]);
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// About 2^20 bit patterns strided over all of f32, then the edges.
    fn transcendental_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(4099)))
            .collect();
        xs.extend(transcendental_edges());
        xs
    }

    /// FNV-1a over the output bits.
    fn fnv1a(xs: &[f32]) -> u64 {
        xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Every backend this host runs, each forced in turn, gives the
    /// scalar body's bits for `exp` and `tanh` on the strided sweep, the
    /// edge inputs (also spliced into a full vector, so the AVX2 build's
    /// fallback runs) and every tail length; and the body's output hashes
    /// to the pinned checksums, which hold on every host: the body is
    /// correctly rounded IEEE arithmetic only.
    #[test]
    fn exp_and_tanh_are_the_body_on_every_backend() {
        let xs = transcendental_sweep();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut spliced: Vec<f32> = (0..64).map(|i| i as f32 * 0.37 - 11.0).collect();
        for (i, e) in transcendental_edges().into_iter().enumerate() {
            spliced[(i * 9) % 64] = e;
        }
        for (name, kernel, body, checksum) in [
            (
                "exp",
                exp_f32 as fn(KernelBackend, &mut [f32]),
                scalar::exp as fn(f32) -> f32,
                17286579507614582964,
            ),
            ("tanh", tanh_f32, scalar::tanh, 532369865028702316),
        ] {
            let want: Vec<f32> = xs.iter().map(|&x| body(x)).collect();
            assert_eq!(fnv1a(&want), checksum, "{name} body checksum");
            for bk in KernelBackend::supported() {
                let mut got = xs.clone();
                kernel(bk, &mut got);
                assert_eq!(bits(&got), bits(&want), "{name} {bk}, sweep");
                for len in 0..=spliced.len() {
                    let mut got = spliced[..len].to_vec();
                    kernel(bk, &mut got);
                    let want: Vec<f32> = spliced[..len].iter().map(|&x| body(x)).collect();
                    assert_eq!(bits(&got), bits(&want), "{name} {bk}, len {len}");
                }
            }
        }
    }

    /// Runs `check` over all 2^32 f32 bit patterns in 2^16-element
    /// blocks on two threads and returns the mismatches it counts.
    fn exhaustive(check: impl Fn(&[f32]) -> u64 + Sync) -> u64 {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u32)
                .map(|w| {
                    let check = &check;
                    s.spawn(move || {
                        let mut bad = 0;
                        for block in (w..1 << 16).step_by(2) {
                            let xs: Vec<f32> = (0..1 << 16)
                                .map(|i| f32::from_bits(block << 16 | i))
                                .collect();
                            bad += check(&xs);
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    }

    /// Counts lanes where `got` and `f` of `xs` differ in bits.
    fn mismatches(xs: &[f32], got: &[f32], f: impl Fn(f32) -> f32) -> u64 {
        let bad = xs
            .iter()
            .zip(got)
            .filter(|&(&x, y)| f(x).to_bits() != y.to_bits());
        bad.count() as u64
    }

    /// The AVX2 builds equal the scalar bodies on every f32 input (a
    /// release CI step; about a minute at release opt on two threads).
    #[test]
    #[ignore = "exhaustive 2^32 sweep: run with --release -- --ignored"]
    fn exp_and_tanh_avx2_builds_are_the_body_on_every_input() {
        if !KernelBackend::Avx2.is_supported() {
            eprintln!("no AVX2 on this host: nothing to sweep");
            return;
        }
        for (name, kernel, body) in [
            (
                "exp",
                exp_f32 as fn(KernelBackend, &mut [f32]),
                scalar::exp as fn(f32) -> f32,
            ),
            ("tanh", tanh_f32, scalar::tanh),
        ] {
            let bad = exhaustive(|xs| {
                let mut got = xs.to_vec();
                kernel(KernelBackend::Avx2, &mut got);
                mismatches(xs, &got, body)
            });
            assert_eq!(bad, 0, "{name}: AVX2 build differs from the body");
        }
    }

    /// The quantizer's edge inputs: NaNs, infinities, signed zeros,
    /// subnormals, `pred(0.5)`, the ties ±0.5/1.5/2.5, the clamp ties
    /// ±127.5/128.5 with their neighbours, and `±(2^23 + 1)`, the first
    /// odd integers past the range where `y + pred(0.5)` rounds.
    fn quantize_edges() -> Vec<f32> {
        let mut xs = vec![f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        xs.extend([0.0, -0.0, f32::from_bits(1), f32::from_bits(0x8000_0001)]);
        xs.extend([f32::from_bits(0x007f_ffff), f32::from_bits(0x807f_ffff)]);
        let pred_half = f32::from_bits(0x3eff_ffff);
        for v in [pred_half, 0.5, 1.5, 2.5, 127.5, 128.5, 8_388_609.0] {
            let b = v.to_bits();
            for x in [f32::from_bits(b - 1), v, f32::from_bits(b + 1)] {
                xs.extend([x, -x]);
            }
        }
        xs
    }

    /// The AVX2 build of the quantizer gives the body's codes on about
    /// 2^20 bit patterns strided over all of f32 plus the edge inputs,
    /// at power-of-two scales from 2^-20 to 2^20, and at every length up
    /// to 64 (its 32-, 8- and 1-lane paths); the dispatched kernel does
    /// too, whatever tier this process runs.
    #[test]
    fn quantize_i8_builds_are_the_body_on_a_strided_sweep() {
        let mut xs: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(4099)))
            .collect();
        xs.extend(quantize_edges());
        type Quantize = fn(&[f32], f32, &mut [i8]);
        let mut builds: Vec<(&str, Quantize)> = vec![("dispatched", lanes::quantize_i8)];
        #[cfg(target_arch = "x86_64")]
        if KernelBackend::Avx2.is_supported() {
            // SAFETY: this host has AVX2 (checked just above).
            builds.push(("avx2", |x, s, o| unsafe { x86::avx2_quantize_i8(x, s, o) }));
        }
        for scale in [2f32.powi(-20), 0.25, 1.0, 8.0, 2f32.powi(20)] {
            let mut want = vec![0i8; xs.len()];
            lanes::quantize_i8_body(&xs, scale, &mut want);
            for &(name, build) in &builds {
                let mut got = vec![0i8; xs.len()];
                build(&xs, scale, &mut got);
                assert_eq!(got, want, "{name}, scale {scale}");
                let edges = quantize_edges();
                for len in 0..=64 {
                    let x: Vec<f32> = (0..len).map(|i| edges[i % edges.len()]).collect();
                    let (mut got, mut want) = (vec![0i8; len], vec![0i8; len]);
                    build(&x, scale, &mut got);
                    lanes::quantize_i8_body(&x, scale, &mut want);
                    assert_eq!(got, want, "{name}, scale {scale}, len {len}");
                }
            }
        }
    }

    /// The AVX2 build of the quantizer equals its body on every f32 input
    /// at scale 1 — every quotient `x / scale` is some f32, so this covers
    /// every scale whose division is exact (a release CI step).
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[ignore = "exhaustive 2^32 sweep: run with --release -- --ignored"]
    fn quantize_i8_avx2_build_is_the_body_on_every_input() {
        if !KernelBackend::Avx2.is_supported() {
            eprintln!("no AVX2 on this host: nothing to sweep");
            return;
        }
        let bad = exhaustive(|xs| {
            let (mut got, mut want) = (vec![0i8; xs.len()], vec![0i8; xs.len()]);
            // SAFETY: this host has AVX2 (checked above).
            unsafe { x86::avx2_quantize_i8(xs, 1.0, &mut got) };
            lanes::quantize_i8_body(xs, 1.0, &mut want);
            got.iter().zip(&want).filter(|(g, w)| g != w).count() as u64
        });
        assert_eq!(bad, 0, "quantize_i8: AVX2 build differs from the body");
    }

    /// Provenance: the bodies reproduce the platform libm's `expf` and
    /// `tanhf` on every f32 input. Exact against glibc 2.36 on x86-64
    /// (whose `expf` is the FMA build); another libm may round some
    /// inputs differently, which this test then counts.
    #[test]
    #[ignore = "exhaustive 2^32 sweep against the platform libm"]
    fn exp_and_tanh_bodies_are_glibc_on_every_input() {
        for (name, body, libm) in [
            (
                "exp",
                scalar::exp as fn(f32) -> f32,
                f32::exp as fn(f32) -> f32,
            ),
            ("tanh", scalar::tanh, f32::tanh),
        ] {
            let bad = exhaustive(|xs| {
                let got: Vec<f32> = xs.iter().map(|&x| body(x)).collect();
                mismatches(xs, &got, libm)
            });
            assert_eq!(bad, 0, "{name}: body differs from libm");
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

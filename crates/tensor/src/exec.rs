//! The parallel tiled execution engine behind every GEMM, conv, and PSUM
//! stream in the workspace.
//!
//! [`ExecEngine`] owns one knob — a worker count — and dispatches the
//! cache-blocked micro-kernels in [`crate::kernels`] over a scoped thread
//! pool ([`std::thread::scope`]; no extra dependencies, no global state).
//! Consumers hold an engine as *context* and route every hot kernel through
//! it: QAT forward/backward in `apsq-nn`, the workload runners in
//! `apsq-models`, the PE-array simulator in `apsq-accel`, and the
//! paper-figure binaries in `apsq-bench`.
//!
//! # One GEMM entry
//!
//! Every product is described by one strided [`Gemm`] descriptor — operand
//! slices, a [`Layout`] (the f32 NN, NT and TN, or the i8 packed-B NP), extents
//! `m, n, k`, leading dimensions, a batch count with per-operand batch
//! strides, the reduction range `[k0, k1)`, and accumulate-or-overwrite —
//! and executed by
//! [`ExecEngine::gemm`], or streamed one K tile at a time by
//! [`ExecEngine::gemm_k_tiles`]. Both are generic over `f32` and
//! `i8 → i32`. The tensor-shaped wrappers ([`ExecEngine::matmul`],
//! [`ExecEngine::int8_matmul_bt`], …) are thin wrappers over dense descriptors.
//!
//! # Determinism
//!
//! Work is partitioned over **rows of the output**, aligned to the register
//! tile height, and each output element is reduced by exactly one worker in
//! a fixed K order. Results are therefore **bit-identical for every thread
//! count** — integer paths trivially (integer addition is exact), float
//! paths because the reduction order per element depends only on the
//! kernel and the `[k0, k1)` range, never on the partition, the leading
//! dimensions or the batch strides. The same contract extends across
//! **kernel backends**: every [`crate::KernelBackend`] (scalar reference,
//! SSE2, AVX2) implements the identical per-element reduction order, so an
//! engine produces the same bits whichever backend it dispatches (see the
//! `kernels` module docs for the lane-reduction-order rule).
//!
//! # Thread-scaling example
//!
//! ```
//! use apsq_tensor::{ExecEngine, Tensor};
//!
//! let a = Tensor::ones([96, 128]);
//! let b = Tensor::ones([128, 64]);
//!
//! let serial = ExecEngine::serial();
//! let quad = ExecEngine::with_threads(4);
//! // Same bits out regardless of parallelism:
//! assert_eq!(serial.matmul(&a, &b), quad.matmul(&a, &b));
//! ```
//!
//! # Strided operands
//!
//! Leading dimensions and batch strides address sub-blocks in place. Here
//! each of two heads multiplies its own `[3, 2]` column block of a `[3, 4]`
//! row-major matrix, with no copy:
//!
//! ```
//! use apsq_tensor::{ExecEngine, Gemm, Layout};
//!
//! let q = [1.0f32, 1.0, 2.0, 2.0]; // [heads = 2, 1, dh = 2]
//! let keys: Vec<f32> = (1..=12).map(|v| v as f32).collect(); // [t = 3, d = 4]
//! let g = Gemm {
//!     ldb: 4,       // key rows are d = 4 wide…
//!     batch: 2,     // …one batch per head…
//!     stride_b: 2,  // …whose columns start dh = 2 further right
//!     ..Gemm::new(Layout::NT, &q[..], &keys[..], 1, 3, 2)
//! };
//! let mut scores = [0.0f32; 6]; // [heads, 1, t]
//! ExecEngine::serial().gemm(&g, &mut scores);
//! assert_eq!(scores, [3.0, 11.0, 19.0, 14.0, 30.0, 46.0]);
//! ```
//!
//! # Streaming K tiles
//!
//! [`ExecEngine::gemm_k_tiles`] feeds partial-sum tiles to a fold without
//! materializing a `Vec` of them — the APSQ integration point:
//!
//! ```
//! use apsq_tensor::{ExecEngine, Gemm, Layout, Tensor};
//!
//! let eng = ExecEngine::serial();
//! let a = Tensor::ones([4, 32]);
//! let b = Tensor::ones([32, 8]);
//! let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
//! let mut running = Tensor::zeros([4, 8]);
//! eng.gemm_k_tiles(&g, 8, |_step, tile| {
//!     running = &running + tile; // a requantizing fold would go here
//! });
//! assert_eq!(running, eng.matmul(&a, &b));
//! ```

use crate::kernels;
use std::ops::Range;

/// Below this many multiply-accumulates a dispatch runs inline on the
/// calling thread. Spawning scoped workers costs tens of microseconds per
/// call, which only amortizes once a GEMM takes a few hundred — about 2M
/// MACs on a commodity core.
const PARALLEL_THRESHOLD_MACS: usize = 1 << 21;

/// A parallel tiled execution engine: a worker count plus the dispatch
/// logic that partitions output rows over a scoped thread pool.
///
/// The engine is `Copy` and trivially cheap to pass by reference; hold one
/// per training/inference context and thread it through call chains instead
/// of configuring per-call globals. See the module docs above for the
/// determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecEngine {
    threads: usize,
    spawn_threshold: usize,
    backend: kernels::KernelBackend,
}

impl Default for ExecEngine {
    /// An engine sized to the machine ([`ExecEngine::auto`]).
    fn default() -> Self {
        ExecEngine::auto()
    }
}

/// How the operands of a [`Gemm`] are stored. NN, NT and TN are the f32
/// layouts; NP is the one i8 layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `a` is `[m, k]`, `b` is `[k, n]`. `f32` only: an i8 `[k, n]`
    /// matrix is packed once with [`pack_k_pairs`] and run as NP.
    NN,
    /// `a` is `[m, k]`, `b` is stored `[n, k]`: `a · bᵀ`, the layout of
    /// key rows (the f32 attention's `Q·Kᵀ`). `f32` only: int8 attention
    /// scores whole KV blocks through [`ExecEngine::qk_block_i8`], which
    /// also runs [`ExecEngine::int8_matmul_bt`].
    NT,
    /// `a` is stored `[k, m]`, `b` is `[k, n]`: `aᵀ · b`, the
    /// weight-gradient `Xᵀ · dY` layout. `f32` only.
    TN,
    /// `a` is `[m, k]`, `b` is packed in k-pair panels `[⌈k/2⌉][n][2]`
    /// ([`pack_k_pairs`]): element `(l, j)` sits at `(l / 2) · ldb + 2j +
    /// l % 2`, so a panel row is `ldb ≥ 2n` wide. The weight-stationary
    /// `[B, d] × W` layout of every i8 product, run by a `madd` kernel
    /// that never reduces horizontally. `i8` only — there is no f32 NP
    /// kernel.
    NP,
}

/// Packs the row-major `[k, n]` i8 matrix `b` into the k-pair panels
/// `[⌈k/2⌉][n][2]` of [`Layout::NP`]: pair row `p` holds `(b[2p, j],
/// b[2p + 1, j])` for every column `j`, and an odd `k` pads its last pair
/// with a zero weight. Same bytes, one layout change, done once per
/// weight matrix.
///
/// # Panics
///
/// Panics if `b.len() != k · n`.
pub fn pack_k_pairs(b: &[i8], k: usize, n: usize) -> Vec<i8> {
    assert_eq!(b.len(), k * n, "pack_k_pairs: `b` is not [{k}, {n}]");
    let mut panels = vec![0i8; k.div_ceil(2) * 2 * n];
    for l in 0..k {
        for j in 0..n {
            panels[(l / 2) * 2 * n + 2 * j + l % 2] = b[l * n + j];
        }
    }
    panels
}

/// One strided (optionally batched) GEMM:
/// `out[β][i, j] (+)= Σ_{l ∈ k_range} A[β][i, l] · B[β][l, j]` for every
/// batch `β < batch`, `i < m`, `j < n`. An `f32` product takes the NN, NT
/// or TN [`Layout`], an `i8 → i32` product the packed NP.
///
/// Row `r` of a stored operand starts at `r · ld` within its batch, and
/// batch `β` starts at `β · stride` within its slice, so sub-blocks of
/// larger buffers (a head's columns, a PE-array tile) are addressed in
/// place. Slices need only reach the last addressed element. Build a
/// dense descriptor with [`Gemm::new`] or [`Gemm::dense`] and override
/// fields with struct-update syntax.
#[derive(Clone, Debug)]
pub struct Gemm<'a, T> {
    /// Left operand: `[m, k]` rows, or `[k, m]` for [`Layout::TN`].
    pub a: &'a [T],
    /// Right operand: `[k, n]` rows, `[n, k]` for [`Layout::NT`], or
    /// `[⌈k/2⌉]` panel rows of `2n` for [`Layout::NP`].
    pub b: &'a [T],
    /// Which operand is stored transposed.
    pub layout: Layout,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth (the full K extent of the operands).
    pub k: usize,
    /// Row stride of the stored `a`.
    pub lda: usize,
    /// Row stride of the stored `b`.
    pub ldb: usize,
    /// Row stride of the output.
    pub ldo: usize,
    /// Number of independent products.
    pub batch: usize,
    /// Distance between consecutive batches of `a`.
    pub stride_a: usize,
    /// Distance between consecutive batches of `b`.
    pub stride_b: usize,
    /// Distance between consecutive batches of the output.
    pub stride_o: usize,
    /// The reduction slice `[k0, k1)` summed (a sub-range of `0..k`).
    pub k_range: Range<usize>,
    /// Add into the output instead of overwriting it.
    pub accumulate: bool,
}

impl<'a, T> Gemm<'a, T> {
    /// A single dense row-major product with the given extents: unpadded
    /// leading dimensions for `layout`, one batch (strides set to the
    /// dense per-batch sizes), the full `0..k` range, overwrite.
    pub fn new(layout: Layout, a: &'a [T], b: &'a [T], m: usize, n: usize, k: usize) -> Self {
        let (lda, ldb, b_len) = match layout {
            Layout::NN => (k, n, k * n),
            Layout::NT => (k, k, k * n),
            Layout::TN => (m, n, k * n),
            Layout::NP => (k, 2 * n, k.div_ceil(2) * 2 * n),
        };
        Gemm {
            a,
            b,
            layout,
            m,
            n,
            k,
            lda,
            ldb,
            ldo: n,
            batch: 1,
            stride_a: m * k,
            stride_b: b_len,
            stride_o: m * n,
            k_range: 0..k,
            accumulate: false,
        }
    }

    /// [`Gemm::new`] with the extents read off two rank-2 operand shapes
    /// (stored shapes, so `b_dims` is `[n, k]` for [`Layout::NT`]; packed
    /// panels have no rank-2 shape, so [`Layout::NP`] takes the unpacked
    /// `[k, n]`).
    ///
    /// # Panics
    ///
    /// Panics if either shape is not rank-2 or the K extents disagree.
    pub fn dense(
        layout: Layout,
        a: &'a [T],
        a_dims: &[usize],
        b: &'a [T],
        b_dims: &[usize],
    ) -> Self {
        assert_eq!(a_dims.len(), 2, "gemm: `a` must be rank-2, got {a_dims:?}");
        assert_eq!(b_dims.len(), 2, "gemm: `b` must be rank-2, got {b_dims:?}");
        let ((m, k), (kb, n)) = match layout {
            Layout::NN | Layout::NP => ((a_dims[0], a_dims[1]), (b_dims[0], b_dims[1])),
            Layout::NT => ((a_dims[0], a_dims[1]), (b_dims[1], b_dims[0])),
            Layout::TN => ((a_dims[1], a_dims[0]), (b_dims[0], b_dims[1])),
        };
        assert_eq!(k, kb, "gemm: inner dimensions {k} vs {kb} disagree");
        Gemm::new(layout, a, b, m, n, k)
    }

    /// Validates every addressed element against the slices.
    fn check(&self, out_len: usize) {
        let Range { start: k0, end: k1 } = self.k_range;
        assert!(
            k0 <= k1 && k1 <= self.k,
            "gemm: k range {k0}..{k1} outside 0..{}",
            self.k
        );
        assert!(
            self.ldo >= self.n || self.m <= 1,
            "gemm: ldo {} is narrower than n {}",
            self.ldo,
            self.n
        );
        let (a_shape, b_shape) = match self.layout {
            Layout::NN => ((self.m, k1), (k1, self.n)),
            Layout::NT => ((self.m, k1), (self.n, k1)),
            Layout::TN => ((k1, self.m), (k1, self.n)),
            Layout::NP => ((self.m, k1), (k1.div_ceil(2), 2 * self.n)),
        };
        let span = |stride, (rows, cols), ld| {
            if self.batch == 0 || rows == 0 || cols == 0 {
                0
            } else {
                (self.batch - 1) * stride + (rows - 1) * ld + cols
            }
        };
        for (name, len, need) in [
            ("a", self.a.len(), span(self.stride_a, a_shape, self.lda)),
            ("b", self.b.len(), span(self.stride_b, b_shape, self.ldb)),
            (
                "out",
                out_len,
                span(self.stride_o, (self.m, self.n), self.ldo),
            ),
        ] {
            assert!(
                len >= need,
                "gemm: `{name}` must be at least {need} elements, got {len}"
            );
        }
    }
}

impl Gemm<'_, i8> {
    /// The naive oracle the i8 products are tested against: for any
    /// [`Layout`], a triple loop over the descriptor's own addressing,
    /// summed in `i64`. It writes exactly the elements
    /// [`ExecEngine::gemm`] writes, overwriting or accumulating.
    ///
    /// # Panics
    ///
    /// Panics where [`ExecEngine::gemm`] would on the extents or the
    /// slices, or if a result leaves `i32`.
    pub fn reference(&self, out: &mut [i32]) {
        self.check(out.len());
        for batch in 0..self.batch {
            let (a, b) = (batch * self.stride_a, batch * self.stride_b);
            for i in 0..self.m {
                for j in 0..self.n {
                    let mut acc = 0i64;
                    for l in self.k_range.clone() {
                        let x = match self.layout {
                            Layout::TN => self.a[a + l * self.lda + i],
                            _ => self.a[a + i * self.lda + l],
                        };
                        let w = match self.layout {
                            Layout::NN | Layout::TN => self.b[b + l * self.ldb + j],
                            Layout::NT => self.b[b + j * self.ldb + l],
                            Layout::NP => self.b[b + (l / 2) * self.ldb + 2 * j + l % 2],
                        };
                        acc += x as i64 * w as i64;
                    }
                    let o = &mut out[batch * self.stride_o + i * self.ldo + j];
                    if self.accumulate {
                        acc += *o as i64;
                    }
                    *o = i32::try_from(acc).expect("reference: a result leaves i32");
                }
            }
        }
    }
}

pub(crate) mod elem {
    use super::Layout;
    use crate::int_tensor::Int32Tensor;
    use crate::kernels::{self, KernelBackend};
    use crate::tensor::Tensor;

    /// The element types [`super::ExecEngine::gemm`] multiplies, mapping
    /// each (layout, backend) pair to its micro-kernel. Sealed: only `f32`
    /// (accumulating in `f32`) and `i8` (accumulating in `i32`) implement
    /// it.
    pub trait GemmElem: Copy + Sync {
        /// The accumulator / output element.
        type Acc: Copy + Default + Send + Sync;
        /// The tensor type a streamed K tile is handed out as.
        type Tile;
        /// The element's name in error messages.
        const NAME: &'static str;
        /// The layouts this element has a kernel for.
        const LAYOUTS: &'static [Layout];
        /// What the panic for any other layout suggests instead.
        const INSTEAD: &'static str;

        /// Accumulates output rows `[r0, r1)` into `out` (whose row 0 is
        /// global row `r0`) over the reduction slice `[k0, k1)`.
        #[allow(clippy::too_many_arguments)]
        fn kernel(
            bk: KernelBackend,
            layout: Layout,
            a: &[Self],
            lda: usize,
            b: &[Self],
            ldb: usize,
            out: &mut [Self::Acc],
            ldo: usize,
            rows: (usize, usize),
            n: usize,
            k0: usize,
            k1: usize,
        );

        /// A zero tile of the given shape.
        fn zero_tile(dims: &[usize]) -> Self::Tile;

        /// The tile's row-major storage.
        fn tile_data(tile: &mut Self::Tile) -> &mut [Self::Acc];
    }

    impl GemmElem for f32 {
        type Acc = f32;
        type Tile = Tensor;
        const NAME: &'static str = "f32";
        const LAYOUTS: &'static [Layout] = &[Layout::NN, Layout::NT, Layout::TN];
        const INSTEAD: &'static str = "";

        fn kernel(
            bk: KernelBackend,
            layout: Layout,
            a: &[f32],
            lda: usize,
            b: &[f32],
            ldb: usize,
            out: &mut [f32],
            ldo: usize,
            (r0, r1): (usize, usize),
            n: usize,
            k0: usize,
            k1: usize,
        ) {
            match layout {
                Layout::NN => kernels::gemm_f32(
                    bk,
                    &a[r0 * lda..],
                    lda,
                    b,
                    ldb,
                    out,
                    ldo,
                    r1 - r0,
                    n,
                    k0,
                    k1,
                ),
                Layout::NT => kernels::gemm_bt_f32(
                    bk,
                    &a[r0 * lda..],
                    lda,
                    b,
                    ldb,
                    out,
                    ldo,
                    r1 - r0,
                    n,
                    k0,
                    k1,
                ),
                Layout::TN => kernels::gemm_at_f32(bk, a, lda, b, ldb, out, ldo, r0, r1, n, k0, k1),
                Layout::NP => unreachable!("rejected before dispatch"),
            }
        }

        fn zero_tile(dims: &[usize]) -> Tensor {
            Tensor::zeros(dims)
        }

        fn tile_data(tile: &mut Tensor) -> &mut [f32] {
            tile.data_mut()
        }
    }

    impl GemmElem for i8 {
        type Acc = i32;
        type Tile = Int32Tensor;
        const NAME: &'static str = "i8";
        const LAYOUTS: &'static [Layout] = &[Layout::NP];
        const INSTEAD: &'static str = "; pack `b` once with `pack_k_pairs` and run `Layout::NP`";

        fn kernel(
            bk: KernelBackend,
            _layout: Layout,
            a: &[i8],
            lda: usize,
            b: &[i8],
            ldb: usize,
            out: &mut [i32],
            ldo: usize,
            (r0, r1): (usize, usize),
            n: usize,
            k0: usize,
            k1: usize,
        ) {
            kernels::gemm_np_i8(
                bk,
                &a[r0 * lda..],
                lda,
                b,
                ldb,
                out,
                ldo,
                r1 - r0,
                n,
                k0,
                k1,
            );
        }

        fn zero_tile(dims: &[usize]) -> Int32Tensor {
            Int32Tensor::zeros(dims)
        }

        fn tile_data(tile: &mut Int32Tensor) -> &mut [i32] {
            tile.data_mut()
        }
    }
}

use elem::GemmElem;

impl ExecEngine {
    /// A single-threaded engine: every kernel runs on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An engine with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "ExecEngine needs at least one thread");
        ExecEngine {
            threads,
            spawn_threshold: PARALLEL_THRESHOLD_MACS,
            backend: kernels::KernelBackend::detect(),
        }
    }

    /// An engine sized to [`std::thread::available_parallelism`] (falls
    /// back to 1 when the parallelism cannot be determined).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the inline-dispatch threshold: calls whose estimated
    /// multiply-accumulate count is below it skip the thread pool. The
    /// default (~2M MACs) amortizes the per-call cost of spawning scoped
    /// workers; set `0` to force the parallel path on every dispatch
    /// (useful for tests that must exercise the partitioning on small
    /// inputs).
    pub fn with_spawn_threshold(mut self, macs: usize) -> Self {
        self.spawn_threshold = macs;
        self
    }

    /// Overrides the micro-kernel backend. Every backend produces
    /// bit-identical results (the kernels pin the per-element reduction
    /// order); forcing one is for perf attribution and for tests that must
    /// exercise the scalar fallback on SIMD hosts. Process-wide forcing is
    /// also available via the `APSQ_KERNEL_BACKEND` env var
    /// ([`crate::kernels::BACKEND_ENV`]).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this CPU.
    pub fn with_backend(mut self, backend: kernels::KernelBackend) -> Self {
        assert!(
            backend.is_supported(),
            "kernel backend {backend} is not supported on this CPU"
        );
        self.backend = backend;
        self
    }

    /// The micro-kernel backend this engine dispatches
    /// ([`crate::KernelBackend::detect`] unless overridden).
    pub fn backend(&self) -> kernels::KernelBackend {
        self.backend
    }

    /// The rows per worker chunk of an `m`-row dispatch of `macs`
    /// multiply-accumulates, or `None` when it runs inline. Chunks are
    /// rounded up to the register-tile height, so the blocking phase (and
    /// hence the float reduction order) matches the serial schedule
    /// exactly.
    pub(crate) fn chunk_rows(&self, m: usize, macs: usize) -> Option<usize> {
        let chunks = self.threads.min(m.div_ceil(kernels::MR));
        if chunks <= 1 || macs < self.spawn_threshold {
            return None;
        }
        Some(m.div_ceil(chunks).div_ceil(kernels::MR) * kernels::MR)
    }

    /// Partitions the `m` rows of `out` (row stride `ld`, `n` addressed
    /// elements per row) into register-tile-aligned contiguous row chunks
    /// and runs `body` on each, in parallel when the estimated `macs`
    /// justify spawning. `out` needs only the minimal `(m-1)·ld + n`
    /// elements, so a strided sub-block may end at its buffer's end.
    ///
    /// `body(r0, r1, chunk)` must write only into `chunk`, whose element 0
    /// is row `r0`'s first.
    pub(crate) fn partition_rows<T: Send>(
        &self,
        out: &mut [T],
        ld: usize,
        m: usize,
        n: usize,
        macs: usize,
        body: &(impl Fn(usize, usize, &mut [T]) + Sync),
    ) {
        if m == 0 {
            return;
        }
        let out = &mut out[..(m - 1) * ld + n];
        let Some(rows) = self.chunk_rows(m, macs) else {
            body(0, m, out);
            return;
        };
        std::thread::scope(|s| {
            let mut rest = out;
            let mut r0 = 0usize;
            while r0 < m {
                let r1 = usize::min(r0 + rows, m);
                let take = if r1 == m { rest.len() } else { (r1 - r0) * ld };
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                s.spawn(move || body(r0, r1, head));
                r0 = r1;
            }
        });
    }

    /// Runs the product `g` describes into `out`, overwriting (or, with
    /// `g.accumulate`, adding to) exactly the addressed elements; every
    /// other element of `out` is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `g.k_range` leaves `0..g.k`, a slice is shorter than the
    /// last element `g` addresses in it, or `g` asks for a layout its
    /// element has no kernel for: an f32 [`Layout::NP`] product, or an i8
    /// one in any layout but NP.
    pub fn gemm<T: GemmElem>(&self, g: &Gemm<'_, T>, out: &mut [T::Acc]) {
        g.check(out.len());
        assert!(
            T::LAYOUTS.contains(&g.layout),
            "gemm: the {} {:?} layout has no kernel{}",
            T::NAME,
            g.layout,
            T::INSTEAD
        );
        if g.m == 0 || g.n == 0 {
            return;
        }
        let Range { start: k0, end: k1 } = g.k_range;
        let macs = g.m * g.n * (k1 - k0);
        for batch in 0..g.batch {
            let a = g.a.get(batch * g.stride_a..).unwrap_or_default();
            let b = g.b.get(batch * g.stride_b..).unwrap_or_default();
            let o = &mut out[batch * g.stride_o..];
            self.partition_rows(o, g.ldo, g.m, g.n, macs, &|r0, r1, chunk| {
                if !g.accumulate {
                    for i in 0..r1 - r0 {
                        chunk[i * g.ldo..i * g.ldo + g.n].fill(T::Acc::default());
                    }
                }
                if k1 > k0 {
                    T::kernel(
                        self.backend,
                        g.layout,
                        a,
                        g.lda,
                        b,
                        g.ldb,
                        chunk,
                        g.ldo,
                        (r0, r1),
                        g.n,
                        k0,
                        k1,
                    );
                }
            });
        }
    }

    /// Streams the K-tiled partial-sum (PSUM) tiles of `g` to `f`: the
    /// reduction range `g.k_range` is cut into `k_tile`-deep slices, and
    /// `f(step, tile)` receives each slice's product in accumulation order
    /// through one reusable tile — `[m, n]`, or `[batch, m, n]` when
    /// `g.batch > 1`. `Σ_step tile_step` is the full product (paper eq. 8).
    /// `g.ldo`, `g.stride_o` and `g.accumulate` describe a caller's output
    /// buffer and play no part here.
    ///
    /// # Panics
    ///
    /// Panics if `k_tile == 0` or [`ExecEngine::gemm`] would.
    pub fn gemm_k_tiles<T: GemmElem>(
        &self,
        g: &Gemm<'_, T>,
        k_tile: usize,
        mut f: impl FnMut(usize, &T::Tile),
    ) {
        assert!(k_tile > 0, "k_tile must be positive");
        let dims = if g.batch == 1 {
            vec![g.m, g.n]
        } else {
            vec![g.batch, g.m, g.n]
        };
        let mut tile = T::zero_tile(&dims);
        let Range { start, end } = g.k_range;
        for (step, k0) in (start..end).step_by(k_tile).enumerate() {
            let slice = Gemm {
                ldo: g.n,
                stride_o: g.m * g.n,
                k_range: k0..usize::min(k0 + k_tile, end),
                accumulate: false,
                ..g.clone()
            };
            self.gemm(&slice, T::tile_data(&mut tile));
            f(step, &tile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int_tensor::{Int32Tensor, Int8Tensor};
    use crate::tensor::Tensor;

    fn f32_pair(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|x| ((x * 31 + 7) % 101) as f32 * 0.03 - 1.5)
                .collect(),
            [m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n)
                .map(|x| ((x * 17 + 3) % 97) as f32 * 0.05 - 2.4)
                .collect(),
            [k, n],
        );
        (a, b)
    }

    fn i8_pair(m: usize, k: usize, n: usize) -> (Int8Tensor, Int8Tensor) {
        let a = Int8Tensor::from_vec(
            (0..m * k).map(|x| ((x * 37 + 11) % 255) as i8).collect(),
            [m, k],
        );
        let b = Int8Tensor::from_vec(
            (0..k * n).map(|x| ((x * 73 + 5) % 251) as i8).collect(),
            [k, n],
        );
        (a, b)
    }

    #[test]
    fn f32_bit_identical_across_thread_counts() {
        // Sizes chosen to exceed the inline threshold so threads really run.
        for (m, k, n) in [(37, 64, 41), (64, 129, 33)] {
            let (a, b) = f32_pair(m, k, n);
            let want = ExecEngine::serial().matmul(&a, &b);
            for threads in [2, 3, 4, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(eng.matmul(&a, &b), want, "threads={threads} {m}x{k}x{n}");
            }
        }
    }

    /// The shared oracle ([`Gemm::reference`]) of the dense `a · b`.
    fn reference(a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        let mut out = Int32Tensor::zeros([a.dims()[0], b.dims()[1]]);
        Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims()).reference(out.data_mut());
        out
    }

    /// The NP descriptor of `a · b`, with `panels` the packed `b`.
    fn np<'a>(a: &'a Int8Tensor, panels: &'a [i8], b: &Int8Tensor) -> Gemm<'a, i8> {
        Gemm::dense(Layout::NP, a.data(), a.dims(), panels, b.dims())
    }

    /// `g` over the K slice `k0..k1` as one `gemm_k_tiles` tile, by the
    /// shared oracle.
    fn reference_tile(g: &Gemm<'_, i8>, k0: usize, k1: usize) -> Int32Tensor {
        let dims = if g.batch == 1 {
            vec![g.m, g.n]
        } else {
            vec![g.batch, g.m, g.n]
        };
        let mut tile = Int32Tensor::zeros(&dims[..]);
        let slice = Gemm {
            ldo: g.n,
            stride_o: g.m * g.n,
            k_range: k0..k1,
            accumulate: false,
            ..g.clone()
        };
        slice.reference(tile.data_mut());
        tile
    }

    #[test]
    fn int8_bit_identical_across_thread_counts_and_matches_reference() {
        for (m, k, n) in [(29, 70, 31), (64, 128, 32)] {
            let (a, b) = i8_pair(m, k, n);
            let want = reference(&a, &b);
            for threads in [1, 2, 3, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(
                    eng.int8_matmul(&a, &b),
                    want,
                    "threads={threads} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn small_dispatch_runs_inline_and_still_matches() {
        let (a, b) = f32_pair(3, 4, 5);
        assert_eq!(
            ExecEngine::with_threads(8).matmul(&a, &b),
            ExecEngine::serial().matmul(&a, &b)
        );
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        // Overwrite mode replaces whatever the output held, for every
        // layout.
        let (a, b) = f32_pair(6, 10, 7);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let bt = b.transpose();
        let at = a.transpose();
        for g in [
            Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims()),
            Gemm::dense(Layout::NT, a.data(), a.dims(), bt.data(), bt.dims()),
            Gemm::dense(Layout::TN, at.data(), at.dims(), b.data(), b.dims()),
        ] {
            let mut fresh = vec![0.0f32; 6 * 7];
            eng.gemm(&g, &mut fresh);
            let mut stale = vec![123.0f32; 6 * 7];
            eng.gemm(&g, &mut stale);
            assert_eq!(stale, fresh, "{:?}", g.layout);
        }
    }

    #[test]
    fn at_acc_accumulates() {
        let (a, b) = f32_pair(5, 9, 4);
        let at = a.transpose();
        let eng = ExecEngine::serial();
        let g = Gemm::dense(Layout::TN, at.data(), at.dims(), b.data(), b.dims());
        let mut grad1 = Tensor::zeros([5, 4]);
        eng.gemm(&g, grad1.data_mut());
        let mut acc = grad1.clone();
        eng.gemm(
            &Gemm {
                accumulate: true,
                ..g
            },
            acc.data_mut(),
        );
        for (x, y) in acc.data().iter().zip(grad1.data()) {
            assert!((x - 2.0 * y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn k_tiles_stream_matches_collected_tiles() {
        // Each streamed tile is exactly the ranged product over its slice.
        let (a, b) = f32_pair(5, 23, 6);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
        let mut steps = 0;
        eng.gemm_k_tiles(&g, 7, |step, tile| {
            let k0 = step * 7;
            let mut want = vec![0.0f32; 5 * 6];
            let ranged = Gemm {
                k_range: k0..(k0 + 7).min(23),
                ..g.clone()
            };
            eng.gemm(&ranged, &mut want);
            assert_eq!(tile.data(), &want[..], "step {step}");
            assert_eq!(tile.dims(), &[5, 6]);
            steps += 1;
        });
        assert_eq!(steps, 23usize.div_ceil(7));
    }

    fn transpose_i8(b: &Int8Tensor) -> Int8Tensor {
        let (k, n) = (b.dims()[0], b.dims()[1]);
        let mut bt = vec![0i8; n * k];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b.data()[l * n + j];
            }
        }
        Int8Tensor::from_vec(bt, [n, k])
    }

    #[test]
    fn int8_bt_matches_plain_across_thread_counts() {
        for (m, k, n) in [(1, 70, 31), (13, 128, 32), (9, 41, 35)] {
            let (a, b) = i8_pair(m, k, n);
            let bt = transpose_i8(&b);
            let panels = pack_k_pairs(b.data(), k, n);
            let want = reference(&a, &b);
            for threads in [1, 3, 8] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(eng.int8_matmul_bt(&a, &bt), want, "threads={threads}");
                let mut packed = Int32Tensor::zeros([m, n]);
                eng.gemm(&np(&a, &panels, &b), packed.data_mut());
                assert_eq!(packed, want, "packed, threads={threads}");
            }
        }
    }

    /// The packed product's K tiles equal the oracle's over the `[k, n]`
    /// and the `[n, k]` descriptors of the same codes.
    #[test]
    fn int8_bt_k_tiles_match_kn_layout_tiles() {
        let (a, b) = i8_pair(6, 33, 5);
        let bt = transpose_i8(&b);
        let eng = ExecEngine::with_threads(3).with_spawn_threshold(0);
        let kn = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
        let nt = Gemm::dense(Layout::NT, a.data(), a.dims(), bt.data(), bt.dims());
        let panels = pack_k_pairs(b.data(), 33, 5);
        let mut steps = 0;
        eng.gemm_k_tiles(&np(&a, &panels, &b), 8, |step, tile| {
            let (k0, k1) = (step * 8, (step * 8 + 8).min(33));
            assert_eq!(tile, &reference_tile(&kn, k0, k1), "NN step {step}");
            assert_eq!(tile, &reference_tile(&nt, k0, k1), "NT step {step}");
            steps += 1;
        });
        assert_eq!(steps, 33usize.div_ceil(8));
    }

    /// Flat `[B, M, K]` activations and `B` weight blocks long enough for
    /// either `[N, K]` codes or `[⌈K/2⌉][N][2]` panels, per-batch contents
    /// differing.
    fn batched_i8(bsz: usize, m: usize, k: usize, n: usize) -> (Vec<i8>, Vec<i8>) {
        let a = (0..bsz * m * k)
            .map(|x| ((x * 37 + 11) % 255) as i8)
            .collect();
        let b = (0..bsz * k.div_ceil(2) * 2 * n)
            .map(|x| ((x * 73 + 5) % 251) as i8)
            .collect();
        (a, b)
    }

    /// The dense batched descriptor over `bsz` contiguous products.
    fn batched<'a, T>(
        layout: Layout,
        a: &'a [T],
        b: &'a [T],
        bsz: usize,
        mnk: [usize; 3],
    ) -> Gemm<'a, T> {
        let [m, n, k] = mnk;
        Gemm {
            batch: bsz,
            ..Gemm::new(layout, a, b, m, n, k)
        }
    }

    #[test]
    fn int8_batched_bt_matches_per_batch_bt() {
        let (bsz, m, k, n) = (3usize, 2usize, 33usize, 5usize);
        let (a, b) = batched_i8(bsz, m, k, n);
        let mut want = vec![0i32; bsz * m * n];
        batched(Layout::NT, &a, &b, bsz, [m, n, k]).reference(&mut want);
        for threads in [1usize, 3] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            for batch in 0..bsz {
                let ab =
                    Int8Tensor::from_vec(a[batch * m * k..(batch + 1) * m * k].to_vec(), [m, k]);
                let bb =
                    Int8Tensor::from_vec(b[batch * n * k..(batch + 1) * n * k].to_vec(), [n, k]);
                assert_eq!(
                    &want[batch * m * n..(batch + 1) * m * n],
                    eng.int8_matmul_bt(&ab, &bb).data(),
                    "batch {batch} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn int8_batched_bt_k_tiles_sum_to_full_gemm() {
        let (bsz, m, k, n) = (2usize, 2usize, 23usize, 3usize);
        let (a, b) = batched_i8(bsz, m, k, n);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let g = batched(Layout::NP, &a, &b, bsz, [m, n, k]);
        let mut want = Int32Tensor::zeros([bsz, m, n]);
        g.reference(want.data_mut());
        let mut full = Int32Tensor::zeros([bsz, m, n]);
        eng.gemm(&g, full.data_mut());
        assert_eq!(full, want);
        let mut acc = Int32Tensor::zeros([bsz, m, n]);
        let mut steps = 0;
        eng.gemm_k_tiles(&g, 7, |step, tile| {
            assert_eq!(step, steps);
            acc = acc.checked_add(tile).unwrap();
            steps += 1;
        });
        assert_eq!(steps, 23usize.div_ceil(7));
        assert_eq!(acc, want);
    }

    #[test]
    fn int8_batched_kn_k_tiles_sum_to_batched_matmul() {
        let (bsz, m, k, n) = (3usize, 1usize, 29usize, 6usize);
        let a: Vec<i8> = (0..bsz * m * k)
            .map(|x| ((x * 31 + 7) % 253) as i8)
            .collect();
        let b: Vec<i8> = (0..bsz * k.div_ceil(2) * 2 * n)
            .map(|x| ((x * 41 + 13) % 249) as i8)
            .collect();
        let g = batched(Layout::NP, &a, &b, bsz, [m, n, k]);
        let mut want = Int32Tensor::zeros([bsz, m, n]);
        g.reference(want.data_mut());
        for threads in [1usize, 4] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            let mut acc = Int32Tensor::zeros([bsz, m, n]);
            eng.gemm_k_tiles(&g, 8, |_, tile| {
                acc = acc.checked_add(tile).unwrap();
            });
            assert_eq!(acc, want, "threads={threads}");
        }
    }

    #[test]
    fn int8_acc_accumulates_exactly() {
        let (a, b) = i8_pair(5, 40, 6);
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let once = eng.int8_matmul(&a, &b);
        let mut acc = once.clone();
        let panels = pack_k_pairs(b.data(), 40, 6);
        let g = Gemm {
            accumulate: true,
            ..np(&a, &panels, &b)
        };
        eng.gemm(&g, acc.data_mut());
        for (x, y) in acc.data().iter().zip(once.data()) {
            assert_eq!(*x, 2 * y);
        }
    }

    #[test]
    fn int8_batched_matches_per_batch() {
        let (a0, b0) = i8_pair(3, 16, 5);
        let (mut a1, mut b1) = i8_pair(3, 16, 5);
        a1.data_mut()
            .iter_mut()
            .for_each(|v| *v = v.wrapping_add(3));
        b1.data_mut()
            .iter_mut()
            .for_each(|v| *v = v.wrapping_sub(7));
        let a = [a0.data(), a1.data()].concat();
        let b = [
            pack_k_pairs(b0.data(), 16, 5),
            pack_k_pairs(b1.data(), 16, 5),
        ]
        .concat();
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        let mut out = vec![0i32; 2 * 3 * 5];
        eng.gemm(&batched(Layout::NP, &a, &b, 2, [3, 5, 16]), &mut out);
        assert_eq!(&out[..15], reference(&a0, &b0).data());
        assert_eq!(&out[15..], reference(&a1, &b1).data());
    }

    #[test]
    fn int8_k_tiles_match_legacy_psum_tiles() {
        // Tiles straddling a register tile and the final ragged slice
        // equal the ranged products they stand for.
        let (a, b) = i8_pair(6, 33, 5);
        let eng = ExecEngine::with_threads(3).with_spawn_threshold(0);
        let panels = pack_k_pairs(b.data(), 33, 5);
        let g = np(&a, &panels, &b);
        let mut steps = 0;
        eng.gemm_k_tiles(&g, 8, |step, tile| {
            let want = reference_tile(&g, step * 8, (step * 8 + 8).min(33));
            assert_eq!(tile, &want, "step {step}");
            steps += 1;
        });
        assert_eq!(steps, 5);
    }

    #[test]
    fn tiled_fold_without_collecting_is_matmul() {
        let (a, b) = f32_pair(4, 30, 5);
        let eng = ExecEngine::serial();
        let mut folded = Tensor::zeros([4, 5]);
        eng.gemm_k_tiles(
            &Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims()),
            9,
            |_, tile| folded = &folded + tile,
        );
        // Tile-by-tile summation reassociates the float reduction, so
        // compare within rounding rather than bitwise.
        for (x, y) in folded.data().iter().zip(eng.matmul(&a, &b).data()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn engine_conv_matches_legacy_conv() {
        let x = Int8Tensor::from_vec(
            (0..3 * 9 * 9).map(|v| ((v * 29 + 3) % 251) as i8).collect(),
            [3, 9, 9],
        );
        let w = Int8Tensor::from_vec(
            (0..4 * 3 * 3 * 3)
                .map(|v| ((v * 53 + 1) % 241) as i8)
                .collect(),
            [4, 3, 3, 3],
        );
        // The reference is channel-major [Co, Ho, Wo]; the GEMM lowering
        // produces its transpose [Ho·Wo, Co].
        let direct = crate::conv::conv2d_i8_reference(&x, &w, 2);
        let pixels = 4 * 4;
        for threads in [1, 4] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            let got = eng.conv2d_i8_gemm(&x, &w, 2);
            for p in 0..pixels {
                for oc in 0..4 {
                    assert_eq!(
                        got.data()[p * 4 + oc],
                        direct.data()[oc * pixels + p],
                        "threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_matches_per_batch() {
        let a: Vec<f32> = (0..2 * 3 * 4).map(|x| x as f32 * 0.1).collect();
        let b: Vec<f32> = (0..2 * 4 * 5).map(|x| x as f32 * 0.2).collect();
        let eng = ExecEngine::serial();
        let mut out = vec![0.0f32; 2 * 3 * 5];
        eng.gemm(&batched(Layout::NN, &a, &b, 2, [3, 5, 4]), &mut out);
        for batch in 0..2 {
            let ab = Tensor::from_vec(a[batch * 12..(batch + 1) * 12].to_vec(), [3, 4]);
            let bb = Tensor::from_vec(b[batch * 20..(batch + 1) * 20].to_vec(), [4, 5]);
            assert_eq!(
                &out[batch * 15..(batch + 1) * 15],
                eng.matmul(&ab, &bb).data()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ExecEngine::with_threads(0);
    }

    /// Every i8 layout but NP is rejected before dispatch, and the panic
    /// names the packing step: NN and NT are caught and checked, TN is the
    /// panic the harness expects.
    #[test]
    #[should_panic(expected = "i8 TN layout has no kernel; pack `b` once with `pack_k_pairs`")]
    fn int8_unpacked_layouts_rejected() {
        let (a, b) = i8_pair(3, 4, 4);
        let run = |layout| {
            let mut out = vec![0i32; 4 * 4];
            let g = Gemm::new(layout, a.data(), b.data(), 4, 4, 3);
            ExecEngine::serial().gemm(&g, &mut out);
        };
        for layout in [Layout::NN, Layout::NT] {
            let err = std::panic::catch_unwind(|| run(layout)).expect_err("rejected");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains(&format!("i8 {layout:?} layout has no kernel")),
                "{msg}"
            );
            assert!(msg.contains("pack_k_pairs"), "{msg}");
        }
        run(Layout::TN);
    }

    #[test]
    #[should_panic(expected = "f32 NP layout has no kernel")]
    fn f32_np_layout_rejected() {
        let (a, b) = f32_pair(2, 4, 3);
        let mut out = vec![0.0f32; 2 * 3];
        ExecEngine::serial().gemm(
            &Gemm::new(Layout::NP, a.data(), b.data(), 2, 3, 4),
            &mut out,
        );
    }

    #[test]
    fn pack_k_pairs_interleaves_and_pads_odd_k() {
        // b = [3, 2]: rows (1, 2), (3, 4), (5, 6).
        let panels = pack_k_pairs(&[1, 2, 3, 4, 5, 6], 3, 2);
        assert_eq!(panels, [1, 3, 2, 4, 5, 0, 6, 0]);
    }

    #[test]
    fn degenerate_extents_produce_empty_tensors() {
        // Zero-row/column operands must yield empty results, not panic
        // (regression: the transposed-B product once divided by n == 0).
        let eng = ExecEngine::with_threads(2).with_spawn_threshold(0);
        assert_eq!(
            eng.matmul_bt(&Tensor::zeros([3, 4]), &Tensor::zeros([0, 4])),
            Tensor::zeros([3, 0])
        );
        assert_eq!(
            eng.matmul(&Tensor::zeros([0, 4]), &Tensor::zeros([4, 5])),
            Tensor::zeros([0, 5])
        );
        let (a0, b0) = (Tensor::zeros([4, 0]), Tensor::zeros([4, 3]));
        let tn = Gemm::dense(Layout::TN, a0.data(), a0.dims(), b0.data(), b0.dims());
        eng.gemm(&tn, &mut []);
        // An empty K range still overwrites (zeroes) the addressed output,
        // and streams no tiles.
        let (a, b) = f32_pair(2, 3, 2);
        let g = Gemm {
            k_range: 1..1,
            ..Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims())
        };
        let mut out = vec![5.0f32; 4];
        eng.gemm(&g, &mut out);
        assert_eq!(out, [0.0; 4]);
        eng.gemm_k_tiles(&g, 4, |_, _| panic!("no tiles over an empty range"));
    }
}

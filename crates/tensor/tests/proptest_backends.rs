//! Property-based SIMD⇔scalar bit-identity tests over the one strided
//! [`Gemm`] descriptor.
//!
//! Every kernel backend (`Scalar`, `Sse2`, `Avx2` where the CPU supports
//! them) must produce **bit-identical** results for the same inputs: the
//! i8 path is exact integer arithmetic in any association, and the f32
//! path pins one per-element lane-reduction order that all backends
//! implement. These properties force each backend through
//! [`ExecEngine::with_backend`] and compare against the scalar serial
//! engine across layout × element type × batch × strides × K range /
//! K tile, at random shapes (including ragged MR/NR/LANES tails) and
//! thread counts. Every i8 result is also pinned to the shared naive
//! oracle (`Gemm::reference`): the packed-B layout (`Layout::NP`, the one
//! i8 GEMM kernel) over the NN and NT descriptors of the unpacked codes,
//! and the per-block int8 attention kernels (`qk_block_i8`,
//! `pv_block_i8`) over the head-batched descriptors they stand for.

use apsq_tensor::{
    pack_k_pairs, ExecEngine, Gemm, Int32Tensor, Int8Tensor, KernelBackend, Layout, Tensor,
};
use proptest::prelude::*;
use std::fmt::Debug;

/// Deterministic seed-mixed i8 fill, so proptest-drawn seeds really vary
/// the operand data across cases.
fn seeded_i8(len: usize, seed: u32) -> Vec<i8> {
    (0..len)
        .map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8)
        .collect()
}

/// Deterministic f32 fill with awkward magnitudes (rounding-sensitive).
fn seeded_f32(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|x| {
            let h = (x as u32).wrapping_mul(2654435761).wrapping_add(seed);
            (h % 4001) as f32 / 400.0 - 5.0
        })
        .collect()
}

/// Shapes that straddle the register-tile edges: MR = 4 rows, NR = 8
/// columns, 8 f32 dot lanes. Small offsets around multiples of each
/// exercise every ragged-tail path.
fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        prop_oneof![1usize..5, 7usize..10, 15usize..18],
        (0usize..4)
            .prop_map(|e| 8 * e + 1)
            .prop_flat_map(|base| base..base + 7),
        prop_oneof![1usize..9, 15usize..19, 63usize..67, 255usize..261],
    )
}

/// [`ragged_dims`], and one case in four with `m`, `k` or `n` empty.
fn i8_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    let empty = (ragged_dims(), 0usize..3).prop_map(|((m, k, n), zero)| match zero {
        0 => (0, k, n),
        1 => (m, 0, n),
        _ => (m, k, 0),
    });
    prop_oneof![ragged_dims(), ragged_dims(), ragged_dims(), empty]
}

/// The shared oracle's K tiles of `g`, shaped as `gemm_k_tiles` hands
/// them out.
fn reference_tiles(g: &Gemm<'_, i8>, k_tile: usize) -> Vec<Int32Tensor> {
    let dims = if g.batch == 1 {
        vec![g.m, g.n]
    } else {
        vec![g.batch, g.m, g.n]
    };
    let end = g.k_range.end;
    (g.k_range.start..end)
        .step_by(k_tile)
        .map(|k0| {
            let mut tile = Int32Tensor::zeros(&dims[..]);
            let slice = Gemm {
                ldo: g.n,
                stride_o: g.m * g.n,
                k_range: k0..end.min(k0 + k_tile),
                accumulate: false,
                ..g.clone()
            };
            slice.reference(tile.data_mut());
            tile
        })
        .collect()
}

fn scalar_engine(threads: usize) -> ExecEngine {
    ExecEngine::with_threads(threads)
        .with_spawn_threshold(0)
        .with_backend(KernelBackend::Scalar)
}

/// Runs `run` on the scalar serial engine and on every supported backend
/// at `threads` workers, asserting bit-identical results.
fn same_on_every_backend<R: PartialEq + Debug>(threads: usize, run: impl Fn(&ExecEngine) -> R) {
    let want = run(&scalar_engine(1));
    for bk in KernelBackend::supported() {
        let eng = ExecEngine::with_threads(threads)
            .with_spawn_threshold(0)
            .with_backend(bk);
        prop_assert_eq!(run(&eng), want, "backend {} at {} threads", bk, threads);
    }
}

/// One strided, batched, K-ranged product over padded operands. The
/// output block sits `off` columns into rows of `ldo`, and the slice
/// handed to the engine is exactly the minimal one: it starts at the
/// block's first element and ends at its last.
#[derive(Clone, Debug)]
struct Case {
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    pad: [usize; 3],
    batch: usize,
    k_range: (usize, usize),
    off: usize,
    accumulate: bool,
}

impl Case {
    /// Stored (rows, cols) of `a` and `b`.
    fn stored(&self) -> ((usize, usize), (usize, usize)) {
        let (m, n, k) = (self.m, self.n, self.k);
        match self.layout {
            Layout::NN => ((m, k), (k, n)),
            Layout::NT => ((m, k), (n, k)),
            Layout::TN => ((k, m), (k, n)),
            Layout::NP => ((m, k), (k.div_ceil(2), 2 * n)),
        }
    }

    fn ldo(&self) -> usize {
        self.off + self.n + self.pad[2]
    }

    /// Element counts of the full `a`, `b` and output buffers.
    fn lens(&self) -> [usize; 3] {
        let ((ar, ac), (br, bc)) = self.stored();
        [
            self.batch * (ar * (ac + self.pad[0]) + 3),
            self.batch * (br * (bc + self.pad[1]) + 3),
            self.batch * self.m * self.ldo(),
        ]
    }

    fn gemm<'a, T>(&self, a: &'a [T], b: &'a [T]) -> Gemm<'a, T> {
        let ((_, ac), (_, bc)) = self.stored();
        let [la, lb, _] = self.lens();
        Gemm {
            lda: ac + self.pad[0],
            ldb: bc + self.pad[1],
            ldo: self.ldo(),
            batch: self.batch,
            stride_a: la / self.batch,
            stride_b: lb / self.batch,
            stride_o: self.m * self.ldo(),
            k_range: self.k_range.0..self.k_range.1,
            accumulate: self.accumulate,
            ..Gemm::new(self.layout, a, b, self.m, self.n, self.k)
        }
    }

    /// Runs the case into a sentinel-filled output buffer and returns the
    /// whole buffer, so untouched elements are compared too.
    fn run<T, A: Copy>(
        &self,
        fill: A,
        a: &[T],
        b: &[T],
        exec: impl Fn(&Gemm<'_, T>, &mut [A]),
    ) -> Vec<A> {
        let mut buf = vec![fill; self.lens()[2]];
        let end =
            self.off + (self.batch - 1) * self.m * self.ldo() + (self.m - 1) * self.ldo() + self.n;
        exec(&self.gemm(a, b), &mut buf[self.off..end]);
        buf
    }

    /// The i8 variant of this case: the same extents, strides and K range
    /// over packed panels (NP is the one i8 layout), whose padded rows any
    /// i8 codes fill.
    fn for_i8(&self) -> Case {
        Case {
            layout: Layout::NP,
            ..self.clone()
        }
    }
}

fn case() -> impl Strategy<Value = Case> {
    (
        (ragged_dims(), 0usize..3, 1usize..4),
        (0usize..5, 0usize..5, 0usize..5),
        (0usize..8, 0usize..8, 1usize..4, any::<bool>()),
    )
        .prop_map(
            |(((m, k, n), layout, batch), (pa, pb, po), (cut0, cut1, off, acc))| {
                let k0 = cut0.min(k - 1);
                let k1 = (k - cut1.min(k - k0 - 1)).max(k0 + 1);
                Case {
                    layout: [Layout::NN, Layout::NT, Layout::TN][layout],
                    m,
                    n,
                    k,
                    pad: [pa, pb, po],
                    batch,
                    k_range: (k0, k1),
                    off,
                    accumulate: acc,
                }
            },
        )
}

/// One batched, K-ranged product in both i8 weight layouts: the
/// `[n, k]` NT codes (`ldb = k + pad`) and the same codes packed into
/// k-pair panels (`ldb = 2n + pad`), over `[m, k]` activations with
/// `lda = k + pad`.
#[derive(Clone, Debug)]
struct PackedCase {
    m: usize,
    n: usize,
    k: usize,
    pad: [usize; 3],
    batch: usize,
    k_range: (usize, usize),
}

impl PackedCase {
    /// The activations, the NT codes and the packed panels, batch after
    /// batch, each padded to its leading dimension.
    fn operands(&self, seed: u32) -> (Vec<i8>, Vec<i8>, Vec<i8>) {
        let (m, n, k) = (self.m, self.n, self.k);
        let [pa, pt, pp] = self.pad;
        let a = seeded_i8(self.batch * m * (k + pa), seed);
        let (mut nt, mut np) = (Vec::new(), Vec::new());
        for batch in 0..self.batch {
            // Row-major [k, n] codes, then both stored forms of them.
            let b = seeded_i8(k * n, seed ^ 0x2545 ^ batch as u32);
            for j in 0..n {
                nt.extend((0..k).map(|l| b[l * n + j]));
                nt.extend(std::iter::repeat_n(0, pt));
            }
            for panel in pack_k_pairs(&b, k, n).chunks(2 * n) {
                np.extend_from_slice(panel);
                np.extend(std::iter::repeat_n(0, pp));
            }
        }
        (a, nt, np)
    }

    fn gemm<'a>(&self, layout: Layout, a: &'a [i8], b: &'a [i8]) -> Gemm<'a, i8> {
        let (m, n, k) = (self.m, self.n, self.k);
        let [pa, pt, pp] = self.pad;
        let (ldb, rows) = match layout {
            Layout::NT => (k + pt, n),
            _ => (2 * n + pp, k.div_ceil(2)),
        };
        Gemm {
            lda: k + pa,
            ldb,
            batch: self.batch,
            stride_a: m * (k + pa),
            stride_b: rows * ldb,
            k_range: self.k_range.0..self.k_range.1,
            ..Gemm::new(layout, a, b, m, n, k)
        }
    }
}

/// Row tails below MR = 4, column tails below 16, 8 and 4, odd and even
/// k, and a K range that may start and end mid-pair.
fn packed_case() -> impl Strategy<Value = PackedCase> {
    (
        (
            prop_oneof![1usize..5, 7usize..10, 15usize..18],
            prop_oneof![1usize..9, 13usize..20, 31usize..35, 63usize..68],
            prop_oneof![1usize..20, 30usize..40, 255usize..262],
        ),
        (0usize..4, 0usize..4, 0usize..4),
        (1usize..3, 0usize..8, 0usize..8),
    )
        .prop_map(|((m, n, k), (pa, pt, pp), (batch, cut0, cut1))| {
            let k0 = cut0.min(k - 1);
            let k1 = (k - cut1.min(k - k0 - 1)).max(k0 + 1);
            PackedCase {
                m,
                n,
                k,
                pad: [pa, pt, pp],
                batch,
                k_range: (k0, k1),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed-B product and its K-tile stream equal the shared oracle
    /// over the NT descriptor of the unpacked codes, on every backend and
    /// at 1–4 threads: odd k, K ranges and odd `k_tile`s that split a k
    /// pair, and every row and column tail of the 4×16 tile.
    #[test]
    fn packed_i8_matches_nt_on_every_backend(
        c in packed_case(),
        k_tile in prop_oneof![1usize..8, 15usize..18],
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let (a, nt, np) = c.operands(seed as u32);
        let (g_nt, g_np) = (c.gemm(Layout::NT, &a, &nt), c.gemm(Layout::NP, &a, &np));
        let len = c.batch * c.m * c.n;
        let run = |eng: &ExecEngine, g: &Gemm<'_, i8>| {
            let mut out = vec![0i32; len];
            eng.gemm(g, &mut out);
            let mut tiles = Vec::new();
            eng.gemm_k_tiles(g, k_tile, |_, t| tiles.push(t.clone()));
            (out, tiles)
        };
        let mut out = vec![0i32; len];
        g_nt.reference(&mut out);
        let want = (out, reference_tiles(&g_nt, k_tile));
        same_on_every_backend(threads, |eng| {
            let got = run(eng, &g_np);
            prop_assert_eq!(&got, &want);
            got
        });
    }

    /// The tensor-shaped f32 wrappers (plain, bᵀ) and the dense aᵀ·b
    /// product are bit-identical on every supported backend, at ragged
    /// shapes and across thread counts.
    #[test]
    fn f32_kernels_bit_identical_across_backends(
        (m, k, n) in ragged_dims(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = Tensor::from_vec(seeded_f32(m * k, seed as u32), [m, k]);
        let b = Tensor::from_vec(seeded_f32(k * n, seed as u32 ^ 0x9e37), [k, n]);
        let (at, bt) = (a.transpose(), b.transpose());
        let tn = Gemm::dense(Layout::TN, at.data(), at.dims(), b.data(), b.dims());
        same_on_every_backend(threads, |eng| {
            let mut c_at = vec![0.0f32; m * n];
            eng.gemm(&tn, &mut c_at);
            (eng.matmul(&a, &b), eng.matmul_bt(&a, &bt), c_at)
        });
    }

    /// The i8 wrappers (`[K, N]` weights packed per call, and the
    /// transposed `[N, K]` weights scored a row at a time through
    /// `qk_block_i8`) equal the shared oracle on every backend at 1–4
    /// threads, for ragged `m` and for empty `m`, `k` or `n`, where both
    /// return an all-zero `[m, n]`.
    #[test]
    fn i8_kernels_bit_identical_across_backends(
        (m, k, n) in i8_dims(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = Int8Tensor::from_vec(seeded_i8(m * k, seed as u32), [m, k]);
        let b = seeded_i8(k * n, seed as u32 ^ 0x51ed);
        // bᵀ stored [N, K].
        let bt: Vec<i8> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
        let (b, bt) = (Int8Tensor::from_vec(b, [k, n]), Int8Tensor::from_vec(bt, [n, k]));
        let mut want = Int32Tensor::zeros([m, n]);
        Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims()).reference(want.data_mut());
        same_on_every_backend(threads, |eng| {
            let (plain, t) = (eng.int8_matmul(&a, &b), eng.int8_matmul_bt(&a, &bt));
            prop_assert_eq!(&plain, &want);
            prop_assert_eq!(&t, &want);
            plain
        });
    }

    /// Streaming K tiles hand out bit-identical partial sums on every
    /// backend for every K partition of every strided, batched, ranged
    /// descriptor — the property the APSQ fold relies on when it
    /// quantizes PSUM tiles mid-reduction.
    #[test]
    fn k_tile_streams_bit_identical_across_backends(
        c in case(),
        k_tile in 1usize..33,
        threads in 1usize..4,
        seed in any::<u16>(),
    ) {
        let [la, lb, _] = c.lens();
        let (af, bf) = (seeded_f32(la, seed as u32), seeded_f32(lb, seed as u32 ^ 0xf0f0));
        same_on_every_backend(threads, |eng| {
            let mut tiles = Vec::new();
            eng.gemm_k_tiles(&c.gemm(&af, &bf), k_tile, |_, t| tiles.push(t.clone()));
            tiles
        });
        let ci = c.for_i8();
        let [la, lb, _] = ci.lens();
        let (a, b) = (seeded_i8(la, seed as u32), seeded_i8(lb, seed as u32 ^ 0x77aa));
        let want = reference_tiles(&ci.gemm(&a, &b), k_tile);
        same_on_every_backend(threads, |eng| {
            let mut tiles = Vec::new();
            eng.gemm_k_tiles(&ci.gemm(&a, &b), k_tile, |_, t| tiles.push(t.clone()));
            prop_assert_eq!(&tiles, &want);
            tiles
        });
    }

    /// One descriptor, every knob: layout × element type × batch strides
    /// × padded leading dimensions × partial K range × accumulate, with
    /// the output a strided block at a nonzero column offset passed as
    /// exactly its minimal `(m-1)·ldo + n` slice. Bit-identical across
    /// backends and thread counts, and nothing outside the block moves.
    #[test]
    fn gemm_block_bit_identical_with_leading_dims(
        c in case(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let [la, lb, _] = c.lens();
        let (af, bf) = (seeded_f32(la, seed as u32), seeded_f32(lb, seed as u32 ^ 0x1234));
        same_on_every_backend(threads, |eng| c.run(0.5f32, &af, &bf, |g, o| eng.gemm(g, o)));
        let ci = c.for_i8();
        let [la, lb, _] = ci.lens();
        let (a, b) = (seeded_i8(la, seed as u32), seeded_i8(lb, seed as u32 ^ 0x4321));
        let got = ci.run(-7i32, &a, &b, |g, o| scalar_engine(1).gemm(g, o));
        prop_assert_eq!(&got, &ci.run(-7i32, &a, &b, |g, o| g.reference(o)));
        // The block is the only thing written.
        for (idx, &v) in got.iter().enumerate() {
            if !(ci.off..ci.off + ci.n).contains(&(idx % ci.ldo())) {
                prop_assert_eq!(v, -7);
            }
        }
        same_on_every_backend(threads, |eng| ci.run(-7i32, &a, &b, |g, o| eng.gemm(g, o)));
    }

    /// Attention-shaped head products (the serve decode hot path): each
    /// head reads its `dh` columns of `[t, d]` K/V rows in place through
    /// `ld = d` and a batch stride of `dh`. The context reaches past
    /// `KC = 256` (a K panel boundary). For i8 the whole context is one
    /// block of the per-block kernels: Q·Kᵀ in `k_tile` chunks, and the
    /// M = 1 P·V product cut into K steps the way the APSQ context fold
    /// consumes it, shallow and deeper than one panel, each equal to the
    /// shared oracle over the head-batched NT and NN descriptors. The f32
    /// Q·Kᵀ runs through `gemm`.
    #[test]
    fn batched_i8_bit_identical_across_backends(
        (heads, dh) in (1usize..4, 1usize..20),
        t in prop_oneof![1usize..10, 255usize..=261, 470usize..=490],
        k_tile in prop_oneof![1usize..20, 250usize..300],
        seed in any::<u16>(),
    ) {
        let d = heads * dh;
        let (q, kv) = (seeded_i8(d, seed as u32), seeded_i8(t * d, seed as u32 ^ 0xabcd));
        let qk = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NT, &q[..], &kv[..], 1, t, dh)
        };
        let p = seeded_i8(heads * t, seed as u32 ^ 0x5a5a);
        let pv = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NN, &p[..], &kv[..], 1, dh, t)
        };
        let concat = |tiles: Vec<Int32Tensor>| -> Vec<i32> {
            tiles.iter().flat_map(|x| x.data().to_vec()).collect()
        };
        let mut ctx = vec![0i32; d];
        pv.reference(&mut ctx);
        let want = (concat(reference_tiles(&qk, k_tile)), ctx, concat(reference_tiles(&pv, k_tile)));
        same_on_every_backend(1, |eng| {
            let mut scores = vec![0i32; dh.div_ceil(k_tile) * heads * t];
            eng.qk_block_i8(&q, heads, k_tile, &kv, &mut scores, t);
            let mut ctx = vec![0i32; d];
            eng.pv_block_i8(&p, t, &kv, heads, &mut ctx, false);
            let mut tiles = vec![0i32; t.div_ceil(k_tile) * d];
            for (step, tile) in tiles.chunks_exact_mut(d).enumerate() {
                let (k0, k1) = (step * k_tile, t.min((step + 1) * k_tile));
                eng.pv_block_i8(&p[k0..], t, &kv[k0 * d..k1 * d], heads, tile, false);
            }
            let got = (scores, ctx, tiles);
            prop_assert_eq!(&got, &want);
            got
        });
        let (qf, kvf) = (seeded_f32(d, seed as u32), seeded_f32(t * d, seed as u32 ^ 0xabcd));
        let qkf = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NT, &qf[..], &kvf[..], 1, t, dh)
        };
        same_on_every_backend(1, |eng| {
            let mut scores = vec![0.0f32; heads * t];
            eng.gemm(&qkf, &mut scores);
            scores
        });
    }
}

/// One paged KV block's attention operands: a `[d]` query, `len` K/V
/// rows of `d = heads · dh` codes, and `[heads, t]` probability codes,
/// with the block at token offset `off` of a `t`-token context.
#[derive(Clone, Debug)]
struct BlockCase {
    heads: usize,
    dh: usize,
    k_tile: usize,
    len: usize,
    off: usize,
    t: usize,
    accumulate: bool,
}

impl BlockCase {
    fn d(&self) -> usize {
        self.heads * self.dh
    }

    fn steps(&self) -> usize {
        self.dh.div_ceil(self.k_tile)
    }

    /// The step-major `[steps, heads, t]` Q·Kᵀ tiles after scoring the
    /// block's rows into their columns (everything else stays −7), by
    /// `eng`'s `qk_block_i8` or, without an engine, the shared oracle over
    /// one head-batched NT descriptor per K step.
    fn qk(&self, eng: Option<&ExecEngine>, q: &[i8], keys: &[i8]) -> Vec<i32> {
        let (heads, t) = (self.heads, self.t);
        let mut tiles = vec![-7i32; self.steps() * heads * t];
        if let Some(eng) = eng {
            eng.qk_block_i8(q, heads, self.k_tile, keys, &mut tiles[self.off..], t);
            return tiles;
        }
        for step in 0..self.steps() {
            let g = Gemm {
                ldb: self.d(),
                batch: heads,
                stride_b: self.dh,
                stride_o: t,
                k_range: step * self.k_tile..self.dh.min((step + 1) * self.k_tile),
                ..Gemm::new(Layout::NT, q, keys, 1, self.len, self.dh)
            };
            g.reference(&mut tiles[step * heads * t + self.off..]);
        }
        tiles
    }

    /// The `[heads, dh]` P·V tile over the block's rows, starting from a
    /// nonzero tile (so `accumulate` shows), by `eng`'s `pv_block_i8` or,
    /// without an engine, the shared oracle over the head-batched NN
    /// descriptor.
    fn pv(&self, eng: Option<&ExecEngine>, p: &[i8], values: &[i8]) -> Vec<i32> {
        let mut out: Vec<i32> = (0..self.d() as i32).map(|x| x * 3 - 11).collect();
        let p = &p[self.off..];
        if let Some(eng) = eng {
            eng.pv_block_i8(p, self.t, values, self.heads, &mut out, self.accumulate);
            return out;
        }
        let g = Gemm {
            ldb: self.d(),
            batch: self.heads,
            stride_a: self.t,
            stride_b: self.dh,
            stride_o: self.dh,
            accumulate: self.accumulate,
            ..Gemm::new(Layout::NN, p, values, 1, self.dh, self.len)
        };
        g.reference(&mut out);
        out
    }
}

/// Heads 1..6 and `dh` 1..40; a `k_tile` from 1 to `dh + 3`, so it may
/// not divide `dh` or may exceed it; block lengths 1..17, odd ones
/// included for the P·V row-pair tail; the block anywhere in a context.
fn block_case() -> impl Strategy<Value = BlockCase> {
    (1usize..=6, 1usize..=40)
        .prop_flat_map(|(heads, dh)| {
            (
                Just((heads, dh)),
                1usize..dh + 4,
                1usize..=17,
                (0usize..20, 0usize..5),
                any::<bool>(),
            )
        })
        .prop_map(
            |((heads, dh), k_tile, len, (off, spare), accumulate)| BlockCase {
                heads,
                dh,
                k_tile,
                len,
                off,
                t: off + len + spare,
                accumulate,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The per-block attention kernels equal the shared oracle over the
    /// head-batched NT and NN descriptors they stand for, on every backend: every (K step, head) score
    /// lands in its step-major tile row and nothing else moves, and the
    /// P·V tile overwrites or accumulates as asked.
    #[test]
    fn block_attention_kernels_match_the_gemm_oracle(
        c in block_case(),
        seed in any::<u16>(),
    ) {
        let d = c.d();
        let q = seeded_i8(d, seed as u32);
        let (keys, values) = (
            seeded_i8(c.len * d, seed as u32 ^ 0x3c3c),
            seeded_i8(c.len * d, seed as u32 ^ 0xc3c3),
        );
        let p = seeded_i8(c.heads * c.t, seed as u32 ^ 0x1111);
        let want = (
            c.qk(None, &q, &keys),
            c.pv(None, &p, &values),
        );
        same_on_every_backend(1, |eng| {
            let got = (c.qk(Some(eng), &q, &keys), c.pv(Some(eng), &p, &values));
            prop_assert_eq!(&got, &want);
            got
        });
    }
}

/// Shapes whose every Q·Kᵀ chunk is 16 columns wide — the served four
/// 32-wide heads at `k_tile` 16, plus eight 16-wide heads and five
/// 32-wide heads — at every block length up to 17, against the GEMM
/// oracle on every backend.
#[test]
fn block_kernels_match_the_gemm_oracle_at_16_column_chunks() {
    for (heads, dh) in [(4, 32), (8, 16), (5, 32)] {
        for len in 1..=17 {
            let c = BlockCase {
                heads,
                dh,
                k_tile: 16,
                len,
                off: 3,
                t: len + 5,
                accumulate: len % 2 == 0,
            };
            let d = c.d();
            let (q, kv) = (seeded_i8(d, 1), seeded_i8(len * d, 2));
            let p = seeded_i8(heads * c.t, 3);
            let want = (c.qk(None, &q, &kv), c.pv(None, &p, &kv));
            same_on_every_backend(1, |eng| {
                let got = (c.qk(Some(eng), &q, &kv), c.pv(Some(eng), &p, &kv));
                assert_eq!(got, want, "{heads} heads of {dh}, {len} rows");
                got
            });
        }
    }
}

/// The env knob (`APSQ_KERNEL_BACKEND`) names round-trip through
/// `from_name`, and an engine reports whatever backend it was forced to.
#[test]
fn forced_backend_is_reported() {
    for bk in KernelBackend::supported() {
        let eng = ExecEngine::serial().with_backend(bk);
        assert_eq!(eng.backend(), bk);
        assert_eq!(KernelBackend::from_name(bk.name()), Some(bk));
    }
}

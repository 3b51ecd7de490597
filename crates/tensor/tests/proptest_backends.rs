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
//! thread counts.

use apsq_tensor::{ExecEngine, Gemm, Int8Tensor, KernelBackend, Layout, Tensor};
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

    /// The i8 variant of this case (i8 has no TN kernel).
    fn for_i8(&self) -> Case {
        let layout = match self.layout {
            Layout::TN => Layout::NN,
            l => l,
        };
        Case {
            layout,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

    /// The i8 wrappers ([K, N] and transposed-weight layouts) are exact on
    /// every backend — any association of integer adds gives one answer.
    #[test]
    fn i8_kernels_bit_identical_across_backends(
        (m, k, n) in ragged_dims(),
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = Int8Tensor::from_vec(seeded_i8(m * k, seed as u32), [m, k]);
        let b = seeded_i8(k * n, seed as u32 ^ 0x51ed);
        // bᵀ stored [N, K].
        let bt: Vec<i8> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
        let (b, bt) = (Int8Tensor::from_vec(b, [k, n]), Int8Tensor::from_vec(bt, [n, k]));
        same_on_every_backend(threads, |eng| {
            let (plain, t) = (eng.int8_matmul(&a, &b), eng.int8_matmul_bt(&a, &bt));
            prop_assert_eq!(&t, &plain);
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
        same_on_every_backend(threads, |eng| {
            let mut tiles = Vec::new();
            eng.gemm_k_tiles(&ci.gemm(&a, &b), k_tile, |_, t| tiles.push(t.clone()));
            prop_assert_eq!(tiles.len(), (ci.k_range.1 - ci.k_range.0).div_ceil(k_tile));
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
    /// `ld = d` and a batch stride of `dh`, for both element types. The
    /// context reaches past `KC = 256` (a K panel boundary), and the
    /// M = 1 P·V product also streams through `gemm_k_tiles` the way the
    /// APSQ context fold consumes it, with tiles shallow and deeper than
    /// one panel.
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
        same_on_every_backend(1, |eng| {
            let (mut scores, mut ctx) = (vec![0i32; heads * t], vec![0i32; d]);
            eng.gemm(&qk, &mut scores);
            eng.gemm(&pv, &mut ctx);
            let mut tiles = Vec::new();
            eng.gemm_k_tiles(&pv, k_tile, |_, tile| tiles.push(tile.clone()));
            (scores, ctx, tiles)
        });
        // Head h's scores equal the dense product over a copied-out head.
        let mut scores = vec![0i32; heads * t];
        scalar_engine(1).gemm(&qk, &mut scores);
        for h in 0..heads {
            let kh: Vec<i8> = (0..t).flat_map(|i| kv[i * d + h * dh..][..dh].to_vec()).collect();
            let qh = Int8Tensor::from_vec(q[h * dh..(h + 1) * dh].to_vec(), [1, dh]);
            let want = scalar_engine(1).int8_matmul_bt(&qh, &Int8Tensor::from_vec(kh, [t, dh]));
            prop_assert_eq!(&scores[h * t..(h + 1) * t], want.data());
        }
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

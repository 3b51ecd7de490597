//! The fused APSQ linear kernel: quantize → packed-B GEMM → Algorithm 1
//! → epilogue in one engine call, with every PSUM tile kept in registers.
//!
//! An APSQ layer cuts its reduction into `k_tile`-deep steps and, after
//! each step, folds the step's exact PSUM tile with the code rows it
//! carries and requantizes the sum into a ring row (paper Algorithm 1).
//! With a frozen scale schedule, what each step does is a fixed list —
//! its shift, the ring row it writes, the ring rows it folds and their
//! shifts — so a [`FoldPlan`] records that list once, and
//! [`ExecEngine::apsq_linear`] runs it on a register tile: for each
//! `k_tile` step the madd kernel accumulates the tile, then the fold adds
//! the carried rows shifted by their exponents and round-shift-clamps
//! into the step's ring row. Only those ring codes are stored; at the end
//! the last codes are dequantized and the affine epilogue
//! `code·2^e as f32 · scale + bias` writes the output once.
//!
//! The plan is built by `apsq_core` from a schedule and the
//! Algorithm-1 control ([`crate::apsq::carried_rows`]); this crate checks
//! its invariants and proves, per step, whether the fold can run in `i32`
//! registers: the [`crate::apsq::fold_fits_i32`] bound at the largest
//! tile, `k_tile·2^14 + Σ_carried max|code|·2^e ≤ i32::MAX`, and the last
//! codes dequantize without saturating. The scalar body runs the
//! [`crate::apsq::fold_carried`] step the streaming fold runs — in `i64`
//! over saturating dequantized codes, clamped into `i32` — and takes its
//! `i32` form only under the proof.
//! The SIMD builds run only under the proof; a plan or shape they do not
//! cover runs the scalar body.
//!
//! ```
//! use apsq_tensor::{pack_k_pairs, ApsqLinear, ExecEngine, FoldPlan, FoldStep};
//!
//! // k = 4 in two steps of 2, one ring row: step 1 folds step 0's codes.
//! let plan = FoldPlan::new(
//!     4,
//!     2,
//!     (-128, 127),
//!     vec![
//!         FoldStep { shift: 0, row: 0, carried: vec![] },
//!         FoldStep { shift: 1, row: 0, carried: vec![(0, 0)] },
//!     ],
//! );
//! let w = [1i8, 2, 3, 4]; // [k = 4, n = 1]
//! let panels = pack_k_pairs(&w, 4, 1);
//! let op = ApsqLinear {
//!     panels: &panels,
//!     n: 1,
//!     plan: &plan,
//!     x_scale: 1.0,
//!     out_scale: 0.5,
//!     bias: &[1.0],
//! };
//! let mut y = [0.0f32];
//! let mut codes = [0i32];
//! ExecEngine::serial().apsq_linear(&op, &[1.0, 1.0, 1.0, 1.0], &mut y, Some(&mut codes));
//! // Step 0: 1 + 2 = 3 → code 3. Step 1: 3 + 4 + 3 = 10 → round(10 / 2) = 5.
//! assert_eq!(codes, [5]);
//! assert_eq!(y, [5.0 * 2.0 * 0.5 + 1.0]);
//! ```

use crate::exec::ExecEngine;
use crate::kernels::{self, apsq};

/// One step of a [`FoldPlan`]: Algorithm 1's work after the step's PSUM
/// tile is accumulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldStep {
    /// The exponent `e` the step quantizes at: its codes are
    /// `clamp(round(input / 2^e))`.
    pub shift: u32,
    /// The ring row the step's codes are stored in.
    pub row: usize,
    /// The ring rows folded into the step's input, each with the exponent
    /// its codes dequantize at (`code · 2^e`). Empty for a plain PSUM
    /// quantization step, whose input is its tile alone.
    pub carried: Vec<(usize, u32)>,
}

/// The pairs of one step's `[k0, k1)` range in the staged activations:
/// panel pair rows `pair..pair + count`, staged at `off..off + count` of
/// each row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PairWindow {
    pub(crate) pair: usize,
    pub(crate) off: usize,
    pub(crate) count: usize,
}

/// Algorithm 1 with a frozen schedule, as a per-step list for a
/// `k`-deep reduction cut into `k_tile` steps: what each step quantizes
/// at, where it stores its codes and which code rows it folds. Built once
/// per layer; [`ExecEngine::apsq_linear`] runs it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldPlan {
    k: usize,
    k_tile: usize,
    pub(crate) qn: i32,
    pub(crate) qp: i32,
    pub(crate) ring_rows: usize,
    pub(crate) steps: Vec<FoldStep>,
    /// One per step.
    pub(crate) windows: Vec<PairWindow>,
    /// Staged activation pairs per row: `Σ windows.count`.
    stride: usize,
    /// `Σ carried.len()` over the steps.
    carried_rows: usize,
    pub(crate) i32_exact: bool,
}

impl FoldPlan {
    /// A plan for a `k`-deep reduction in steps of `k_tile` (the last may
    /// be narrower), storing codes in `[qn, qp]`, with one [`FoldStep`]
    /// per step. The ring holds one row per distinct row index the steps
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `k_tile` is 0, `k_tile > 2^16` (a tile could then
    /// leave `i32`), `qn > qp`, `steps.len() != ⌈k / k_tile⌉`, a shift
    /// exceeds 30, or a step folds a ring row no earlier step wrote.
    pub fn new(k: usize, k_tile: usize, (qn, qp): (i32, i32), steps: Vec<FoldStep>) -> Self {
        assert!(k > 0, "fold plan over an empty reduction");
        assert!(
            (1..=1 << 16).contains(&k_tile),
            "k_tile {k_tile} outside 1..=65536"
        );
        assert!(qn <= qp, "empty code range [{qn}, {qp}]");
        let np = k.div_ceil(k_tile);
        assert_eq!(
            steps.len(),
            np,
            "{} steps for a {k}-deep reduction in tiles of {k_tile}",
            steps.len()
        );
        let ring_rows = steps.iter().map(|s| s.row + 1).max().unwrap_or(0);
        let mut written = vec![false; ring_rows];
        for s in &steps {
            assert!(s.shift <= 30, "shift {} out of range 0..=30", s.shift);
            for &(row, sh) in &s.carried {
                assert!(sh <= 30, "carried shift {sh} out of range 0..=30");
                assert!(
                    written.get(row) == Some(&true),
                    "carried ring row {row} is read before any step writes it"
                );
            }
            written[s.row] = true;
        }
        let mut windows = Vec::with_capacity(np);
        let mut off = 0;
        for s in 0..np {
            let (k0, k1) = (s * k_tile, usize::min((s + 1) * k_tile, k));
            let (pair, end) = (k0 / 2, k1.div_ceil(2));
            windows.push(PairWindow {
                pair,
                off,
                count: end - pair,
            });
            off += end - pair;
        }
        // A step's tile is at most `k_tile · 2^14` in magnitude.
        let tile_mag = (k_tile as u64) << 14;
        let folds_fit = steps
            .iter()
            .all(|s| apsq::fold_fits_i32(tile_mag, (qn, qp), s.carried.len(), |r| s.carried[r].1));
        let dequant_fits = apsq::dequantize_fits_i32((qn, qp), steps[np - 1].shift);
        FoldPlan {
            k,
            k_tile,
            qn,
            qp,
            ring_rows,
            carried_rows: steps.iter().map(|s| s.carried.len()).sum(),
            steps,
            windows,
            stride: off,
            i32_exact: folds_fit && dequant_fits,
        }
    }

    /// The steps, in accumulation order.
    pub fn steps(&self) -> &[FoldStep] {
        &self.steps
    }

    /// Whether the static proof holds: every step's fold sum fits `i32`
    /// and the last codes dequantize without saturating, so the fold may
    /// run in `i32` registers.
    pub fn is_i32_exact(&self) -> bool {
        self.i32_exact
    }

    /// Code-buffer traffic per output element, in stored words: one write
    /// per step, one read per carried row.
    pub fn words_per_element(&self) -> (u64, u64) {
        (self.steps.len() as u64, self.carried_rows as u64)
    }

    /// Stages the `[rows, k]` activation codes `q` as the i32 pair words
    /// (`lo | hi << 16`) of every step's window, a half outside the step's
    /// `[k0, k1)` zeroed, so a step that starts or ends at odd k splits its
    /// boundary pair exactly. Rows are staged in blocks of up to
    /// [`kernels::MR`], pair-major within a block: the word of block row
    /// `r` (of `R`) for window pair `t` sits at `(off + t) · R + r`, so a
    /// register tile reads one contiguous run of `R` words per pair.
    fn stage(&self, q: &[i8], staged: &mut [i32]) {
        let blocks = q.chunks(kernels::MR * self.k);
        for (qb, sb) in blocks.zip(staged.chunks_mut(kernels::MR * self.stride)) {
            let rows = qb.len() / self.k;
            for (r, codes) in qb.chunks_exact(self.k).enumerate() {
                self.stage_row(codes, r, rows, sb);
            }
        }
    }

    /// Row `r` of a block of `rows` (see [`FoldPlan::stage`]).
    fn stage_row(&self, codes: &[i8], r: usize, rows: usize, block: &mut [i32]) {
        for (s, w) in self.windows.iter().enumerate() {
            let (k0, k1) = (s * self.k_tile, usize::min((s + 1) * self.k_tile, self.k));
            let dst = &mut block[w.off * rows + r..];
            let last = (w.count - 1) * rows;
            let src = &codes[2 * w.pair..usize::min(2 * (w.pair + w.count), self.k)];
            let mut pairs = src.chunks_exact(2);
            for (o, c) in dst.iter_mut().step_by(rows).zip(&mut pairs) {
                *o = kernels::pair_word(c[0] as i16, c[1] as i16);
            }
            if let [lo] = pairs.remainder() {
                // An odd k pads its last pair with a zero activation.
                dst[last] = kernels::pair_word(*lo as i16, 0);
            }
            // A boundary pair shared with the neighbouring step keeps only
            // this step's half.
            if k0 % 2 == 1 {
                dst[0] &= !0xffff;
            }
            if k1 % 2 == 1 {
                dst[last] &= 0xffff;
            }
        }
    }
}

/// One APSQ linear layer as [`ExecEngine::apsq_linear`] runs it:
/// `y = dequant(APSQ(quant(x) · W)) · out_scale + bias`.
#[derive(Clone, Copy, Debug)]
pub struct ApsqLinear<'a> {
    /// The `[k, n]` weight codes as [`crate::Layout::NP`] k-pair panels
    /// ([`crate::pack_k_pairs`]).
    pub panels: &'a [i8],
    /// Output features.
    pub n: usize,
    /// The fold the reduction runs (its `k` is the input width).
    pub plan: &'a FoldPlan,
    /// The activation quantizer's scale (`x / x_scale`, rounded half away
    /// from zero, clamped to i8).
    pub x_scale: f32,
    /// The epilogue's multiplier: the dequantized accumulator times this,
    /// then plus the bias.
    pub out_scale: f32,
    /// `[n]` epilogue bias.
    pub bias: &'a [f32],
}

/// What the kernels read for one call: the staged rows plus the layer.
pub(crate) struct Fused<'a> {
    /// `[rows][plan.stride]` staged activation pair words.
    pub(crate) staged: &'a [i32],
    pub(crate) b: &'a [i8],
    pub(crate) ldb: usize,
    pub(crate) n: usize,
    pub(crate) plan: &'a FoldPlan,
    pub(crate) scale: f32,
    pub(crate) bias: &'a [f32],
}

impl Fused<'_> {
    /// The staged pair words of window `w` for the block of `R` rows at
    /// row `i` (a multiple of [`kernels::MR`]): `R` words per pair.
    #[inline(always)]
    pub(crate) fn block<const R: usize>(&self, i: usize, w: &PairWindow) -> &[i32] {
        &self.staged[i * self.plan.stride + w.off * R..][..w.count * R]
    }
}

impl ExecEngine {
    /// Runs the APSQ linear layer `op` over the `[m, k]` rows of `x`:
    /// each row is quantized at `op.x_scale` and staged as k-pairs, the
    /// packed-B madd kernel accumulates one `k_tile` step at a time in
    /// registers, the plan's fold runs on the register tile after every
    /// step, and the `[m, n]` output `out` is written once by the
    /// epilogue. With `codes`, the last step's `[m, n]` codes are stored
    /// there too. Rows are partitioned over the engine's workers; every
    /// backend and thread count gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not whole rows of the plan's `k`, `out` (or
    /// `codes`) is not `[m, n]`, `op.panels` is not
    /// `[⌈k/2⌉][n][2]`, or `op.bias` is not `[n]`.
    pub fn apsq_linear(
        &self,
        op: &ApsqLinear<'_>,
        x: &[f32],
        out: &mut [f32],
        codes: Option<&mut [i32]>,
    ) {
        let (k, n) = (op.plan.k, op.n);
        assert_eq!(x.len() % k, 0, "apsq_linear: input is not rows of {k}");
        let m = x.len() / k;
        assert_eq!(out.len(), m * n, "apsq_linear: output is not [{m}, {n}]");
        assert_eq!(
            op.panels.len(),
            k.div_ceil(2) * 2 * n,
            "apsq_linear: weights are not [{k}, {n}] k-pair panels"
        );
        assert_eq!(op.bias.len(), n, "apsq_linear: bias is not [{n}]");
        let codes = codes.unwrap_or_default();
        assert!(
            codes.is_empty() || codes.len() == m * n,
            "apsq_linear: codes are not [{m}, {n}]"
        );
        if m == 0 || n == 0 {
            return;
        }
        let run = |x: &[f32], out: &mut [f32], codes: &mut [i32]| {
            let rows = x.len() / k;
            let mut q = vec![0i8; x.len()];
            kernels::quantize_i8(self.backend(), x, op.x_scale, &mut q);
            let mut staged = vec![0i32; rows * op.plan.stride];
            op.plan.stage(&q, &mut staged);
            let f = Fused {
                staged: &staged,
                b: op.panels,
                ldb: 2 * n,
                n,
                plan: op.plan,
                scale: op.out_scale,
                bias: op.bias,
            };
            kernels::apsq_linear_i8(self.backend(), &f, rows, out, codes);
        };
        // Rows are independent, so any cut gives the same bits.
        let Some(rows) = self.chunk_rows(m, m * n * k) else {
            return run(x, out, codes);
        };
        let code_chunks: Vec<&mut [i32]> = if codes.is_empty() {
            (0..m.div_ceil(rows)).map(|_| Default::default()).collect()
        } else {
            codes.chunks_mut(rows * n).collect()
        };
        std::thread::scope(|s| {
            let parts = x.chunks(rows * k).zip(out.chunks_mut(rows * n));
            for ((x, out), codes) in parts.zip(code_chunks) {
                s.spawn(|| run(x, out, codes));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(shift: u32, row: usize, carried: &[(usize, u32)]) -> FoldStep {
        FoldStep {
            shift,
            row,
            carried: carried.to_vec(),
        }
    }

    #[test]
    fn windows_split_boundary_pairs_at_odd_k_tile() {
        // k = 7 in steps of 3: [0,3) [3,6) [6,7) → pairs 0..2, 1..3, 3..4.
        let steps = vec![step(0, 0, &[]), step(0, 1, &[]), step(0, 0, &[(0, 0)])];
        let plan = FoldPlan::new(7, 3, (-128, 127), steps);
        let got: Vec<_> = plan.windows.iter().map(|w| (w.pair, w.count)).collect();
        assert_eq!(got, [(0, 2), (1, 2), (3, 1)]);
        let mut staged = vec![0; plan.stride];
        plan.stage(&[1, 2, 3, 4, 5, 6, 7], &mut staged);
        let word = |lo: i16, hi: i16| kernels::pair_word(lo, hi);
        assert_eq!(
            staged,
            [word(1, 2), word(3, 0), word(0, 4), word(5, 6), word(7, 0)]
        );
        // Two rows stage pair-major: each pair's word for row 0, then row 1.
        let mut two = vec![0; 2 * plan.stride];
        plan.stage(&[1, 2, 3, 4, 5, 6, 7, -1, -2, -3, -4, -5, -6, -7], &mut two);
        let want = [(1, 2), (3, 0), (0, 4), (5, 6), (7, 0)]
            .iter()
            .flat_map(|&(lo, hi)| [word(lo, hi), word(-lo, -hi)])
            .collect::<Vec<_>>();
        assert_eq!(two, want);
        assert_eq!(plan.ring_rows, 2);
        assert_eq!(plan.words_per_element(), (3, 1));
    }

    #[test]
    fn proof_covers_tile_carried_codes_and_last_dequant() {
        // 16·2^14 + 2^7·(2^23 + 2^22) = 2^18 + 3·2^29 fits; two carried
        // rows at 2^23 are 2^31 on their own.
        let ok = vec![step(0, 0, &[]), step(22, 1, &[(0, 23), (0, 22)])];
        assert!(FoldPlan::new(32, 16, (-128, 127), ok).is_i32_exact());
        let too_big = vec![step(0, 0, &[]), step(22, 1, &[(0, 23), (0, 23)])];
        assert!(!FoldPlan::new(32, 16, (-128, 127), too_big).is_i32_exact());
        // −128 · 2^24 = −2^31 still fits; 2^25 saturates.
        assert!(FoldPlan::new(4, 4, (-128, 127), vec![step(24, 0, &[])]).is_i32_exact());
        assert!(!FoldPlan::new(4, 4, (-128, 127), vec![step(25, 0, &[])]).is_i32_exact());
    }

    /// Plans the proof rejects run the scalar body's clamped-i64 fold on
    /// every backend. Every tile is 127 · 127 = 16129. Step 2 folds two
    /// 127-codes dequantized at 2^30, each saturating at `i32::MAX`, so
    /// the sum clamps at `i32::MAX` and quantizes at 2^24 to the clamped
    /// code 127. In the longer plan, step 3 folds that code back at 2^24
    /// (`127 · 2^24 + 16129`), quantizes it at 2^30 to 2, and the last
    /// codes saturate when dequantized. (Schedules from the GEMM never get
    /// this far; the semantics are the streaming fold's all the same. An
    /// i32 fold here would overflow, so an overflow-checked build of a
    /// broken proof panics on these plans.)
    #[test]
    fn scalar_fold_saturates_and_clamps() {
        let head = [
            step(0, 0, &[]),
            step(0, 1, &[]),
            step(24, 0, &[(0, 30), (1, 30)]),
        ];
        let mut longer = head.to_vec();
        longer.push(step(30, 1, &[(0, 24)]));
        let short_y = (127i32 << 24) as f32 * 0.5 + 3.0;
        for (steps, code, y_want) in [
            (head.to_vec(), 127, short_y),
            (longer, 2, i32::MAX as f32 * 0.5 + 3.0),
        ] {
            let k = steps.len();
            let plan = FoldPlan::new(k, 1, (-128, 127), steps);
            assert!(!plan.is_i32_exact());
            let panels = crate::pack_k_pairs(&vec![127; k], k, 1);
            let op = ApsqLinear {
                panels: &panels,
                n: 1,
                plan: &plan,
                x_scale: 1.0,
                out_scale: 0.5,
                bias: &[3.0],
            };
            for bk in crate::KernelBackend::supported() {
                let (mut y, mut codes) = ([0.0f32], [0i32]);
                let eng = ExecEngine::serial().with_backend(bk);
                eng.apsq_linear(&op, &vec![127.0; k], &mut y, Some(&mut codes));
                assert_eq!(codes, [code], "{bk}, {k} steps");
                assert_eq!(y, [y_want], "{bk}, {k} steps");
            }
        }
    }

    #[test]
    #[should_panic(expected = "read before any step writes it")]
    fn carried_rows_must_be_written() {
        FoldPlan::new(
            4,
            2,
            (-128, 127),
            vec![step(0, 0, &[]), step(0, 0, &[(1, 0)])],
        );
    }

    #[test]
    #[should_panic(expected = "2 steps for a 5-deep reduction")]
    fn step_count_must_cover_k() {
        FoldPlan::new(5, 2, (-128, 127), vec![step(0, 0, &[]), step(0, 0, &[])]);
    }
}

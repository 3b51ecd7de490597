//! The int8 attention row kernels (`ExecEngine::qk_row_i8` and
//! `ExecEngine::pv_row_i8`) against their unfused composition: the exact
//! per-block Q·Kᵀ and P·V tiles from a naive loop, one
//! `StreamingApsq::calibrating` stream per head, and the scalar scale maps
//! (`pow2_f32`), bit for bit on every supported kernel backend. Each
//! head's stream must also equal the naive per-element Algorithm 1
//! (`apsq_core::grouped_apsq_reference`).

use apsq_core::{grouped_apsq_reference, ApsqConfig, BufferTraffic, GroupSize, StreamingApsq};
use apsq_quant::{pow2_f32, Bitwidth};
use apsq_tensor::{ExecEngine, Int32Tensor, KernelBackend, KvSegment, RowScratch};
use proptest::prelude::*;

/// One attention row: a `[d]` query, `t` cached tokens stored in blocks
/// of `block` tokens, and the `[heads, t]` probability codes P·V reads.
#[derive(Clone, Debug)]
struct Row {
    heads: usize,
    dh: usize,
    t: usize,
    block: usize,
    q: Vec<i8>,
    k: Vec<i8>,
    v: Vec<i8>,
    k_exps: Vec<i8>,
    v_exps: Vec<i8>,
    p: Vec<i8>,
}

impl Row {
    /// A row whose codes all come from `code(i)` over one running index,
    /// and whose exponents walk the whole `i8` range.
    fn filled(heads: usize, dh: usize, t: usize, block: usize, code: impl Fn(usize) -> i8) -> Row {
        let d = heads * dh;
        let mut i = 0;
        let mut next = |n: usize| -> Vec<i8> {
            let v = (i..i + n).map(&code).collect();
            i += n;
            v
        };
        let (q, k, v, p) = (next(d), next(t * d), next(t * d), next(heads * t));
        let exps = |seed: usize| -> Vec<i8> {
            (0..t * heads)
                .map(|j| ((j * 37 + seed) % 256) as u8 as i8)
                .collect()
        };
        Row {
            heads,
            dh,
            t,
            block,
            q,
            k,
            v,
            k_exps: exps(11),
            v_exps: exps(101),
            p,
        }
    }

    fn d(&self) -> usize {
        self.heads * self.dh
    }

    /// The row's blocks, in token order.
    fn segments(&self) -> impl Iterator<Item = KvSegment<'_>> {
        let (d, h) = (self.d(), self.heads);
        (0..self.t).step_by(self.block).map(move |j0| {
            let len = self.block.min(self.t - j0);
            KvSegment {
                len,
                k_codes: &self.k[j0 * d..(j0 + len) * d],
                v_codes: &self.v[j0 * d..(j0 + len) * d],
                k_exps: &self.k_exps[j0 * h..(j0 + len) * h],
                v_exps: &self.v_exps[j0 * h..(j0 + len) * h],
            }
        })
    }

    /// Q·Kᵀ's exact tiles, `[step][head][t]`, in steps of `k_tile`
    /// columns of each head.
    fn qk_tiles(&self, k_tile: usize) -> Vec<Vec<Vec<i32>>> {
        let (d, dh) = (self.d(), self.dh);
        (0..dh)
            .step_by(k_tile)
            .map(|k0| {
                let k1 = dh.min(k0 + k_tile);
                (0..self.heads)
                    .map(|h| {
                        let cols = h * dh + k0..h * dh + k1;
                        (0..self.t)
                            .map(|j| {
                                let key = &self.k[j * d..][..d];
                                cols.clone().map(|l| self.q[l] as i32 * key[l] as i32).sum()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// P·V's exact tiles, `[step][head][dh]`, in steps of `k_tile`
    /// tokens.
    fn pv_tiles(&self, k_tile: usize) -> Vec<Vec<Vec<i32>>> {
        let (d, dh, t) = (self.d(), self.dh, self.t);
        (0..t)
            .step_by(k_tile)
            .map(|j0| {
                let j1 = t.min(j0 + k_tile);
                (0..self.heads)
                    .map(|h| {
                        (0..dh)
                            .map(|c| {
                                (j0..j1)
                                    .map(|j| {
                                        self.p[h * t + j] as i32 * self.v[j * d + h * dh + c] as i32
                                    })
                                    .sum()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

/// Each head's result from `tiles` (`[step][head][width]`): its own
/// self-calibrating stream under `config`, or its one exact tile; with
/// the streams' summed traffic and whether any step's fold could not be
/// proven to fit `i32` (the bound the streams check).
fn fold_heads(
    config: Option<ApsqConfig>,
    tiles: &[Vec<Vec<i32>>],
) -> (Vec<Vec<i32>>, BufferTraffic, bool) {
    let heads = tiles[0].len();
    let Some(config) = config else {
        assert_eq!(tiles.len(), 1, "exact mode is one step");
        return (tiles[0].clone(), BufferTraffic::new(), false);
    };
    let (np, gs) = (tiles.len(), config.group_size.get());
    let code_mag = 1u64 << (config.bits.get() - 1);
    let mut traffic = BufferTraffic::new();
    let mut fallback = false;
    let outs = (0..heads)
        .map(|h| {
            let mut stream = StreamingApsq::calibrating(np, config);
            for step in tiles {
                stream.push_slice(&step[h]);
            }
            let mut out = vec![0; tiles[0][h].len()];
            let head_traffic = stream.finish_into(&mut out);
            traffic += head_traffic;
            let head: Vec<Int32Tensor> = tiles
                .iter()
                .map(|step| Int32Tensor::from_vec(step[h].clone(), [step[h].len()]))
                .collect();
            let naive = grouped_apsq_reference(&head, None, &config);
            assert_eq!(naive.output.data(), out, "head {h}: stream vs naive oracle");
            assert_eq!(
                naive.traffic, head_traffic,
                "head {h}: stream vs naive traffic"
            );
            let exps: Vec<u32> = stream
                .finish()
                .schedule
                .scales()
                .iter()
                .map(|s| s.exponent())
                .collect();
            for (i, step) in tiles.iter().enumerate() {
                let carried = match i % gs {
                    0 => i.min(gs),
                    row if i == np - 1 => row,
                    _ => 0,
                };
                let max = step[h].iter().map(|x| x.unsigned_abs() as u64).max();
                let bound = exps[i - carried..i]
                    .iter()
                    .fold(max.unwrap_or(0), |b, &e| b + (code_mag << e));
                fallback |= bound > i32::MAX as u64;
            }
            out
        })
        .collect();
    (outs, traffic, fallback)
}

/// The row through both kernels on `eng`, one scratch for both:
/// `(scores, value scales, context, Q·Kᵀ words, P·V words)`.
type Got = (Vec<u32>, Vec<u32>, Vec<i32>, (u64, u64), (u64, u64));

fn run(eng: &ExecEngine, row: &Row, config: Option<(ApsqConfig, usize)>, scale: f32) -> Got {
    let fold = config.map(|(c, k_tile)| c.row_fold(k_tile));
    let (heads, t) = (row.heads, row.t);
    let mut scratch = RowScratch::default();
    let (mut scores, mut v_scales) = (vec![0.0f32; heads * t], vec![0.0f32; heads * t]);
    let qk = eng.qk_row_i8(
        &row.q,
        heads,
        fold.as_ref(),
        scale,
        row.segments(),
        &mut scratch,
        &mut scores,
        &mut v_scales,
    );
    let mut ctx = vec![0i32; row.d()];
    let pv = eng.pv_row_i8(
        &row.p,
        heads,
        fold.as_ref(),
        row.segments(),
        &mut scratch,
        &mut ctx,
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
    (bits(&scores), bits(&v_scales), ctx, qk, pv)
}

/// The unfused composition of [`run`], and whether either GEMM's fold
/// needed the i64 fallback.
fn oracle(row: &Row, config: Option<(ApsqConfig, usize)>, scale: f32) -> (Got, bool) {
    let (heads, t) = (row.heads, row.t);
    let (qk_tile, pv_tile) = config.map_or((row.dh, t), |(_, k)| (k, k));
    let apsq = config.map(|(c, _)| c);
    let (acc, qk_traffic, qk_fallback) = fold_heads(apsq, &row.qk_tiles(qk_tile));
    let (ctx, pv_traffic, pv_fallback) = fold_heads(apsq, &row.pv_tiles(pv_tile));
    let pow2 = |e: i8| pow2_f32(e as i32);
    let mut scores = vec![0u32; heads * t];
    let mut v_scales = vec![0u32; heads * t];
    for h in 0..heads {
        for j in 0..t {
            let e = row.k_exps[j * heads + h];
            scores[h * t + j] = (acc[h][j] as f32 * scale * pow2(e)).to_bits();
            v_scales[h * t + j] = pow2(row.v_exps[j * heads + h]).to_bits();
        }
    }
    let words = |tr: BufferTraffic| (tr.writes, tr.reads);
    let got = (
        scores,
        v_scales,
        ctx.concat(),
        words(qk_traffic),
        words(pv_traffic),
    );
    (got, qk_fallback || pv_fallback)
}

/// `row` through every supported backend equals the oracle; returns
/// whether the oracle took the i64 fallback.
fn check_every_backend(row: &Row, config: Option<(ApsqConfig, usize)>, scale: f32) -> bool {
    let (want, fallback) = oracle(row, config, scale);
    for bk in KernelBackend::supported() {
        let got = run(&ExecEngine::serial().with_backend(bk), row, config, scale);
        assert!(
            got == want,
            "backend {bk}: {} heads of {}, t {} in blocks of {}, {config:?}",
            row.heads,
            row.dh,
            row.t,
            row.block
        );
    }
    fallback
}

fn config(bits: u8, gs: usize, k_tile: usize) -> Option<(ApsqConfig, usize)> {
    let c = ApsqConfig {
        bits: Bitwidth::new(bits),
        group_size: GroupSize::new(gs),
    };
    Some((c, k_tile))
}

/// A pseudo-random i8 code per index.
fn code(seed: u64) -> impl Fn(usize) -> i8 {
    move |i| {
        let h = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 56) as u8 as i8
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every head count, odd head widths, steps of one column or token up
    /// to steps past the whole head or context, every small group size,
    /// three storage widths, blocks of 1, 3 and 16 tokens, and contexts
    /// that end mid-block and mid-step — exact mode one case in six.
    #[test]
    fn row_kernels_equal_per_head_streams(
        (heads, dh, k_sel) in (0usize..4, 0usize..7, 0usize..6),
        (gs, bits, block) in (1usize..=5, 0usize..2, 0usize..3),
        (t, exact, seed) in (1usize..70, 0u8..6, any::<u64>()),
    ) {
        let heads = [1, 2, 4, 8][heads];
        let dh = [1, 3, 5, 7, 16, 17, 32][dh];
        let k_tile = [1, 3, 7, 16, dh, dh + 5][k_sel];
        let (bits, block) = ([4, 8][bits], [1, 3, 16][block]);
        let row = Row::filled(heads, dh, t, block, code(seed));
        let config = if exact == 0 { None } else { config(bits, gs, k_tile) };
        check_every_backend(&row, config, 0.0378);
    }

    /// A row's heads are independent streams even when their magnitudes
    /// differ — full-range codes, codes in −1..=1, the full-range codes
    /// negated, zeros — so one call folds every head at its own scales,
    /// each exactly as its own `StreamingApsq::calibrating` stream, for
    /// 2-, 4- and 8-bit codes and group sizes past the step count.
    #[test]
    fn row_kernels_fold_each_head_as_its_own_stream(
        dh in 1usize..24,
        k_tile in 1usize..12,
        gs in 1usize..9,
        bits in 0usize..3,
        t in 1usize..40,
        seed in any::<u64>(),
    ) {
        let bits = [2, 4, 8][bits];
        let variants: [fn(i8) -> i8; 4] = [|x| x, |x| x % 2, |x| x.saturating_neg(), |_| 0];
        let heads = variants.len();
        let mut row = Row::filled(heads, dh, t, 3, code(seed));
        for (h, f) in variants.iter().enumerate() {
            for c in &mut row.q[h * dh..(h + 1) * dh] {
                *c = f(*c);
            }
            for c in &mut row.p[h * t..(h + 1) * t] {
                *c = f(*c);
            }
        }
        check_every_backend(&row, config(bits, gs, k_tile), 1.0);
    }
}

/// Every code at −128 over a reduction of 2^17: each tile is
/// `k_tile · 2^14`, the folds grow past the i32 bound (and the whole sum
/// past `i32::MAX`, so the fold clamps), and the i64 fallback runs —
/// beside a small head that stays in i32 lanes in the same call — and
/// still equals the streams: P·V over 2^17 tokens, Q·Kᵀ over heads 2^17
/// columns wide.
#[test]
fn forced_i64_fallback_equals_the_streams() {
    let (n, min) = (1 << 17, |_| -128i8);
    let mut pv_row = Row::filled(2, 1, n, 16, min);
    pv_row.p[n..].fill(1);
    assert!(check_every_backend(&pv_row, config(8, 1, 4096), 1.0));
    let mut qk_row = Row::filled(2, n, 2, 1, min);
    qk_row.q[n..].fill(1);
    assert!(check_every_backend(&qk_row, config(8, 3, 4096), 1.0));
}

/// Exact mode folds nothing: the tiles are the whole sums and no code
/// word moves.
#[test]
fn exact_mode_is_the_whole_sum() {
    let row = Row::filled(4, 8, 37, 16, code(7));
    let (want, _) = oracle(&row, None, 0.5);
    assert_eq!((want.3, want.4), ((0, 0), (0, 0)));
    assert!(!check_every_backend(&row, None, 0.5));
}

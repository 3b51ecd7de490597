//! Tensor-shaped matrix multiplication wrappers over the one strided
//! [`Gemm`] entry point: each checks the operand shapes, allocates the
//! output, and runs a dense descriptor through [`ExecEngine::gemm`]. Build
//! a [`Gemm`] directly for strided, batched, ranged or accumulating
//! products and for the K-tiled partial-sum stream
//! ([`ExecEngine::gemm_k_tiles`]).

use crate::exec::elem::GemmElem;
use crate::exec::{pack_k_pairs, ExecEngine, Gemm, Layout};
use crate::int_tensor::{Int32Tensor, Int8Tensor};
use crate::tensor::Tensor;

impl ExecEngine {
    /// `a` (`[M, K]`) × `b` (`[K, N]`) → `[M, N]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use apsq_tensor::{ExecEngine, Tensor};
    ///
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
    /// assert_eq!(ExecEngine::serial().matmul(&a, &i), a);
    /// ```
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.product(Layout::NN, (a.data(), a.dims()), (b.data(), b.dims()))
    }

    /// `a` (`[M, K]`) × `bᵀ` (`b` stored `[N, K]`) → `[M, N]`, the
    /// backward-pass `dX = dY · Wᵀ` primitive.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the K dims disagree.
    pub fn matmul_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.product(Layout::NT, (a.data(), a.dims()), (b.data(), b.dims()))
    }

    /// Exact integer matmul: `[M, K]` i8 × `[K, N]` i8 → `[M, N]` i32.
    /// Products and sums are formed in `i32`; for `K ≤ 2^15` this cannot
    /// overflow (|product| ≤ 2^14, so |sum| ≤ 2^29). `b` is packed into
    /// k-pair panels ([`pack_k_pairs`]) on every call, so a caller that
    /// reuses a weight packs it once and runs [`Layout::NP`] itself.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2 or inner dims disagree.
    pub fn int8_matmul(&self, a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        let &[k, n] = b.dims() else {
            panic!("gemm: `b` must be rank-2, got {:?}", b.dims())
        };
        let panels = pack_k_pairs(b.data(), k, n);
        self.product(Layout::NP, (a.data(), a.dims()), (&panels, b.dims()))
    }

    /// Exact integer transposed-B matmul: `a` (`[M, K]` i8) × `bᵀ` (`b`
    /// stored `[N, K]` i8) → `[M, N]` i32, the layout of key rows. Each row
    /// of `a` is a one-head query scored against every row of `b` in one
    /// [`ExecEngine::qk_block_i8`] K step, with the rows split over the
    /// engine's threads.
    ///
    /// # Panics
    ///
    /// Panics if operands are not rank-2 or the K dims disagree.
    pub fn int8_matmul_bt(&self, a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        let g = Gemm::dense(Layout::NT, a.data(), a.dims(), b.data(), b.dims());
        let (m, n, k) = (g.m, g.n, g.k);
        let mut out = Int32Tensor::zeros([m, n]);
        if k == 0 || n == 0 {
            return out;
        }
        self.partition_rows(out.data_mut(), n, m, n, m * n * k, &|r0, r1, chunk| {
            for (q, scores) in a.data()[r0 * k..r1 * k]
                .chunks_exact(k)
                .zip(chunk.chunks_exact_mut(n))
            {
                self.qk_block_i8(q, 1, k, b.data(), scores, n);
            }
        });
        out
    }

    /// The dense product of two rank-2 operands into a fresh tensor.
    fn product<T: GemmElem>(
        &self,
        layout: Layout,
        (a, a_dims): (&[T], &[usize]),
        (b, b_dims): (&[T], &[usize]),
    ) -> T::Tile {
        let g = Gemm::dense(layout, a, a_dims, b, b_dims);
        let mut out = T::zero_tile(&[g.m, g.n]);
        self.gemm(&g, T::tile_data(&mut out));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a.at(&[i, l]) * b.at(&[l, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn arange(m: usize, n: usize) -> Tensor {
        Tensor::from_vec(
            (0..m * n).map(|x| (x as f32) * 0.25 - 3.0).collect(),
            [m, n],
        )
    }

    fn eng() -> ExecEngine {
        ExecEngine::serial()
    }

    #[test]
    fn matches_naive() {
        let a = arange(4, 6);
        let b = arange(6, 5);
        let c = eng().matmul(&a, &b);
        let r = naive(&a, &b);
        for (x, y) in c.data().iter().zip(r.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn bt_and_at_match() {
        let a = arange(3, 4);
        let b = arange(4, 5);
        let c = eng().matmul(&a, &b);
        let c_bt = eng().matmul_bt(&a, &b.transpose());
        let at = a.transpose();
        let mut c_at = Tensor::zeros([3, 5]);
        let tn = Gemm::dense(Layout::TN, at.data(), at.dims(), b.data(), b.dims());
        eng().gemm(&tn, c_at.data_mut());
        for (x, y) in c.data().iter().zip(c_bt.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in c.data().iter().zip(c_at.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        // A strided descriptor writing into the interior of a NaN-filled
        // buffer overwrites exactly its block and matches the wrapper.
        let a = arange(3, 7);
        let b = arange(7, 4);
        let mut buf = [f32::NAN; 3 * 6];
        let g = Gemm {
            ldo: 6,
            ..Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims())
        };
        eng().gemm(&g, &mut buf[1..]);
        let want = eng().matmul(&a, &b);
        for i in 0..3 {
            assert_eq!(&buf[i * 6 + 1..i * 6 + 5], &want.data()[i * 4..(i + 1) * 4]);
            assert!(buf[i * 6].is_nan() && buf[i * 6 + 5].is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "out` must be at least")]
    fn into_shape_mismatch_rejected() {
        let a = arange(2, 3);
        let b = arange(3, 2);
        let mut out = vec![0.0f32; 3];
        eng().gemm(
            &Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims()),
            &mut out,
        );
    }

    #[test]
    fn psum_tiles_sum_to_product() {
        let a = arange(3, 10);
        let b = arange(10, 4);
        let full = eng().matmul(&a, &b);
        let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
        for k_tile in [1, 2, 3, 4, 10, 16] {
            let mut steps = 0;
            let mut acc = Tensor::zeros([3, 4]);
            eng().gemm_k_tiles(&g, k_tile, |_, t| {
                acc = &acc + t;
                steps += 1;
            });
            assert_eq!(steps, 10usize.div_ceil(k_tile));
            for (x, y) in acc.data().iter().zip(full.data()) {
                assert!((x - y).abs() < 1e-3, "k_tile={k_tile}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn tiled_fold_default_is_matmul() {
        // Streaming a sub-range of K in tiles sums to the ranged product.
        let a = arange(2, 8);
        let b = arange(8, 3);
        let g = Gemm {
            k_range: 2..7,
            ..Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims())
        };
        let mut folded = Tensor::zeros([2, 3]);
        eng().gemm_k_tiles(&g, 3, |_, tile| folded = &folded + tile);
        let mut ranged = vec![0.0f32; 6];
        eng().gemm(&g, &mut ranged);
        for (x, y) in folded.data().iter().zip(&ranged) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn batched() {
        let a: Vec<f32> = (0..2 * 2 * 3).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..2 * 3 * 2).map(|x| x as f32 * 0.5).collect();
        let mut c = vec![0.0f32; 2 * 2 * 2];
        let g = Gemm {
            batch: 2,
            ..Gemm::new(Layout::NN, &a[..], &b[..], 2, 2, 3)
        };
        eng().gemm(&g, &mut c);
        // Check one element by hand: batch 1, row 0, col 0.
        // a[1,0,:] = [6,7,8]; b[1,:,0] = [3,4,5] (×0.5 applied already in data)
        let expect = 6.0 * 3.0 + 7.0 * 4.0 + 8.0 * 5.0;
        assert!((c[4] - expect).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch() {
        eng().matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}

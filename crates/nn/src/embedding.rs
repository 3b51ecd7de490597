//! Token and positional embeddings.

use crate::param::{HasParams, Param};
use apsq_tensor::Tensor;
use rand::Rng;

/// A learned token-embedding table plus learned positional embeddings.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Token table `[vocab, d]`.
    pub tokens: Param,
    /// Position table `[max_len, d]`.
    pub positions: Param,
    cache_ids: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates tables with small normal init.
    pub fn new<R: Rng + ?Sized>(vocab: usize, max_len: usize, d: usize, rng: &mut R) -> Self {
        Embedding {
            tokens: Param::new(apsq_tensor::randn([vocab, d], 0.1, rng)),
            positions: Param::new(apsq_tensor::randn([max_len, d], 0.1, rng)),
            cache_ids: None,
        }
    }

    /// Embeds a token-id sequence into `[len, d]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary or the sequence exceeds
    /// `max_len`.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let y = self.embed(ids);
        self.cache_ids = Some(ids.to_vec());
        y
    }

    /// Inference-only embedding.
    pub fn forward_inference(&self, ids: &[usize]) -> Tensor {
        self.embed(ids)
    }

    /// Embeds a single token at an explicit position (KV-cache decoding).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of vocabulary or `pos >= max_len`.
    pub fn embed_one(&self, id: usize, pos: usize) -> Tensor {
        let d = self.tokens.value.dims()[1];
        let vocab = self.tokens.value.dims()[0];
        let max_len = self.positions.value.dims()[0];
        assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
        assert!(pos < max_len, "position {pos} exceeds max_len {max_len}");
        let mut out = vec![0.0f32; d];
        self.embed_into(id, pos, &mut out);
        Tensor::from_vec(out, [1, d])
    }

    fn embed(&self, ids: &[usize]) -> Tensor {
        let d = self.tokens.value.dims()[1];
        let vocab = self.tokens.value.dims()[0];
        let max_len = self.positions.value.dims()[0];
        assert!(ids.len() <= max_len, "sequence longer than max_len");
        let mut out = vec![0.0f32; ids.len() * d];
        for (pos, (&id, row)) in ids.iter().zip(out.chunks_exact_mut(d)).enumerate() {
            assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
            self.embed_into(id, pos, row);
        }
        Tensor::from_vec(out, [ids.len(), d])
    }

    /// `out = tokens[id] + positions[pos]`, one `[d]` row.
    fn embed_into(&self, id: usize, pos: usize, out: &mut [f32]) {
        let d = out.len();
        let tok = &self.tokens.value.data()[id * d..][..d];
        let p = &self.positions.value.data()[pos * d..][..d];
        for ((o, &t), &p) in out.iter_mut().zip(tok).zip(p) {
            *o = t + p;
        }
    }

    /// Backward: scatters gradients into both tables.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) {
        let ids = self.cache_ids.take().expect("backward before forward");
        let d = self.tokens.value.dims()[1];
        assert_eq!(dy.dims(), [ids.len(), d], "gradient is not [len, d]");
        let mut dtok = Tensor::zeros(self.tokens.value.shape().clone());
        let mut dpos = Tensor::zeros(self.positions.value.shape().clone());
        for (i, (&id, g)) in ids.iter().zip(dy.data().chunks_exact(d)).enumerate() {
            let tok = &mut dtok.data_mut()[id * d..][..d];
            tok.iter_mut().zip(g).for_each(|(t, &g)| *t += g);
            let pos = &mut dpos.data_mut()[i * d..][..d];
            pos.iter_mut().zip(g).for_each(|(p, &g)| *p += g);
        }
        self.tokens.accumulate(&dtok);
        self.positions.accumulate(&dpos);
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.tokens);
        f(&mut self.positions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embeds_and_scatters() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = Embedding::new(10, 8, 4, &mut rng);
        let y = e.forward(&[1, 1, 3]);
        assert_eq!(y.dims(), &[3, 4]);
        // Same token at different positions differs by position vectors.
        let delta: f32 = (0..4).map(|j| (y.at(&[0, j]) - y.at(&[1, j])).abs()).sum();
        assert!(delta > 0.0);

        let dy = Tensor::ones([3, 4]);
        e.backward(&dy);
        // Token 1 used twice → grad 2.0 per column; token 3 once.
        assert_eq!(e.tokens.grad.at(&[1, 0]), 2.0);
        assert_eq!(e.tokens.grad.at(&[3, 0]), 1.0);
        assert_eq!(e.tokens.grad.at(&[0, 0]), 0.0);
    }

    #[test]
    fn embed_one_is_a_row_of_embed() {
        let mut rng = StdRng::seed_from_u64(9);
        let e = Embedding::new(10, 8, 5, &mut rng);
        let ids = [3, 0, 9, 3, 7, 1];
        let all = e.forward_inference(&ids);
        for (pos, &id) in ids.iter().enumerate() {
            let row = e.embed_one(id, pos);
            assert_eq!(row.dims(), &[1, 5]);
            assert_eq!(row.data(), &all.data()[pos * 5..][..5], "pos {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = Embedding::new(4, 8, 2, &mut rng);
        e.forward(&[5]);
    }
}

//! The output oracle: the seeded session streams the load generators
//! send, replayed directly through `decode_batch_paged_with` on a private
//! `BlockPool`, with response digests built from the public
//! `Payload::digest`/`Response::digest`.

use apsq_nn::{BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, PagedKvState};
use apsq_serve::{ModelSpec, Payload, Precision, Response};
use apsq_tensor::{ExecEngine, Tensor};
use std::collections::HashMap;
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a word's little-endian bytes — the fold the
/// server digests logits rows and fingerprints with.
pub fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of `(request id, response digest)` pairs, ordered by id.
pub fn fingerprint(digests: &[(u64, u64)]) -> u64 {
    let mut d = digests.to_vec();
    d.sort_unstable();
    d.iter()
        .fold(FNV_OFFSET, |h, &(id, x)| fnv1a(fnv1a(h, id), x))
}

/// The digest a successful response with this payload carries.
pub fn response_digest(id: u64, payload: Payload) -> u64 {
    Response {
        id,
        result: Ok(payload),
        latency_us: 0,
        batch_size: 0,
    }
    .digest()
}

/// The served decoder, built exactly as the server builds it.
pub enum DecodeNet {
    F32(Box<DecoderLm>),
    Int8(Box<Int8DecoderLm>),
}

impl DecodeNet {
    pub fn build(spec: &ModelSpec, precision: Precision) -> DecodeNet {
        let f32_model = spec.build();
        match precision {
            Precision::F32 => DecodeNet::F32(Box::new(f32_model)),
            Precision::Int8Apsq => DecodeNet::Int8(Box::new(int8_twin(spec, &f32_model))),
        }
    }

    /// A private pool in the served KV format holding `sessions` fully
    /// grown sessions of `spec`.
    pub fn pool(
        spec: &ModelSpec,
        precision: Precision,
        block_tokens: usize,
        sessions: usize,
    ) -> BlockPool {
        let budget = sessions * spec.kv_bytes_per_session(precision);
        BlockPool::new(match precision {
            Precision::F32 => BlockAllocator::f32(budget, block_tokens, spec.d_model),
            Precision::Int8Apsq => {
                BlockAllocator::int8(budget, block_tokens, spec.d_model, spec.heads)
            }
        })
    }

    pub fn layers(&self) -> usize {
        match self {
            DecodeNet::F32(m) => m.num_layers(),
            DecodeNet::Int8(m) => m.num_layers(),
        }
    }

    pub fn step(
        &self,
        tokens: &[usize],
        states: &mut [&mut PagedKvState],
        pool: &BlockPool,
        eng: &ExecEngine,
    ) -> Tensor {
        match self {
            DecodeNet::F32(m) => m.decode_batch_paged_with(tokens, states, pool, eng),
            DecodeNet::Int8(m) => m.decode_batch_paged_with(tokens, states, pool, eng),
        }
    }
}

/// The integer model the server PTQ-converts from `f32_model`.
pub fn int8_twin(spec: &ModelSpec, f32_model: &DecoderLm) -> Int8DecoderLm {
    let prime: Vec<usize> = (0..spec.max_len).map(|i| i % spec.vocab).collect();
    Int8DecoderLm::from_decoder(f32_model, &prime, &ExecEngine::serial())
}

/// One session's request stream: `script` tokens first, then greedy
/// feedback of the previous step's argmax, `steps` tokens in all.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Server-side session id.
    pub session: u64,
    /// Request id of step 0; step `i` is `id_base + i`.
    pub id_base: u64,
    pub script: Vec<usize>,
    pub steps: usize,
}

/// Wall time of one replayed decode step: batch rows and context length
/// (cached tokens attended, the new one included).
#[derive(Clone, Copy, Debug)]
pub struct StepTime {
    pub batch: usize,
    pub ctx: usize,
    pub start: Instant,
    pub us: f64,
}

/// Replays `streams` in lockstep groups of `batch` and returns the
/// expected response digest of every request id, plus each step's time.
pub fn replay(
    net: &DecodeNet,
    pool: &BlockPool,
    streams: &[Stream],
    batch: usize,
    eng: &ExecEngine,
) -> (HashMap<u64, u64>, Vec<StepTime>) {
    let mut expected = HashMap::new();
    let mut times = Vec::new();
    for group in streams.chunks(batch) {
        let mut states: Vec<PagedKvState> = (0..group.len())
            .map(|_| PagedKvState::for_layers(net.layers()))
            .collect();
        let mut last = vec![0usize; group.len()];
        let steps = group.iter().map(|s| s.steps).max().unwrap_or(0);
        for step in 0..steps {
            let rows: Vec<usize> = (0..group.len())
                .filter(|&r| step < group[r].steps)
                .collect();
            let tokens: Vec<usize> = rows
                .iter()
                .map(|&r| group[r].script.get(step).copied().unwrap_or(last[r]))
                .collect();
            let mut refs: Vec<&mut PagedKvState> = states
                .iter_mut()
                .enumerate()
                .filter(|(r, _)| step < group[*r].steps)
                .map(|(_, s)| s)
                .collect();
            let start = Instant::now();
            let logits = net.step(&tokens, &mut refs, pool, eng);
            times.push(StepTime {
                batch: rows.len(),
                ctx: step + 1,
                start,
                us: start.elapsed().as_secs_f64() * 1e6,
            });
            let vocab = logits.dims()[1];
            let next = apsq_tensor::argmax_axis1(&logits);
            for (b, &r) in rows.iter().enumerate() {
                let row = &logits.data()[b * vocab..(b + 1) * vocab];
                let logits_digest = row
                    .iter()
                    .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits() as u64));
                let s = &group[r];
                let payload = Payload::Decode {
                    session: s.session,
                    position: step,
                    next_token: next[b],
                    logits_digest,
                };
                let id = s.id_base + step as u64;
                expected.insert(id, response_digest(id, payload));
                last[r] = next[b];
            }
        }
        let mut alloc = pool.lock();
        for s in &mut states {
            s.release(&mut alloc);
        }
    }
    (expected, times)
}

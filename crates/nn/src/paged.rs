//! Paged KV storage: fixed-size token blocks carved from one byte budget —
//! the only KV store incremental decode runs against.
//!
//! Preallocating one contiguous buffer per session would admit
//! `budget / bytes_per_session` sessions no matter how short their
//! contexts actually are. This module uses the vLLM-style paged layout
//! instead:
//!
//! - [`BlockAllocator`] carves the budget into **blocks** of
//!   `block_tokens` tokens each (f32 rows, or i8 codes + per-(token, head)
//!   power-of-two exponents from the crate's single KV quantization
//!   recipe, the same one the int8 full-sequence forward applies),
//!   managed through a free list and per-block reference counts;
//! - [`PagedKvState`] is one session's per-layer **block tables**: block
//!   ids in token order plus the decode position. Appending a row
//!   allocates a block at each `block_tokens` boundary and performs
//!   **copy-on-write** when the tail block is shared (refcount > 1);
//! - [`PagedKvState::fork`] shares every block of a prefix refcounted, and
//!   [`PagedKvState::adopt_tail_block`] lets a caller that can prove two
//!   blocks hold identical bytes (e.g. a server hash-consing on token-id
//!   prefixes — the decoder is deterministic, so equal prefixes produce
//!   equal KV bytes) deduplicate them.
//!
//! Reads **gather** block contents in token order into flat `[t·d]`
//! layouts ([`BlockPool::gather_f32`] / [`BlockPool::gather_int8`]) — the
//! same rows the full-sequence forward computes for that prefix — so the
//! attention kernels that walk a block table feed byte-identical operands
//! to the same engine kernels, and decode is bit-identical across block
//! sizes, thread counts, and vs. a full-sequence recompute.
//!
//! # Concurrency: the block pool
//!
//! Each block's payload lives in its own [`Arc`], so a reader can pin a
//! block's bytes without holding any lock. [`BlockPool`] wraps the
//! allocator in a mutex whose critical sections are **short**: appends,
//! allocation, release, and hash-cons bookkeeping. Its gathers clone the
//! table's payload `Arc`s under the lock, then copy the rows into the
//! caller's flat buffers **after unlocking** — so the attention GEMMs
//! that follow never run under the allocator lock, and decode batches on
//! different workers proceed concurrently. Why this is safe:
//!
//! - a block with refcount > 1 is **immutable** ([`BlockAllocator::write_row`]
//!   rejects shared blocks; appends copy-on-write first), so concurrent
//!   readers of shared prefix blocks can never observe a write;
//! - a block with refcount 1 belongs to exactly one session's table, and
//!   the serve layer checks out a session to at most one in-flight batch,
//!   so its appends and gathers are sequenced on one worker thread;
//! - a freed-and-reused block cannot race a stale reader: the reader's
//!   `Arc` clone keeps the *old* payload alive only for the duration of
//!   the copy, and writes to the reused block go through
//!   [`Arc::get_mut`], which panics — loudly, never silently corrupting —
//!   if a reader still held the payload.
//!
//! The pool also counts lock acquisitions, total wait, maximum hold time,
//! and gathered bytes ([`BlockPool::contention`]) so serving metrics can
//! report allocator contention.
//!
//! # Example
//!
//! ```
//! use apsq_nn::{BlockAllocator, BlockPool, PagedKvState};
//!
//! // 1 KiB budget, 4-token blocks, width 8, 2 heads → int8 blocks of
//! // 4 · 2 · (8 + 2) = 80 bytes each, so the budget holds 12 blocks.
//! let pool = BlockPool::new(BlockAllocator::int8(1024, 4, 8, 2));
//! let mut alloc = pool.lock();
//! assert_eq!(alloc.blocks_capacity(), 12);
//!
//! // One single-layer session; append five rows (allocates two blocks).
//! let mut s = PagedKvState::for_layers(1);
//! for i in 0..5 {
//!     let row = [i as f32; 8];
//!     s.append_row(0, &mut alloc, &row, &row);
//!     s.advance();
//! }
//! assert_eq!(s.position(), 5);
//! assert_eq!(alloc.blocks_in_use(), 2);
//!
//! // Fork shares both blocks copy-on-write; the forked session's next
//! // append copies only the partially filled tail block.
//! let mut fork = s.fork(&mut alloc);
//! assert_eq!(alloc.blocks_in_use(), 2);
//! fork.append_row(0, &mut alloc, &[9.0; 8], &[9.0; 8]);
//! fork.advance();
//! assert_eq!(alloc.blocks_in_use(), 3); // CoW copy of the tail
//! drop(alloc);
//!
//! // Gathered reads are flat `[t·d]` slices in token order, copied
//! // outside the pool lock.
//! let mut k = Vec::new();
//! let (mut v, mut ke, mut ve) = (Vec::new(), Vec::new(), Vec::new());
//! pool.gather_int8(s.layer_blocks(0), 5, &mut k, &mut v, &mut ke, &mut ve);
//! assert_eq!(k.len(), 5 * 8);
//!
//! let mut alloc = pool.lock();
//! s.release(&mut alloc);
//! fork.release(&mut alloc);
//! assert_eq!(alloc.blocks_in_use(), 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Quantizes one `d`-length KV row per head at the tightest covering
/// power-of-two scale ([`apsq_quant::covering_pow2_exponent`]), writing i8
/// codes into `codes` (`d` long) and one exponent per head into `exps`
/// (`heads` long).
///
/// This is the **single** KV quantization recipe in the crate: int8
/// [`BlockAllocator`] appends and
/// [`crate::Int8MultiHeadAttention::forward_inference_with`] both call it,
/// so paged decode reads exactly the bytes a full-sequence recompute
/// attends — the root of the paged ⇔ full-recompute bit-identity.
///
/// # Panics
///
/// Panics if a value is not finite.
pub(crate) fn quantize_int8_kv_row(row: &[f32], heads: usize, codes: &mut [i8], exps: &mut [i8]) {
    debug_assert_eq!(codes.len(), row.len());
    debug_assert_eq!(exps.len(), heads);
    let dh = row.len() / heads;
    for h in 0..heads {
        let slice = &row[h * dh..(h + 1) * dh];
        let max_abs = slice.iter().fold(0.0f32, |m, &x| {
            assert!(x.is_finite(), "non-finite KV value {x}");
            m.max(x.abs())
        });
        let e = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
        let scale = apsq_quant::pow2_f32(e);
        exps[h] = e as i8;
        for (c, &x) in codes[h * dh..(h + 1) * dh].iter_mut().zip(slice) {
            *c = apsq_quant::round_to_i8(x / scale);
        }
    }
}

/// Index of one fixed-size KV block inside a [`BlockAllocator`].
pub type BlockId = u32;

/// Storage precision of a pool, fixed at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockKind {
    F32,
    Int8,
}

/// Payload of one block. Each block owns its own vectors behind an
/// [`Arc`], so readers can pin a block's bytes without the allocator
/// lock; filled blocks shared across sessions are immutable (writes
/// require refcount 1 and go through [`Arc::get_mut`]).
#[derive(Debug)]
enum BlockData {
    /// f32 rows: `block_tokens · width` floats for K and for V.
    F32 { k: Vec<f32>, v: Vec<f32> },
    /// i8 codes (`block_tokens · width`) plus per-(token, head)
    /// power-of-two exponents (`block_tokens · heads`).
    Int8 {
        k_codes: Vec<i8>,
        v_codes: Vec<i8>,
        k_exps: Vec<i8>,
        v_exps: Vec<i8>,
    },
}

/// Carves a KV byte budget into fixed-size token blocks with a free list
/// and per-block reference counts — the storage behind every paged
/// session's block tables.
///
/// One allocator serves **all** sessions and layers of a server: a block
/// holds `block_tokens` consecutive tokens of one layer's K and V
/// (interleaving layers across blocks would break the flat-gather
/// layout). `alloc` pops the free list at refcount 1; `retain`/`release`
/// adjust sharing; a block returns to the free list when its refcount
/// reaches zero. See the module docs above for the whole lifecycle.
///
/// Gauge counters (`blocks_shared`, `tokens_stored`, and the `*_peak`
/// accessors) are maintained **incrementally** on every mutation, so a
/// sample is O(1), exact at any instant, and peaks can never be missed
/// between samples — which is what makes them race-safe to read while
/// concurrent decode batches mutate the pool under [`BlockPool`]'s lock.
#[derive(Debug)]
pub struct BlockAllocator {
    payloads: Vec<Arc<BlockData>>,
    kind: BlockKind,
    block_tokens: usize,
    width: usize,
    heads: usize,
    refcounts: Vec<u32>,
    /// Tokens written into each block so far (for utilization gauges and
    /// copy-on-write copies of partially filled blocks).
    filled: Vec<u32>,
    free: Vec<BlockId>,
    /// Free blocks promised to appends that have not allocated yet; each
    /// [`Self::alloc`] consumes one promise.
    reserved: usize,
    in_use: usize,
    /// Blocks with refcount > 1, maintained on retain/release.
    shared: usize,
    /// Token slots written across allocated blocks, maintained on
    /// write/copy/free.
    tokens: usize,
    peak_in_use: usize,
    peak_shared: usize,
}

impl BlockAllocator {
    /// Bytes one f32 block occupies (K + V rows).
    pub fn f32_bytes_per_block(block_tokens: usize, width: usize) -> usize {
        block_tokens * 2 * 4 * width
    }

    /// Bytes one int8 block occupies (K + V codes and exponents).
    pub fn int8_bytes_per_block(block_tokens: usize, width: usize, heads: usize) -> usize {
        block_tokens * 2 * (width + heads)
    }

    /// An f32 allocator holding as many `block_tokens`-token blocks of
    /// width `width` as fit in `budget_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the budget holds no block, or `block_tokens`/`width` is 0.
    pub fn f32(budget_bytes: usize, block_tokens: usize, width: usize) -> Self {
        assert!(block_tokens > 0, "need at least one token per block");
        assert!(width > 0, "need a positive width");
        let bpb = Self::f32_bytes_per_block(block_tokens, width);
        let capacity = budget_bytes / bpb;
        assert!(capacity > 0, "budget {budget_bytes} below one block {bpb}");
        let rows = block_tokens * width;
        BlockAllocator {
            payloads: (0..capacity)
                .map(|_| {
                    Arc::new(BlockData::F32 {
                        k: vec![0.0; rows],
                        v: vec![0.0; rows],
                    })
                })
                .collect(),
            kind: BlockKind::F32,
            block_tokens,
            width,
            heads: 0,
            refcounts: vec![0; capacity],
            filled: vec![0; capacity],
            free: (0..capacity as BlockId).rev().collect(),
            reserved: 0,
            in_use: 0,
            shared: 0,
            tokens: 0,
            peak_in_use: 0,
            peak_shared: 0,
        }
    }

    /// An int8 allocator holding as many `block_tokens`-token blocks of
    /// width `width` / `heads` heads as fit in `budget_bytes`. Rows are
    /// quantized per head at the tightest covering power-of-two scale —
    /// the exact recipe the int8 full-sequence forward applies.
    ///
    /// # Panics
    ///
    /// Panics if the budget holds no block, `width` is not divisible by
    /// `heads`, or a dimension is 0.
    pub fn int8(budget_bytes: usize, block_tokens: usize, width: usize, heads: usize) -> Self {
        assert!(block_tokens > 0, "need at least one token per block");
        assert!(heads > 0, "need at least one head");
        assert!(
            width > 0 && width.is_multiple_of(heads),
            "width {width} not divisible by heads {heads}"
        );
        let bpb = Self::int8_bytes_per_block(block_tokens, width, heads);
        let capacity = budget_bytes / bpb;
        assert!(capacity > 0, "budget {budget_bytes} below one block {bpb}");
        let codes = block_tokens * width;
        let exps = block_tokens * heads;
        BlockAllocator {
            payloads: (0..capacity)
                .map(|_| {
                    Arc::new(BlockData::Int8 {
                        k_codes: vec![0; codes],
                        v_codes: vec![0; codes],
                        k_exps: vec![0; exps],
                        v_exps: vec![0; exps],
                    })
                })
                .collect(),
            kind: BlockKind::Int8,
            block_tokens,
            width,
            heads,
            refcounts: vec![0; capacity],
            filled: vec![0; capacity],
            free: (0..capacity as BlockId).rev().collect(),
            reserved: 0,
            in_use: 0,
            shared: 0,
            tokens: 0,
            peak_in_use: 0,
            peak_shared: 0,
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Row width `d` of the stored K/V rows.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bytes one block occupies in this allocator's precision.
    pub fn bytes_per_block(&self) -> usize {
        match self.kind {
            BlockKind::F32 => Self::f32_bytes_per_block(self.block_tokens, self.width),
            BlockKind::Int8 => {
                Self::int8_bytes_per_block(self.block_tokens, self.width, self.heads)
            }
        }
    }

    /// Total blocks the budget carved out.
    pub fn blocks_capacity(&self) -> usize {
        self.refcounts.len()
    }

    /// Blocks on the free list.
    pub fn blocks_free(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently allocated (refcount ≥ 1).
    pub fn blocks_in_use(&self) -> usize {
        self.in_use
    }

    /// Allocated blocks referenced by more than one holder — the sharing
    /// the serve layer's prefix hash-consing creates. O(1): maintained on
    /// every retain/release.
    pub fn blocks_shared(&self) -> usize {
        self.shared
    }

    /// Most blocks ever allocated at once. Updated inside [`Self::alloc`]
    /// itself, so the peak is exact no matter when a sampler looks.
    pub fn blocks_peak(&self) -> usize {
        self.peak_in_use
    }

    /// Most blocks ever shared (refcount > 1) at once — exact, updated at
    /// each retain.
    pub fn blocks_shared_peak(&self) -> usize {
        self.peak_shared
    }

    /// Token slots actually written across all allocated blocks. O(1):
    /// maintained on every write, copy, and free.
    pub fn tokens_stored(&self) -> usize {
        self.tokens
    }

    /// Written slots over allocated slots, in `[0, 1]` (1.0 when nothing
    /// is allocated): the block-utilization gauge — its complement is
    /// internal fragmentation from partially filled tail blocks.
    pub fn utilization(&self) -> f64 {
        if self.in_use == 0 {
            return 1.0;
        }
        self.tokens as f64 / (self.in_use * self.block_tokens) as f64
    }

    /// Free blocks not promised by [`Self::reserve`] — what a new
    /// reservation can still claim.
    pub fn blocks_unreserved(&self) -> usize {
        self.free.len() - self.reserved
    }

    /// Promises `n` free blocks to appends that will run later (possibly
    /// on another thread). Each [`Self::alloc`] consumes one promise, so
    /// the ledger stays exact while those appends are in flight: a
    /// scheduler reserving against [`Self::blocks_unreserved`] never
    /// counts an already-allocated block twice.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` unreserved free blocks remain.
    pub fn reserve(&mut self, n: usize) {
        assert!(
            n <= self.blocks_unreserved(),
            "reserving {n} blocks with {} unreserved",
            self.blocks_unreserved()
        );
        self.reserved += n;
    }

    /// Pops a free block at refcount 1, consuming one outstanding
    /// [`Self::reserve`] promise if any, or `None` when the budget is
    /// exhausted.
    pub fn alloc(&mut self) -> Option<BlockId> {
        let id = self.free.pop()?;
        self.reserved = self.reserved.saturating_sub(1);
        self.refcounts[id as usize] = 1;
        self.filled[id as usize] = 0;
        self.in_use += 1;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Some(id)
    }

    /// Adds one reference to an allocated block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated.
    pub fn retain(&mut self, id: BlockId) {
        let rc = &mut self.refcounts[id as usize];
        assert!(*rc > 0, "retain of free block {id}");
        if *rc == 1 {
            self.shared += 1;
            self.peak_shared = self.peak_shared.max(self.shared);
        }
        *rc += 1;
    }

    /// Drops one reference; returns the block to the free list (and
    /// returns `true`) when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated.
    pub fn release(&mut self, id: BlockId) -> bool {
        let rc = &mut self.refcounts[id as usize];
        assert!(*rc > 0, "release of free block {id}");
        if *rc == 2 {
            self.shared -= 1;
        }
        *rc -= 1;
        if *rc == 0 {
            self.free.push(id);
            self.in_use -= 1;
            self.tokens -= self.filled[id as usize] as usize;
            true
        } else {
            false
        }
    }

    /// Current reference count of a block (0 = free).
    pub fn refcount(&self, id: BlockId) -> u32 {
        self.refcounts[id as usize]
    }

    /// Exclusive access to a block's payload for writing. Shared (or
    /// concurrently read) payloads trip the `Arc::get_mut` panic rather
    /// than silently racing.
    fn payload_mut(&mut self, id: BlockId) -> &mut BlockData {
        Arc::get_mut(&mut self.payloads[id as usize])
            .expect("KV block written while a reader still pins its payload")
    }

    /// Writes one K row and V row into `slot` of block `id`, quantizing
    /// per head first in an int8 allocator.
    ///
    /// # Panics
    ///
    /// Panics if the block is shared (callers must copy-on-write first —
    /// [`PagedKvState::append_row`] does), free, the slot is out of range
    /// or not the next unwritten slot, or the row width is wrong.
    pub fn write_row(&mut self, id: BlockId, slot: usize, k: &[f32], v: &[f32]) {
        assert_eq!(
            self.refcounts[id as usize], 1,
            "write to shared or free block {id} (refcount {}) — copy-on-write it first",
            self.refcounts[id as usize]
        );
        assert!(slot < self.block_tokens, "slot {slot} out of range");
        assert_eq!(
            self.filled[id as usize] as usize, slot,
            "block {id} slots must fill in order"
        );
        assert_eq!(k.len(), self.width, "K row width mismatch");
        assert_eq!(v.len(), self.width, "V row width mismatch");
        let d = self.width;
        let h = self.heads;
        match self.payload_mut(id) {
            BlockData::F32 { k: ks, v: vs } => {
                ks[slot * d..(slot + 1) * d].copy_from_slice(k);
                vs[slot * d..(slot + 1) * d].copy_from_slice(v);
            }
            BlockData::Int8 {
                k_codes,
                v_codes,
                k_exps,
                v_exps,
            } => {
                quantize_int8_kv_row(
                    k,
                    h,
                    &mut k_codes[slot * d..(slot + 1) * d],
                    &mut k_exps[slot * h..(slot + 1) * h],
                );
                quantize_int8_kv_row(
                    v,
                    h,
                    &mut v_codes[slot * d..(slot + 1) * d],
                    &mut v_exps[slot * h..(slot + 1) * h],
                );
            }
        }
        self.filled[id as usize] = (slot + 1) as u32;
        self.tokens += 1;
    }

    /// Copies the first `slots` token slots of `src` into `dst` — the
    /// copy half of copy-on-write.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shared or free, or `slots` exceeds what `src`
    /// holds.
    pub fn copy_block(&mut self, src: BlockId, dst: BlockId, slots: usize) {
        assert_eq!(self.refcounts[dst as usize], 1, "copy into shared block");
        assert!(
            slots <= self.filled[src as usize] as usize,
            "copy past fill"
        );
        let d = self.width;
        let h = self.heads;
        // Pin the (possibly shared, immutable) source payload so the
        // destination can be borrowed mutably from the same vector.
        let src_data = Arc::clone(&self.payloads[src as usize]);
        match (&*src_data, self.payload_mut(dst)) {
            (BlockData::F32 { k: sk, v: sv }, BlockData::F32 { k: dk, v: dv }) => {
                dk[..slots * d].copy_from_slice(&sk[..slots * d]);
                dv[..slots * d].copy_from_slice(&sv[..slots * d]);
            }
            (
                BlockData::Int8 {
                    k_codes: skc,
                    v_codes: svc,
                    k_exps: ske,
                    v_exps: sve,
                },
                BlockData::Int8 {
                    k_codes: dkc,
                    v_codes: dvc,
                    k_exps: dke,
                    v_exps: dve,
                },
            ) => {
                dkc[..slots * d].copy_from_slice(&skc[..slots * d]);
                dvc[..slots * d].copy_from_slice(&svc[..slots * d]);
                dke[..slots * h].copy_from_slice(&ske[..slots * h]);
                dve[..slots * h].copy_from_slice(&sve[..slots * h]);
            }
            _ => unreachable!("mixed-precision payloads in one pool"),
        }
        let old = self.filled[dst as usize] as usize;
        self.filled[dst as usize] = slots as u32;
        self.tokens -= old;
        self.tokens += slots;
    }

    /// Whether two allocated blocks hold identical bytes over their first
    /// `slots` token slots — the safety check behind prefix
    /// deduplication.
    pub fn blocks_equal(&self, a: BlockId, b: BlockId, slots: usize) -> bool {
        let d = self.width;
        let h = self.heads;
        match (&*self.payloads[a as usize], &*self.payloads[b as usize]) {
            (BlockData::F32 { k: ak, v: av }, BlockData::F32 { k: bk, v: bv }) => {
                ak[..slots * d] == bk[..slots * d] && av[..slots * d] == bv[..slots * d]
            }
            (
                BlockData::Int8 {
                    k_codes: akc,
                    v_codes: avc,
                    k_exps: ake,
                    v_exps: ave,
                },
                BlockData::Int8 {
                    k_codes: bkc,
                    v_codes: bvc,
                    k_exps: bke,
                    v_exps: bve,
                },
            ) => {
                akc[..slots * d] == bkc[..slots * d]
                    && avc[..slots * d] == bvc[..slots * d]
                    && ake[..slots * h] == bke[..slots * h]
                    && ave[..slots * h] == bve[..slots * h]
            }
            _ => unreachable!("mixed-precision payloads in one pool"),
        }
    }
}

/// Allocator-contention counters accumulated by a [`BlockPool`] since
/// construction. All totals are monotone; deltas between two snapshots
/// attribute activity to an interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolContention {
    /// Times the pool mutex was acquired (appends, alloc/release rounds,
    /// gather handle clones, gauge reads).
    pub lock_acquisitions: u64,
    /// Total nanoseconds spent *waiting* for the mutex across all
    /// acquisitions — the contention signal.
    pub lock_wait_ns: u64,
    /// Longest single critical section in nanoseconds.
    pub lock_hold_max_ns: u64,
    /// Bytes copied out of blocks by [`BlockPool::gather_f32`] /
    /// [`BlockPool::gather_int8`] (the copies happen outside the lock).
    pub gathered_bytes: u64,
}

/// The shared, instrumented handle to one [`BlockAllocator`]: a mutex
/// whose critical sections are short (append / alloc / release /
/// bookkeeping) plus **lock-free block reads** for the decode hot path.
///
/// [`Self::gather_f32`] / [`Self::gather_int8`] share one pinned-block
/// walk: clone the block table's payload `Arc`s under the lock —
/// O(blocks), no byte copies — then materialize the flat `[t·d]` buffers
/// after unlocking. The attention
/// GEMMs that consume those buffers therefore never hold the allocator
/// lock, which is what lets decode batches on different workers run
/// truly concurrently. See the module docs for the safety argument.
///
/// Every acquisition is timed; [`Self::contention`] exposes the counters.
#[derive(Debug)]
pub struct BlockPool {
    inner: Mutex<BlockAllocator>,
    kind: BlockKind,
    block_tokens: usize,
    width: usize,
    heads: usize,
    lock_acquisitions: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_hold_max_ns: AtomicU64,
    gathered_bytes: AtomicU64,
}

/// A timed lock guard over the pool's [`BlockAllocator`]; dereferences to
/// the allocator. Dropping it records the critical section's hold time.
pub struct PoolGuard<'a> {
    pool: &'a BlockPool,
    acquired: Instant,
    guard: MutexGuard<'a, BlockAllocator>,
}

impl std::ops::Deref for PoolGuard<'_> {
    type Target = BlockAllocator;
    fn deref(&self) -> &BlockAllocator {
        &self.guard
    }
}

impl std::ops::DerefMut for PoolGuard<'_> {
    fn deref_mut(&mut self) -> &mut BlockAllocator {
        &mut self.guard
    }
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        // lint: allow(wall-clock-in-scheduling) -- contention metrics: hold-time sampling only, the measured duration never reaches a scheduling decision
        let held = self.acquired.elapsed().as_nanos() as u64;
        self.pool
            .lock_hold_max_ns
            .fetch_max(held, Ordering::Relaxed);
    }
}

impl BlockPool {
    /// Wraps an allocator for shared use.
    pub fn new(alloc: BlockAllocator) -> Self {
        BlockPool {
            kind: alloc.kind,
            block_tokens: alloc.block_tokens,
            width: alloc.width,
            heads: alloc.heads,
            inner: Mutex::new(alloc),
            lock_acquisitions: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_hold_max_ns: AtomicU64::new(0),
            gathered_bytes: AtomicU64::new(0),
        }
    }

    /// Tokens per block (immutable, readable without the lock).
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Locks the allocator for a short mutation (append, alloc, release,
    /// hash-cons, gauge read). The wait and hold times are recorded.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked (poisoned lock).
    // Contention metrics: both clock reads sample wait/hold time only;
    // the measured durations never reach a scheduling decision.
    #[allow(clippy::disallowed_methods)]
    pub fn lock(&self) -> PoolGuard<'_> {
        // lint: allow(wall-clock-in-scheduling) -- contention metrics: wait-time sampling only, the measured duration never reaches a scheduling decision
        let t0 = Instant::now();
        let guard = self.inner.lock().expect("block pool poisoned");
        // lint: allow(wall-clock-in-scheduling) -- contention metrics: wait-time sampling only, the measured duration never reaches a scheduling decision
        let waited = t0.elapsed().as_nanos() as u64;
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_ns.fetch_add(waited, Ordering::Relaxed);
        PoolGuard {
            pool: self,
            // lint: allow(wall-clock-in-scheduling) -- contention metrics: hold-time sampling only, never read by scheduling
            acquired: Instant::now(),
            guard,
        }
    }

    /// Contention counters accumulated so far.
    pub fn contention(&self) -> PoolContention {
        PoolContention {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            lock_hold_max_ns: self.lock_hold_max_ns.load(Ordering::Relaxed),
            gathered_bytes: self.gathered_bytes.load(Ordering::Relaxed),
        }
    }

    /// The one pinned-block walk behind both gathers: clones the payload
    /// `Arc`s covering `len` tokens of a block table under a short lock
    /// (O(blocks) bumps, no byte copies), then — **after unlocking** —
    /// hands each pinned block and the token count it contributes to
    /// `copy`, in token order, and counts the gathered bytes.
    fn walk_pinned(&self, blocks: &[BlockId], len: usize, mut copy: impl FnMut(&BlockData, usize)) {
        let need = len.div_ceil(self.block_tokens);
        assert!(
            blocks.len() >= need,
            "block table shorter than {len} tokens"
        );
        let pinned: Vec<Arc<BlockData>> = {
            let guard = self.lock();
            blocks[..need]
                .iter()
                .map(|&b| Arc::clone(&guard.payloads[b as usize]))
                .collect()
        };
        let mut remaining = len;
        for data in &pinned {
            let take = remaining.min(self.block_tokens);
            copy(data, take);
            remaining -= take;
        }
        let bytes_per_token = match self.kind {
            BlockKind::F32 => BlockAllocator::f32_bytes_per_block(1, self.width),
            BlockKind::Int8 => BlockAllocator::int8_bytes_per_block(1, self.width, self.heads),
        };
        self.gathered_bytes
            .fetch_add((len * bytes_per_token) as u64, Ordering::Relaxed);
    }

    /// Gathers `len` f32 K and V rows from a block table in token order
    /// into flat `[len · d]` buffers — byte-identical to the appended
    /// rows, which is what makes paged attention bit-identical to a
    /// full-sequence recompute. Only pinning the payloads takes the lock;
    /// the copies run outside it, so the caller's GEMMs on the owned flat
    /// buffers hold no lock either.
    ///
    /// # Panics
    ///
    /// Panics on an f32 gather from an int8 pool or a table too short
    /// for `len`.
    pub fn gather_f32(
        &self,
        blocks: &[BlockId],
        len: usize,
        k_out: &mut Vec<f32>,
        v_out: &mut Vec<f32>,
    ) {
        assert_eq!(self.kind, BlockKind::F32, "f32 gather from an int8 pool");
        let d = self.width;
        for out in [&mut *k_out, &mut *v_out] {
            out.clear();
            out.reserve(len * d);
        }
        self.walk_pinned(blocks, len, |data, take| {
            let BlockData::F32 { k, v } = data else {
                unreachable!("mixed-precision payloads in one pool");
            };
            k_out.extend_from_slice(&k[..take * d]);
            v_out.extend_from_slice(&v[..take * d]);
        });
    }

    /// Gathers `len` int8 K/V code rows and per-(token, head) exponents
    /// from a block table in token order into flat `[len · d]` codes and
    /// `[len · heads]` exponents, copying outside the lock like
    /// [`Self::gather_f32`].
    ///
    /// # Panics
    ///
    /// Panics on an int8 gather from an f32 pool or a table too short
    /// for `len`.
    pub fn gather_int8(
        &self,
        blocks: &[BlockId],
        len: usize,
        k_codes_out: &mut Vec<i8>,
        v_codes_out: &mut Vec<i8>,
        k_exps_out: &mut Vec<i8>,
        v_exps_out: &mut Vec<i8>,
    ) {
        assert_eq!(self.kind, BlockKind::Int8, "int8 gather from an f32 pool");
        let (d, h) = (self.width, self.heads);
        for out in [&mut *k_codes_out, &mut *v_codes_out] {
            out.clear();
            out.reserve(len * d);
        }
        for out in [&mut *k_exps_out, &mut *v_exps_out] {
            out.clear();
            out.reserve(len * h);
        }
        self.walk_pinned(blocks, len, |data, take| {
            let BlockData::Int8 {
                k_codes,
                v_codes,
                k_exps,
                v_exps,
            } = data
            else {
                unreachable!("mixed-precision payloads in one pool");
            };
            k_codes_out.extend_from_slice(&k_codes[..take * d]);
            v_codes_out.extend_from_slice(&v_codes[..take * d]);
            k_exps_out.extend_from_slice(&k_exps[..take * h]);
            v_exps_out.extend_from_slice(&v_exps[..take * h]);
        });
    }
}

/// One session's paged KV state: a block table per decoder layer plus the
/// decode position.
///
/// The state does not own its blocks — every mutation takes the shared
/// [`BlockAllocator`]. Callers must [`Self::release`] before dropping a
/// state they are done with, or its blocks stay allocated.
#[derive(Clone, Debug, Default)]
pub struct PagedKvState {
    tables: Vec<Vec<BlockId>>,
    position: usize,
}

impl PagedKvState {
    /// Empty state for a stack of `layers` decoder blocks.
    pub fn for_layers(layers: usize) -> Self {
        PagedKvState {
            tables: vec![Vec::new(); layers],
            position: 0,
        }
    }

    /// Decoder layers this state spans.
    pub fn num_layers(&self) -> usize {
        self.tables.len()
    }

    /// Next position index (= tokens appended and advanced so far).
    pub fn position(&self) -> usize {
        self.position
    }

    /// The block table of one layer, in token order.
    pub fn layer_blocks(&self, layer: usize) -> &[BlockId] {
        &self.tables[layer]
    }

    /// Distinct block references across all layers (shared blocks count
    /// once per table that references them).
    pub fn block_refs(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Fresh blocks the next [`Self::append_row`]+[`Self::advance`] step
    /// will demand across all layers: one per layer at a `block_tokens`
    /// boundary, one per layer whose tail block is shared (copy-on-write).
    /// Schedulers reserve this many before dispatching so appends can
    /// never hit an exhausted pool mid-batch.
    pub fn blocks_needed_for_next_append(&self, alloc: &BlockAllocator) -> usize {
        if self.position.is_multiple_of(alloc.block_tokens()) {
            return self.num_layers();
        }
        self.tables
            .iter()
            .filter(|t| t.last().is_some_and(|&b| alloc.refcount(b) > 1))
            .count()
    }

    /// Appends one K/V row for `layer` at the current position:
    /// allocates a block at each `block_tokens` boundary, copies a shared
    /// tail block first (**copy-on-write**: the copy is written, the
    /// shared original's refcount drops by one), then writes the row.
    /// Call once per layer per step, then [`Self::advance`].
    ///
    /// # Panics
    ///
    /// Panics if the allocator is exhausted — serve-layer schedulers
    /// reserve [`Self::blocks_needed_for_next_append`] blocks up front so
    /// this cannot happen mid-batch.
    pub fn append_row(&mut self, layer: usize, alloc: &mut BlockAllocator, k: &[f32], v: &[f32]) {
        let slot = self.position % alloc.block_tokens();
        let table = &mut self.tables[layer];
        if slot == 0 {
            let id = alloc.alloc().expect("KV block pool exhausted at boundary");
            table.push(id);
        } else {
            let tail = *table.last().expect("append past an empty table");
            if alloc.refcount(tail) > 1 {
                let copy = alloc.alloc().expect("KV block pool exhausted at CoW");
                alloc.copy_block(tail, copy, slot);
                alloc.release(tail);
                *table.last_mut().unwrap() = copy;
            }
        }
        alloc.write_row(*table.last().unwrap(), slot, k, v);
    }

    /// Advances the position by one token — call after every layer has
    /// appended its row for the step.
    pub fn advance(&mut self) {
        self.position += 1;
    }

    /// A copy-on-write fork: the new state references the same blocks
    /// (each retained), so it costs zero bytes until either side appends
    /// past a shared tail block.
    pub fn fork(&self, alloc: &mut BlockAllocator) -> PagedKvState {
        for t in &self.tables {
            for &b in t {
                alloc.retain(b);
            }
        }
        self.clone()
    }

    /// Swaps this state's tail block for `layer` to `shared` (retained),
    /// releasing its own — prefix deduplication, used by the serve layer
    /// after hash-consing a just-filled block against older sessions with
    /// the same token-id prefix.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, `shared` is free, or (debug) the two
    /// blocks do not hold identical filled bytes.
    pub fn adopt_tail_block(&mut self, layer: usize, alloc: &mut BlockAllocator, shared: BlockId) {
        let own = *self.tables[layer].last().expect("adopt into empty table");
        if own == shared {
            return;
        }
        debug_assert!(
            alloc.blocks_equal(own, shared, alloc.block_tokens().min(self.position)),
            "adopting a block with different contents"
        );
        alloc.retain(shared);
        alloc.release(own);
        *self.tables[layer].last_mut().unwrap() = shared;
    }

    /// Releases every block reference and clears the tables; the position
    /// resets to 0.
    pub fn release(&mut self, alloc: &mut BlockAllocator) {
        for t in &mut self.tables {
            for &b in t.iter() {
                alloc.release(b);
            }
            t.clear();
        }
        self.position = 0;
    }

    /// Bytes of pool storage this state references across all layers
    /// (shared blocks counted once per referencing table).
    pub fn kv_bytes(&self, alloc: &BlockAllocator) -> usize {
        self.block_refs() * alloc.bytes_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(x: f32, d: usize) -> Vec<f32> {
        (0..d).map(|j| x + j as f32 * 0.25).collect()
    }

    #[test]
    fn f32_capacity_and_free_list() {
        let mut a = BlockAllocator::f32(4 * BlockAllocator::f32_bytes_per_block(4, 8), 4, 8);
        assert_eq!(a.blocks_capacity(), 4);
        assert_eq!(a.blocks_free(), 4);
        let b0 = a.alloc().unwrap();
        let b1 = a.alloc().unwrap();
        assert_ne!(b0, b1);
        assert_eq!(a.blocks_in_use(), 2);
        assert!(a.release(b0));
        assert_eq!(a.blocks_free(), 3);
        assert_eq!(a.refcount(b0), 0);
        assert_eq!(a.refcount(b1), 1);
    }

    #[test]
    fn reservations_are_consumed_by_alloc() {
        let mut a = BlockAllocator::f32(4 * BlockAllocator::f32_bytes_per_block(2, 4), 2, 4);
        a.reserve(3);
        assert_eq!(a.blocks_unreserved(), 1);
        // An in-flight append allocating a promised block leaves the
        // unreserved headroom unchanged: the promise is consumed, not
        // counted a second time.
        let b = a.alloc().unwrap();
        assert_eq!((a.blocks_free(), a.blocks_unreserved()), (3, 1));
        a.release(b);
        assert_eq!(a.blocks_unreserved(), 2);
    }

    #[test]
    #[should_panic(expected = "unreserved")]
    fn over_reservation_is_rejected() {
        let mut a = BlockAllocator::f32(BlockAllocator::f32_bytes_per_block(2, 4), 2, 4);
        a.reserve(2);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut a = BlockAllocator::f32(BlockAllocator::f32_bytes_per_block(2, 4), 2, 4);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    fn refcounts_share_and_release() {
        let mut a = BlockAllocator::f32(1 << 16, 4, 8);
        let b = a.alloc().unwrap();
        a.retain(b);
        assert_eq!(a.refcount(b), 2);
        assert_eq!(a.blocks_shared(), 1);
        assert!(!a.release(b));
        assert_eq!(a.blocks_shared(), 0);
        assert!(a.release(b));
        assert_eq!(a.blocks_in_use(), 0);
    }

    #[test]
    fn paged_f32_gather_returns_appended_rows_in_order() {
        let d = 8;
        let pool = BlockPool::new(BlockAllocator::f32(1 << 16, 3, d));
        let mut s = PagedKvState::for_layers(1);
        let (mut want_k, mut want_v) = (Vec::new(), Vec::new());
        for i in 0..7 {
            let (k, v) = (row(i as f32, d), row(-(i as f32), d));
            s.append_row(0, &mut pool.lock(), &k, &v);
            s.advance();
            want_k.extend_from_slice(&k);
            want_v.extend_from_slice(&v);
        }
        let (mut gk, mut gv) = (Vec::new(), Vec::new());
        pool.gather_f32(s.layer_blocks(0), 7, &mut gk, &mut gv);
        assert_eq!(gk, want_k);
        assert_eq!(gv, want_v);
        assert_eq!(pool.contention().gathered_bytes, (2 * 7 * d * 4) as u64);
        // 7 tokens at 3-token blocks = 3 blocks, 2 slack slots.
        assert_eq!(s.layer_blocks(0).len(), 3);
        assert!((pool.lock().utilization() - 7.0 / 9.0).abs() < 1e-12);
        s.release(&mut pool.lock());
    }

    #[test]
    fn paged_int8_gather_is_byte_identical_to_row_quantization() {
        let (d, h) = (8, 2);
        let pool = BlockPool::new(BlockAllocator::int8(1 << 16, 4, d, h));
        let mut s = PagedKvState::for_layers(1);
        let (mut want_kc, mut want_vc) = (vec![0i8; 9 * d], vec![0i8; 9 * d]);
        let (mut want_ke, mut want_ve) = (vec![0i8; 9 * h], vec![0i8; 9 * h]);
        for i in 0..9 {
            let (k, v) = (row(0.1 * i as f32, d), row(100.0 - i as f32, d));
            s.append_row(0, &mut pool.lock(), &k, &v);
            s.advance();
            let (c, e) = (i * d..(i + 1) * d, i * h..(i + 1) * h);
            quantize_int8_kv_row(&k, h, &mut want_kc[c.clone()], &mut want_ke[e.clone()]);
            quantize_int8_kv_row(&v, h, &mut want_vc[c], &mut want_ve[e]);
        }
        let (mut kc, mut vc, mut ke, mut ve) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        pool.gather_int8(s.layer_blocks(0), 9, &mut kc, &mut vc, &mut ke, &mut ve);
        assert_eq!(kc, want_kc);
        assert_eq!(vc, want_vc);
        assert_eq!(ke, want_ke);
        assert_eq!(ve, want_ve);
        assert_eq!(pool.contention().gathered_bytes, (2 * 9 * (d + h)) as u64);
        s.release(&mut pool.lock());
    }

    #[test]
    fn int8_row_quantization_uses_per_head_scales() {
        // Head 0 small magnitudes, head 1 large: distinct per-head scales.
        let src = [0.5f32, -1.0, 100.0, -200.0];
        let (mut codes, mut exps) = ([0i8; 4], [0i8; 2]);
        quantize_int8_kv_row(&src, 2, &mut codes, &mut exps);
        assert!(exps[0] < exps[1], "head scales should differ: {exps:?}");
        for (j, &want) in src.iter().enumerate() {
            let scale = (exps[j / 2] as f32).exp2();
            let got = codes[j] as f32 * scale;
            assert!((got - want).abs() <= scale * 0.5, "dequant {got} vs {want}");
        }
    }

    #[test]
    fn int8_blocks_are_about_4x_smaller_than_f32() {
        // tiny shape: 8·64 / (2·(64 + 4)) = 3.76; serving shapes with
        // head_dim 64 compress ≥ 3.9×.
        let ratio = |d: usize, h: usize| {
            BlockAllocator::f32_bytes_per_block(16, d) as f64
                / BlockAllocator::int8_bytes_per_block(16, d, h) as f64
        };
        assert!(ratio(64, 4) > 3.7);
        assert!(ratio(256, 4) >= 3.9);
    }

    #[test]
    fn fork_is_zero_copy_until_write_then_cow() {
        let d = 4;
        let pool = BlockPool::new(BlockAllocator::f32(1 << 16, 4, d));
        let mut a = pool.lock();
        let mut s = PagedKvState::for_layers(2);
        for i in 0..6 {
            for l in 0..2 {
                s.append_row(l, &mut a, &row(i as f32, d), &row(i as f32, d));
            }
            s.advance();
        }
        // 6 tokens / 4-token blocks = 2 blocks per layer.
        assert_eq!(a.blocks_in_use(), 4);
        let mut f = s.fork(&mut a);
        assert_eq!(a.blocks_in_use(), 4, "fork must not copy");
        assert_eq!(a.blocks_shared(), 4);
        assert_eq!(f.blocks_needed_for_next_append(&a), 2, "two shared tails");

        // The fork's next append copies only the partially filled tails.
        for l in 0..2 {
            f.append_row(l, &mut a, &row(9.0, d), &row(9.0, d));
        }
        f.advance();
        assert_eq!(a.blocks_in_use(), 6);
        assert_eq!(a.blocks_shared(), 2, "full prefix blocks stay shared");
        drop(a);

        // Original still reads its own bytes: positions 0..6 unchanged.
        let (mut gk, mut gv) = (Vec::new(), Vec::new());
        pool.gather_f32(s.layer_blocks(0), 6, &mut gk, &mut gv);
        assert_eq!(&gk[5 * d..6 * d], row(5.0, d).as_slice());

        let mut a = pool.lock();
        f.release(&mut a);
        s.release(&mut a);
        assert_eq!(a.blocks_in_use(), 0);
        assert_eq!(a.blocks_free(), a.blocks_capacity());
    }

    #[test]
    fn adopt_tail_block_dedups_identical_blocks() {
        let d = 4;
        let mut a = BlockAllocator::f32(1 << 16, 2, d);
        let (mut s1, mut s2) = (PagedKvState::for_layers(1), PagedKvState::for_layers(1));
        for i in 0..2 {
            let r = row(i as f32, d);
            s1.append_row(0, &mut a, &r, &r);
            s1.advance();
            s2.append_row(0, &mut a, &r, &r);
            s2.advance();
        }
        assert_eq!(a.blocks_in_use(), 2);
        let shared = s1.layer_blocks(0)[0];
        s2.adopt_tail_block(0, &mut a, shared);
        assert_eq!(a.blocks_in_use(), 1);
        assert_eq!(a.refcount(shared), 2);
        assert_eq!(s2.layer_blocks(0), &[shared]);
        // Idempotent when already adopted.
        s2.adopt_tail_block(0, &mut a, shared);
        assert_eq!(a.refcount(shared), 2);
    }

    #[test]
    #[should_panic(expected = "K row width mismatch")]
    fn width_change_rejected() {
        let mut a = BlockAllocator::int8(1 << 12, 4, 4, 2);
        let b = a.alloc().unwrap();
        a.write_row(b, 0, &[0.0; 3], &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "copy-on-write it first")]
    fn writing_a_shared_block_is_rejected() {
        let mut a = BlockAllocator::f32(1 << 16, 4, 4);
        let b = a.alloc().unwrap();
        a.retain(b);
        a.write_row(b, 0, &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    fn blocks_needed_accounts_boundaries() {
        let a = BlockAllocator::f32(1 << 16, 4, 4);
        let mut s = PagedKvState::for_layers(3);
        assert_eq!(s.blocks_needed_for_next_append(&a), 3, "first step");
        s.position = 3;
        assert_eq!(s.blocks_needed_for_next_append(&a), 0);
        s.position = 4;
        assert_eq!(s.blocks_needed_for_next_append(&a), 3, "boundary");
    }

    #[test]
    fn utilization_is_one_when_empty() {
        let a = BlockAllocator::int8(1 << 12, 4, 8, 2);
        assert!((a.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(a.tokens_stored(), 0);
    }

    #[test]
    fn incremental_gauges_track_every_mutation_exactly() {
        let d = 4;
        let mut a = BlockAllocator::f32(1 << 16, 2, d);
        let mut s = PagedKvState::for_layers(1);
        for i in 0..3 {
            s.append_row(0, &mut a, &row(i as f32, d), &row(i as f32, d));
            s.advance();
        }
        assert_eq!(a.tokens_stored(), 3);
        assert_eq!(a.blocks_peak(), 2);
        let f = s.fork(&mut a);
        assert_eq!(a.blocks_shared_peak(), 2);
        // CoW on the fork: shared tail drops, tokens re-counted for the
        // copy (2 copied slots released with the original's reference).
        let mut f = f;
        f.append_row(0, &mut a, &row(9.0, d), &row(9.0, d));
        assert_eq!(a.tokens_stored(), 3 + 2, "original 3 + CoW copy 1+1");
        assert_eq!(a.blocks_shared(), 1, "only the full first block");
        f.release(&mut a);
        s.release(&mut a);
        assert_eq!(a.tokens_stored(), 0);
        assert_eq!(a.blocks_shared(), 0);
        // Peaks are high-water marks: they survive the release.
        assert_eq!(a.blocks_peak(), 3);
        assert_eq!(a.blocks_shared_peak(), 2);
    }

    #[test]
    fn concurrent_sessions_append_and_gather_without_interference() {
        // Two threads drive independent sessions through one pool; each
        // gathers its own rows with no lock held during the verification
        // reads. Contents must come back exactly as appended.
        let d = 4;
        let pool = std::sync::Arc::new(BlockPool::new(BlockAllocator::f32(1 << 18, 3, d)));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut s = PagedKvState::for_layers(1);
                    let base = (t * 1000) as f32;
                    for step in 0..25 {
                        let r = row(base + step as f32, d);
                        {
                            let mut a = pool.lock();
                            s.append_row(0, &mut a, &r, &r);
                        }
                        s.advance();
                        let (mut k, mut v) = (Vec::new(), Vec::new());
                        pool.gather_f32(s.layer_blocks(0), step + 1, &mut k, &mut v);
                        for (i, want) in (0..=step).map(|i| row(base + i as f32, d)).enumerate() {
                            assert_eq!(&k[i * d..(i + 1) * d], want.as_slice());
                        }
                        let _ = v;
                    }
                    s.release(&mut pool.lock());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let a = pool.lock();
        assert_eq!(a.blocks_in_use(), 0);
        assert_eq!(a.tokens_stored(), 0);
        // One session alone holds ⌈25/3⌉ blocks; the peak is at least
        // that and at most both sessions' blocks (threads may not
        // overlap fully, so the exact value is schedule-dependent).
        let per_session = 25usize.div_ceil(3);
        assert!(a.blocks_peak() >= per_session);
        assert!(a.blocks_peak() <= 2 * per_session);
    }
}

//! Session lifecycle over the paged KV pool: block-granular admission,
//! reservation-time capacity control, LRU eviction, and hash-consed
//! prefix sharing.
//!
//! # Block-granular KV accounting
//!
//! Every session's KV state is a [`SessionKv`] — per-layer block tables
//! into one shared [`BlockAllocator`] that carves the server's
//! `kv_budget_bytes` into fixed-size token blocks. A session holds only
//! the blocks its current length needs, so residency is **overcommitted**:
//! far more short sessions fit than the nominal capacity (budget ÷
//! worst-case session bytes) suggests. Capacity pressure is handled at
//! **reservation time**: before dispatching a decode step the scheduler
//! calls [`SessionManager::reserve`], which guarantees the step's block
//! demand or — after reclaiming unreferenced prefix blocks and LRU-evicting
//! idle sessions — sheds with [`ServeError::SessionCapacity`]. The
//! guarantee is a promise in the pool's reservation ledger that the
//! step's own appends consume, so a reservation made while other batches
//! are mid-append sees the same headroom as one made before they started:
//! wall-clock shedding matches the virtual-time lockstep decisions.
//!
//! # Prefix sharing
//!
//! The manager hash-conses **filled** blocks on their token-id prefix:
//! every decoded token folds into a per-session FNV-1a chain, and when a
//! block fills, `(chain, layer)` keys a map from prefix hash to
//! [`BlockId`]. A later session filling a block with the same token
//! prefix adopts the existing block (verified byte-equal first, so a hash
//! collision degrades to a missed dedup, never a wrong read) and frees its
//! own copy. The decoder is deterministic, so equal token prefixes imply
//! equal KV bytes — and adopted blocks are bit-identical by construction,
//! which keeps responses invariant under sharing. Writes never land on
//! shared blocks: appends at a block boundary allocate fresh blocks, and
//! [`apsq_nn::PagedKvState::append_row`] copies a shared tail before
//! writing (copy-on-write).
//!
//! # Eviction tombstones are bounded
//!
//! An evicted session id must keep failing with a typed error forever
//! (its KV lineage is gone; silently restarting from an empty context
//! would return wrong continuations). The tombstone set is an
//! interval-compacted id set ([`IdRanges`]): membership is exact — the
//! guarantee is never weakened — while adjacent ids merge into single
//! ranges, so the common dense id patterns (session-per-client counters,
//! loadgen bases) hold O(1) memory no matter how many evictions occur.
//! Worst-case adversarially sparse ids degrade to O(ranges), which a
//! production deployment bounds by structuring its session ids.

use crate::error::ServeError;
use crate::request::{fnv1a, SessionId, FNV_OFFSET};
use apsq_nn::{BlockAllocator, BlockId, BlockPool, PagedKvState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of `u64` ids stored as disjoint inclusive ranges, merging
/// neighbors on insert. Exact membership (no false positives or
/// negatives); memory is proportional to the number of *runs* of ids,
/// not the number of ids.
#[derive(Debug, Default)]
pub(crate) struct IdRanges {
    /// start → inclusive end, disjoint and non-adjacent.
    ranges: BTreeMap<u64, u64>,
}

impl IdRanges {
    /// Inserts one id, merging with adjacent/overlapping ranges.
    pub fn insert(&mut self, id: u64) {
        // `id == u64::MAX` has no successor: `next` stays None and only
        // the left-merge/insert paths below can apply (session ids are
        // arbitrary client u64s, so the edge is reachable).
        let next = id.checked_add(1);
        // Find the closest range starting at or before `id`.
        if let Some((&s, &e)) = self.ranges.range(..=id).next_back() {
            if id <= e {
                return; // already present
            }
            if e.checked_add(1) == Some(id) {
                // Extend that range; maybe merge with the successor.
                if let Some(n) = next {
                    if let Some((&ns, &ne)) = self.ranges.range(n..).next() {
                        if ns == n {
                            self.ranges.remove(&ns);
                            self.ranges.insert(s, ne);
                            return;
                        }
                    }
                }
                self.ranges.insert(s, id);
                return;
            }
        }
        // No left merge; check a right-adjacent range.
        if let Some(n) = next {
            if let Some((&ns, &ne)) = self.ranges.range(n..).next() {
                if ns == n {
                    self.ranges.remove(&ns);
                    self.ranges.insert(id, ne);
                    return;
                }
            }
        }
        self.ranges.insert(id, id);
    }

    /// Exact membership test.
    pub fn contains(&self, id: u64) -> bool {
        self.ranges
            .range(..=id)
            .next_back()
            .is_some_and(|(_, &e)| id <= e)
    }

    /// Number of stored ranges — the set's actual memory footprint.
    pub fn span_count(&self) -> usize {
        self.ranges.len()
    }
}

/// A session's KV state: per-layer block tables into the server's shared
/// [`BlockAllocator`] (which owns the storage and its precision — f32
/// rows or i8 codes + scale exponents). Byte cost is block-granular:
/// only the blocks the session's current length touches, with full
/// prefix blocks potentially shared across sessions.
#[derive(Debug, Default)]
pub struct SessionKv {
    kv: PagedKvState,
}

impl SessionKv {
    /// An empty state spanning `layers` decoder blocks.
    pub(crate) fn for_layers(layers: usize) -> Self {
        SessionKv {
            kv: PagedKvState::for_layers(layers),
        }
    }

    /// Next decode position (tokens consumed so far).
    pub fn position(&self) -> usize {
        self.kv.position()
    }

    /// Bytes of pool storage this session references (shared blocks
    /// counted once per referencing layer table).
    pub fn kv_bytes(&self, alloc: &BlockAllocator) -> usize {
        self.kv.kv_bytes(alloc)
    }

    /// The underlying paged state, for the decode executors.
    pub(crate) fn state_mut(&mut self) -> &mut PagedKvState {
        &mut self.kv
    }
}

/// One resident session.
#[derive(Debug)]
struct Entry {
    /// `Some` while idle; `None` while checked out to an executor.
    state: Option<SessionKv>,
    /// Logical LRU clock value of the last touch.
    last_used: u64,
    /// Requests admitted but not yet completed; pinned entries are never
    /// evicted (their KV lineage is still needed).
    pins: u32,
    /// FNV-1a fold over every token id decoded into this session — the
    /// hash-cons key source for prefix-block sharing.
    chain: u64,
}

/// Owns every session's [`SessionKv`], hands states to executors for the
/// duration of a batch, reserves KV blocks before dispatch (reclaiming
/// prefix blocks and LRU-evicting idle sessions under pressure), and
/// deduplicates filled blocks across sessions with a common token-id
/// prefix.
///
/// All methods run on the scheduler thread; the only lock taken is the
/// shared [`BlockPool`]'s, whose critical sections are short — decode
/// executors on worker threads lock it only to append rows, never across
/// a GEMM.
#[derive(Debug)]
pub struct SessionManager {
    alloc: Arc<BlockPool>,
    /// Nominal capacity: worst-case fully grown sessions the byte budget
    /// holds. Residency may exceed it (block-granular overcommit); it is
    /// reported in metrics as the contiguous-allocation baseline.
    capacity: usize,
    layers: usize,
    entries: BTreeMap<SessionId, Entry>,
    /// Hash-consed prefix index: `(token-chain, layer)` FNV key → the
    /// canonical filled block for that prefix. Each entry holds one
    /// refcount on its block; reclaiming an entry releases it.
    prefix_index: BTreeMap<u64, BlockId>,
    /// Tombstones of evicted ids: a decode for one of these must fail
    /// with a typed error, never silently restart from an empty context.
    /// Interval-compacted, so memory tracks id *runs*, not evictions.
    evicted_ids: IdRanges,
    clock: u64,
    evictions: u64,
    peak: usize,
    shared_hits: u64,
}

impl SessionManager {
    /// A manager over the given block pool. `nominal_capacity` is the
    /// worst-case session count the budget covers (reported in metrics;
    /// block-granular residency can exceed it) and `layers` the decoder
    /// depth every session spans.
    pub fn new(alloc: Arc<BlockPool>, nominal_capacity: usize, layers: usize) -> Self {
        SessionManager {
            alloc,
            capacity: nominal_capacity,
            layers,
            entries: BTreeMap::new(),
            prefix_index: BTreeMap::new(),
            evicted_ids: IdRanges::default(),
            clock: 0,
            evictions: 0,
            peak: 0,
            shared_hits: 0,
        }
    }

    /// Resident session count.
    pub fn active(&self) -> usize {
        self.entries.len()
    }

    /// Worst-case sessions the byte budget admits (the contiguous
    /// baseline; paged residency overcommits past it).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Most sessions ever resident at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Sessions evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Filled blocks deduplicated onto an existing shared-prefix block.
    pub fn shared_prefix_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Ranges the tombstone set currently occupies (its real memory
    /// footprint; stays O(1) for dense id patterns).
    pub fn tombstone_spans(&self) -> usize {
        self.evicted_ids.span_count()
    }

    /// Total KV bytes referenced by resident idle sessions (shared blocks
    /// counted once per referencing layer table).
    pub fn kv_bytes(&self) -> usize {
        let alloc = self.alloc.lock();
        self.entries
            .values()
            .filter_map(|e| e.state.as_ref())
            .map(|s| s.kv_bytes(&alloc))
            .sum()
    }

    /// Snapshot of the block pool: `(in_use, shared, tokens_stored,
    /// block_tokens)` — the scheduler samples this into the metrics
    /// gauges each iteration.
    pub fn block_gauges(&self) -> (usize, usize, usize, usize) {
        let alloc = self.alloc.lock();
        (
            alloc.blocks_in_use(),
            alloc.blocks_shared(),
            alloc.tokens_stored(),
            alloc.block_tokens(),
        )
    }

    /// End-of-run pool report: capacity, the allocator's own exact peak
    /// gauges (maintained inside alloc/retain, so they can never miss a
    /// spike between scheduler samples), and the accumulated contention
    /// counters.
    pub fn pool_report(&self) -> crate::metrics::PoolReport {
        let contention = self.alloc.contention();
        let alloc = self.alloc.lock();
        crate::metrics::PoolReport {
            blocks_capacity: alloc.blocks_capacity(),
            blocks_peak: alloc.blocks_peak(),
            blocks_shared_peak: alloc.blocks_shared_peak(),
            contention,
        }
    }

    /// Total blocks the pool carved out of the byte budget.
    pub fn blocks_capacity(&self) -> usize {
        self.alloc.lock().blocks_capacity()
    }

    /// Free blocks not yet promised to a reserved decode step — the
    /// headroom gauge the degradation ladder's KV admission guard watches.
    pub fn blocks_unreserved(&self) -> usize {
        self.alloc.lock().blocks_unreserved()
    }

    /// Admits a request for `id`: touches the LRU clock, pins the
    /// session, and creates an empty entry if absent. Admission is cheap —
    /// an empty session holds zero blocks — so it never sheds for
    /// capacity; block pressure is handled at [`Self::reserve`] time.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionEvicted`] if `id` was evicted earlier (its KV
    /// lineage is gone — silently restarting it from an empty context
    /// would return wrong continuations).
    pub fn admit(&mut self, id: SessionId) -> Result<(), ServeError> {
        self.clock += 1;
        if self.evicted_ids.contains(id) {
            return Err(ServeError::SessionEvicted { session: id });
        }
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_used = self.clock;
            e.pins += 1;
            return Ok(());
        }
        self.entries.insert(
            id,
            Entry {
                state: Some(SessionKv::for_layers(self.layers)),
                last_used: self.clock,
                pins: 1,
                chain: FNV_OFFSET,
            },
        );
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Guarantees the block pool can serve `id`'s next decode step on top
    /// of the blocks already promised to in-flight or co-batched steps,
    /// and records the promise in the pool's reservation ledger
    /// ([`BlockAllocator::reserve`]) — the step's appends consume it.
    /// Returns the step's own block demand. Under pressure this first
    /// reclaims prefix-index blocks no session references anymore, then
    /// LRU-evicts idle unpinned sessions.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionCapacity`] when the demand cannot be met even
    /// after reclamation and eviction.
    ///
    /// # Panics
    ///
    /// Panics if the session is absent or checked out.
    pub fn reserve(&mut self, id: SessionId) -> Result<usize, ServeError> {
        let pool = Arc::clone(&self.alloc);
        let mut alloc = pool.lock();
        let needed = self
            .entries
            .get(&id)
            .and_then(|e| e.state.as_ref())
            .expect("reserve of absent or busy session")
            .kv
            .blocks_needed_for_next_append(&alloc);
        while alloc.blocks_unreserved() < needed {
            if self.reclaim_prefix_blocks(&mut alloc) > 0 {
                continue;
            }
            if self.evict_lru_idle(&mut alloc) {
                continue;
            }
            return Err(ServeError::SessionCapacity {
                active: self.entries.len(),
                capacity: self.capacity,
            });
        }
        alloc.reserve(needed);
        Ok(needed)
    }

    /// Admission pins outstanding across all sessions: one per admitted
    /// request not yet answered.
    #[cfg(test)]
    pub(crate) fn pins(&self) -> usize {
        self.entries.values().map(|e| e.pins as usize).sum()
    }

    /// Whether the session's state is currently checked out to a batch.
    pub fn is_busy(&self, id: SessionId) -> bool {
        self.entries
            .get(&id)
            .map(|e| e.state.is_none())
            .unwrap_or(false)
    }

    /// Next decode position for an idle session (tokens consumed so far).
    ///
    /// # Panics
    ///
    /// Panics if the session is absent or checked out.
    pub fn position(&self, id: SessionId) -> usize {
        self.entries
            .get(&id)
            .and_then(|e| e.state.as_ref())
            .expect("position of absent or busy session")
            .position()
    }

    /// Takes the session's KV state for a batch dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the session is absent or already checked out — the
    /// batcher guarantees one in-flight batch per session.
    pub fn checkout(&mut self, id: SessionId) -> SessionKv {
        self.entries
            .get_mut(&id)
            .expect("checkout of unknown session")
            .state
            .take()
            .expect("session already checked out")
    }

    /// Returns a state after batch completion.
    ///
    /// # Panics
    ///
    /// Panics if the session is absent or not checked out.
    pub fn checkin(&mut self, id: SessionId, state: SessionKv) {
        let e = self
            .entries
            .get_mut(&id)
            .expect("checkin of unknown session");
        assert!(e.state.is_none(), "checkin of idle session");
        e.state = Some(state);
    }

    /// Releases one admission pin after the response is emitted.
    ///
    /// # Panics
    ///
    /// Panics if the session is absent or has no pins.
    pub fn release(&mut self, id: SessionId) {
        let e = self
            .entries
            .get_mut(&id)
            .expect("release of unknown session");
        assert!(e.pins > 0, "release without matching admit");
        e.pins -= 1;
    }

    /// Folds one decoded token into the session's prefix chain and, when
    /// the token filled a KV block, hash-conses that block: the first
    /// session to fill a block for a given token prefix publishes it in
    /// the prefix index; later sessions with the same prefix adopt the
    /// published block and free their own copy. Adoption is guarded by a
    /// byte-equality check, so an FNV collision degrades to a missed
    /// dedup — never a wrong read — and shared blocks are bit-identical
    /// by construction, keeping decode output invariant under sharing.
    ///
    /// Call after [`Self::checkin`] for every successful decode step.
    pub fn note_decoded(&mut self, id: SessionId, token: usize) {
        let Some(e) = self.entries.get_mut(&id) else {
            return;
        };
        e.chain = fnv1a(e.chain, token as u64);
        let chain = e.chain;
        let Some(kv) = e.state.as_mut() else {
            return;
        };
        let pool = Arc::clone(&self.alloc);
        let mut alloc = pool.lock();
        let block_tokens = alloc.block_tokens();
        let pos = kv.position();
        if pos == 0 || !pos.is_multiple_of(block_tokens) {
            return;
        }
        for layer in 0..self.layers {
            let key = fnv1a(chain, layer as u64);
            let own = *kv
                .kv
                .layer_blocks(layer)
                .last()
                .expect("nonzero position with empty block table");
            match self.prefix_index.get(&key).copied() {
                Some(shared) if shared != own => {
                    if alloc.blocks_equal(own, shared, block_tokens) {
                        kv.kv.adopt_tail_block(layer, &mut alloc, shared);
                        self.shared_hits += 1;
                    }
                }
                Some(_) => {}
                None => {
                    alloc.retain(own);
                    self.prefix_index.insert(key, own);
                }
            }
        }
    }

    /// Drops prefix-index entries whose block no session references
    /// anymore (refcount 1 = only the index), freeing those blocks.
    /// Returns how many were reclaimed.
    fn reclaim_prefix_blocks(&mut self, alloc: &mut BlockAllocator) -> usize {
        let before = self.prefix_index.len();
        self.prefix_index.retain(|_, &mut b| {
            if alloc.refcount(b) == 1 {
                alloc.release(b);
                false
            } else {
                true
            }
        });
        before - self.prefix_index.len()
    }

    /// Evicts the least-recently-used idle, unpinned session, releasing
    /// its block references and tombstoning its id. Returns whether
    /// anything was evicted.
    fn evict_lru_idle(&mut self, alloc: &mut BlockAllocator) -> bool {
        // `entries` is a BTreeMap, so among `last_used` ties
        // `min_by_key` picks the lowest session id — the victim choice
        // is deterministic, never a function of a hash seed.
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.state.is_some() && e.pins == 0)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&id, _)| id);
        match victim {
            Some(id) => {
                let mut e = self.entries.remove(&id).expect("victim vanished");
                e.state
                    .as_mut()
                    .expect("victim was idle")
                    .state_mut()
                    .release(alloc);
                self.evicted_ids.insert(id);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 8;
    const LAYERS: usize = 2;
    const BT: usize = 4;

    /// A pool of exactly `blocks` f32 blocks (4 tokens × width 8).
    fn pool(blocks: usize) -> Arc<BlockPool> {
        Arc::new(BlockPool::new(BlockAllocator::f32(
            blocks * BlockAllocator::f32_bytes_per_block(BT, D),
            BT,
            D,
        )))
    }

    fn mgr(blocks: usize) -> SessionManager {
        SessionManager::new(pool(blocks), blocks / (2 * LAYERS).max(1), LAYERS)
    }

    /// Admit + complete immediately (no in-flight work).
    fn touch(m: &mut SessionManager, id: SessionId) {
        m.admit(id).unwrap();
        m.release(id);
    }

    /// One full decode step: admit, reserve, append a row derived from
    /// `token` into every layer, check back in, hash-cons, release — the
    /// scheduler's per-step session choreography.
    fn step(m: &mut SessionManager, id: SessionId, token: usize) {
        m.admit(id).unwrap();
        m.reserve(id).unwrap();
        let mut s = m.checkout(id);
        {
            let mut alloc = m.alloc.lock();
            let row: Vec<f32> = (0..D).map(|j| (token * D + j) as f32).collect();
            for layer in 0..LAYERS {
                s.state_mut().append_row(layer, &mut alloc, &row, &row);
            }
            s.state_mut().advance();
        }
        m.checkin(id, s);
        m.note_decoded(id, token);
        m.release(id);
    }

    fn blocks_in_use(m: &SessionManager) -> usize {
        m.alloc.lock().blocks_in_use()
    }

    #[test]
    fn admission_creates_and_touches() {
        let mut m = mgr(8);
        touch(&mut m, 1);
        touch(&mut m, 2);
        assert_eq!(m.active(), 2);
        assert_eq!(m.peak(), 2);
        touch(&mut m, 1); // touch existing: no growth
        assert_eq!(m.active(), 2);
        assert_eq!(m.position(1), 0);
        // Empty sessions hold zero blocks: admission alone costs nothing.
        assert_eq!(blocks_in_use(&m), 0);
        assert_eq!(m.kv_bytes(), 0);
    }

    #[test]
    fn residency_overcommits_past_nominal_capacity() {
        // Nominal capacity 2, but short sessions hold one block per layer
        // so four of them fit in an 8-block pool simultaneously.
        let mut m = mgr(8);
        assert_eq!(m.capacity(), 2);
        for id in 1..=4u64 {
            step(&mut m, id, id as usize);
        }
        assert_eq!(m.active(), 4);
        assert_eq!(m.peak(), 4);
        assert_eq!(m.evictions(), 0);
        assert_eq!(blocks_in_use(&m), 4 * LAYERS);
    }

    #[test]
    fn reserve_evicts_lru_idle_and_tombstones_it() {
        // 4 blocks = two 1-token sessions (2 layers each). A third
        // session's reservation must evict the least recently used.
        let mut m = mgr(4);
        step(&mut m, 1, 10);
        step(&mut m, 2, 20);
        step(&mut m, 1, 11); // no new blocks (slot 1 of the tail); 2 is LRU
        assert_eq!(blocks_in_use(&m), 4);
        step(&mut m, 3, 30); // reserve evicts session 2
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.active(), 2);
        assert_eq!(m.position(1), 2);
        // The evicted id is dead: a later request must get a typed error,
        // never a silent restart from an empty KV context.
        assert_eq!(m.admit(2), Err(ServeError::SessionEvicted { session: 2 }));
    }

    #[test]
    fn reserve_sheds_when_everything_is_pinned() {
        let mut m = mgr(LAYERS); // one 1-token session fills the pool
        step(&mut m, 1, 5);
        m.admit(1).unwrap(); // keep 1 pinned (in flight)
        m.admit(2).unwrap();
        let err = m.reserve(2).unwrap_err();
        assert!(matches!(err, ServeError::SessionCapacity { .. }));
        // Unpinning 1 makes it evictable; the reservation then succeeds.
        m.release(1);
        assert_eq!(m.reserve(2), Ok(LAYERS));
        assert_eq!(m.evictions(), 1);
        m.release(2);
    }

    #[test]
    fn reserve_accounts_outstanding_promises() {
        let mut m = mgr(2 * LAYERS);
        m.admit(1).unwrap();
        // The pool holds 4 blocks; a first step needs LAYERS = 2. With 3
        // already promised elsewhere, nothing is evictable (session 1 is
        // pinned), so the reservation sheds.
        m.alloc.lock().reserve(3);
        let err = m.reserve(1).unwrap_err();
        assert!(matches!(err, ServeError::SessionCapacity { .. }));
        // An in-flight step allocating one of its promised blocks consumes
        // the promise: the headroom is unchanged, not shrunk a second time.
        let b = m.alloc.lock().alloc().unwrap();
        assert_eq!(m.blocks_unreserved(), 1);
        // Once that block is freed again (say, deduplicated), the step fits.
        m.alloc.lock().release(b);
        assert_eq!(m.reserve(1), Ok(LAYERS));
        assert_eq!(m.blocks_unreserved(), 0);
        m.release(1);
    }

    #[test]
    fn filled_blocks_dedup_across_sessions_with_equal_prefixes() {
        let mut m = mgr(16);
        // Two sessions decode the same BT-token stream: once their first
        // blocks fill, the later one adopts the earlier one's blocks.
        for t in 0..BT {
            step(&mut m, 1, t);
        }
        let solo = blocks_in_use(&m); // LAYERS blocks, now also indexed
        for t in 0..BT {
            step(&mut m, 2, t);
        }
        assert_eq!(
            blocks_in_use(&m),
            solo,
            "identical prefix must not cost extra blocks"
        );
        assert_eq!(m.shared_prefix_hits(), LAYERS as u64);

        // A divergent third session shares nothing.
        for t in 0..BT {
            step(&mut m, 3, t + 100);
        }
        assert_eq!(blocks_in_use(&m), 2 * solo);
        assert_eq!(m.shared_prefix_hits(), LAYERS as u64);
    }

    #[test]
    fn reserve_reclaims_unreferenced_prefix_blocks() {
        // One session fills a block (published in the prefix index), then
        // is evicted by pressure; the index keeps the block alive until a
        // reservation reclaims it.
        let mut m = mgr(LAYERS);
        for t in 0..BT {
            step(&mut m, 1, t);
        }
        assert_eq!(blocks_in_use(&m), LAYERS);
        m.admit(2).unwrap();
        // Session 1's blocks are index-shared: eviction alone frees
        // nothing, reclamation of the now-unreferenced index entries does.
        assert_eq!(m.reserve(2), Ok(LAYERS));
        assert_eq!(m.evictions(), 1);
        assert_eq!(blocks_in_use(&m), 0);
        m.release(2);
    }

    #[test]
    fn checkout_checkin_roundtrip_preserves_position() {
        let mut m = mgr(4);
        step(&mut m, 7, 1);
        m.admit(7).unwrap();
        let s = m.checkout(7);
        assert!(m.is_busy(7));
        assert_eq!(s.position(), 1);
        m.checkin(7, s);
        m.release(7);
        assert!(!m.is_busy(7));
        assert_eq!(m.position(7), 1);
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn double_checkout_panics() {
        let mut m = mgr(4);
        m.admit(1).unwrap();
        let _a = m.checkout(1);
        let _b = m.checkout(1);
    }

    #[test]
    fn kv_bytes_tracks_block_references() {
        let mut m = mgr(8);
        m.admit(1).unwrap();
        assert_eq!(m.kv_bytes(), 0); // no blocks yet
        m.release(1);
        step(&mut m, 1, 3);
        // One block per layer, 4 tokens × 8 floats × 2 (K+V) × 4 bytes.
        let bpb = BlockAllocator::f32_bytes_per_block(BT, D);
        assert_eq!(m.kv_bytes(), LAYERS * bpb);
    }

    #[test]
    fn tombstone_memory_does_not_grow_with_evictions() {
        // Churn thousands of dense session ids through a tiny pool: every
        // reservation evicts, yet the tombstone set stays a handful of
        // ranges (the eviction order interleaves ids, so runs merge as
        // neighbors arrive).
        let mut m = mgr(2 * LAYERS);
        for id in 0..2_000u64 {
            step(&mut m, id, 1);
        }
        assert!(m.evictions() >= 1_900);
        assert!(
            m.tombstone_spans() <= 4,
            "tombstone set grew to {} spans after {} evictions",
            m.tombstone_spans(),
            m.evictions()
        );
        assert_eq!(m.admit(17), Err(ServeError::SessionEvicted { session: 17 }));
    }

    #[test]
    fn id_ranges_merge_and_answer_exactly() {
        let mut r = IdRanges::default();
        for id in [5u64, 7, 6, 1, 2, 100, 3] {
            r.insert(id);
        }
        // {1..=3, 5..=7, 100}
        assert_eq!(r.span_count(), 3);
        for present in [1u64, 2, 3, 5, 6, 7, 100] {
            assert!(r.contains(present), "{present}");
        }
        for absent in [0u64, 4, 8, 99, 101, u64::MAX] {
            assert!(!r.contains(absent), "{absent}");
        }
        r.insert(4); // bridges 1..=3 and 5..=7
        assert_eq!(r.span_count(), 2);
        assert!(r.contains(4));
        r.insert(2); // idempotent
        assert_eq!(r.span_count(), 2);
    }

    #[test]
    fn id_ranges_handle_u64_extremes() {
        // Session ids are arbitrary client u64s: the extremes must not
        // overflow (the overflow-checked CI would panic) or mis-merge
        // with ranges at the other end of the keyspace.
        let mut r = IdRanges::default();
        r.insert(0);
        r.insert(u64::MAX);
        assert_eq!(r.span_count(), 2);
        assert!(r.contains(0));
        assert!(r.contains(u64::MAX));
        assert!(!r.contains(1));
        assert!(!r.contains(u64::MAX - 1));
        r.insert(u64::MAX - 1); // left-merges into the MAX range
        assert_eq!(r.span_count(), 2);
        assert!(r.contains(u64::MAX - 1));
        r.insert(1); // extends the 0 range
        assert_eq!(r.span_count(), 2);
        assert!(r.contains(1));
    }
}

//! Serving metrics: latency percentiles per lane, queue depth, batch
//! occupancy, throughput, per-cause shed counters, and KV block-pool
//! gauges (utilization, sharing, fragmentation).
//!
//! The [`Metrics`] accumulator is owned by the scheduler thread (no
//! locks); only the submit-side shed counter is shared, via an atomic in
//! the server handle. A [`MetricsSnapshot`] is computed once at shutdown.

use crate::batcher::Lane;
use crate::error::ServeError;
use crate::request::Priority;
use apsq_nn::PoolContention;

/// End-of-run report from the KV block pool, folded into the snapshot:
/// capacity, the allocator's own exact peak gauges, and the accumulated
/// lock-contention counters. The peaks are maintained *inside* the
/// allocator's alloc/retain critical sections, so they are exact under
/// concurrent decode — a scheduler-side sampler alone could miss a spike
/// between two samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolReport {
    /// KV blocks the byte budget carves out.
    pub blocks_capacity: usize,
    /// Exact peak blocks in use (allocator-maintained).
    pub blocks_peak: usize,
    /// Exact peak blocks shared (allocator-maintained).
    pub blocks_shared_peak: usize,
    /// Pool-lock contention and gather-traffic counters.
    pub contention: PoolContention,
}

/// Why the scheduler shed an already-admitted request. Submit-side
/// [`crate::ServeError::QueueFull`] sheds are counted separately (they
/// never reach the scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// The KV block pool could not reserve the session's next block even
    /// after prefix-block GC and LRU eviction
    /// ([`crate::ServeError::SessionCapacity`]).
    SessionCapacity,
    /// The session reached the model's context window
    /// ([`crate::ServeError::ContextOverflow`]).
    ContextOverflow,
    /// The request targeted a session that had been LRU-evicted
    /// ([`crate::ServeError::SessionEvicted`]).
    SessionEvicted,
    /// The request's virtual-tick deadline passed while it was queued
    /// ([`crate::ServeError::DeadlineExceeded`]).
    DeadlineExceeded,
    /// Shed by a rung of the graceful-degradation ladder
    /// ([`crate::ServeError::Degraded`]).
    Degraded,
}

impl ShedCause {
    /// The shed counter a scheduler-side error lands in (`None` for
    /// errors that are not sheds, such as `ShuttingDown`).
    pub(crate) fn of(err: &ServeError) -> Option<ShedCause> {
        Some(match err {
            ServeError::SessionCapacity { .. } => ShedCause::SessionCapacity,
            ServeError::ContextOverflow { .. } => ShedCause::ContextOverflow,
            ServeError::SessionEvicted { .. } => ShedCause::SessionEvicted,
            ServeError::DeadlineExceeded { .. } => ShedCause::DeadlineExceeded,
            ServeError::Degraded { .. } => ShedCause::Degraded,
            _ => return None,
        })
    }
}

/// Percentile summary of a latency population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Samples observed.
    pub count: u64,
    /// Arithmetic mean, microseconds.
    pub mean_us: f64,
    /// Median (nearest-rank), microseconds.
    pub p50_us: u64,
    /// 95th percentile (nearest-rank), microseconds.
    pub p95_us: u64,
    /// 99th percentile (nearest-rank), microseconds.
    pub p99_us: u64,
    /// 99.9th percentile (nearest-rank), microseconds — the tail the
    /// overload bench watches per priority class.
    pub p999_us: u64,
    /// Maximum, microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    /// Sorts `samples` in place and summarizes them. An empty population
    /// yields the all-zero default (no panic) — the boundary the overload
    /// bench hits for priority classes that shed everything.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        LatencyStats {
            count,
            mean_us: sum as f64 / count as f64,
            p50_us: percentile_nearest_rank(samples, 0.50),
            p95_us: percentile_nearest_rank(samples, 0.95),
            p99_us: percentile_nearest_rank(samples, 0.99),
            p999_us: percentile_nearest_rank(samples, 0.999),
            max_us: *samples.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile over a **sorted ascending** slice:
/// the smallest value ≥ `q` of the population.
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn percentile_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty population");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-priority-class counters and latency, reported per class in the
/// overload bench (goodput and tail latency are only meaningful split by
/// class — the whole point of SLO scheduling is that they diverge).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PriorityClassStats {
    /// Responses emitted for this class (ok + error).
    pub completed: u64,
    /// Successful responses.
    pub ok: u64,
    /// SLO-met successful responses (no-deadline requests count as met).
    pub goodput: u64,
    /// Responses whose deadline had passed (shed or completed late).
    pub deadline_misses: u64,
    /// Latency over all of this class's responses.
    pub latency: LatencyStats,
}

/// Scheduler-owned metrics accumulator.
#[derive(Debug, Default)]
pub struct Metrics {
    all_us: Vec<u64>,
    decode_us: Vec<u64>,
    prefill_us: Vec<u64>,
    priority_us: [Vec<u64>; 3],
    priority_completed: [u64; 3],
    priority_ok: [u64; 3],
    priority_goodput: [u64; 3],
    priority_deadline_misses: [u64; 3],
    batch_sizes: Vec<usize>,
    queue_depth_sum: u64,
    queue_depth_max: usize,
    queue_samples: u64,
    completed: u64,
    errors: u64,
    goodput: u64,
    deadline_misses: u64,
    decode_tokens: u64,
    shed_session_capacity: u64,
    shed_context_overflow: u64,
    shed_session_evicted: u64,
    shed_deadline: u64,
    shed_degraded: u64,
    ticks: u64,
    ticks_at_level: [u64; 3],
    degrade_escalations: u64,
    degrade_deescalations: u64,
    blocks_peak: usize,
    blocks_shared_peak: usize,
    util_sum: f64,
    util_samples: u64,
    gathered_bytes_sum: u64,
    gathered_bytes_max: u64,
    gathered_batches: u64,
}

impl Metrics {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed request. `deadline_met` is `None` for
    /// requests without a deadline (they always count toward goodput when
    /// successful), `Some(met)` otherwise.
    pub fn record_response(
        &mut self,
        lane: Lane,
        priority: Priority,
        latency_us: u64,
        is_error: bool,
        deadline_met: Option<bool>,
    ) {
        self.completed += 1;
        let rank = priority.rank();
        self.priority_completed[rank] += 1;
        if is_error {
            self.errors += 1;
        } else {
            self.priority_ok[rank] += 1;
            if deadline_met != Some(false) {
                self.goodput += 1;
                self.priority_goodput[rank] += 1;
            }
        }
        if deadline_met == Some(false) {
            self.deadline_misses += 1;
            self.priority_deadline_misses[rank] += 1;
        }
        self.all_us.push(latency_us);
        self.priority_us[rank].push(latency_us);
        match lane {
            Lane::Decode => {
                if !is_error {
                    self.decode_tokens += 1;
                }
                self.decode_us.push(latency_us);
            }
            Lane::Prefill => self.prefill_us.push(latency_us),
        }
    }

    /// Records one virtual-time tick spent at the given overload level
    /// (0 = normal, 1 = elevated, 2 = severe).
    pub fn record_tick(&mut self, level: u8) {
        self.ticks += 1;
        self.ticks_at_level[(level as usize).min(2)] += 1;
    }

    /// Records a degradation-ladder transition (`up` = escalation).
    pub fn record_degrade_transition(&mut self, up: bool) {
        if up {
            self.degrade_escalations += 1;
        } else {
            self.degrade_deescalations += 1;
        }
    }

    /// Records a dispatched batch's occupancy.
    pub fn record_batch(&mut self, size: usize) {
        self.batch_sizes.push(size);
    }

    /// Samples the pending-queue depth (taken each scheduler iteration).
    pub fn sample_queue_depth(&mut self, depth: usize) {
        self.queue_depth_sum += depth as u64;
        self.queue_depth_max = self.queue_depth_max.max(depth);
        self.queue_samples += 1;
    }

    /// Records one scheduler-side shed, by cause.
    pub fn record_shed(&mut self, cause: ShedCause) {
        match cause {
            ShedCause::SessionCapacity => self.shed_session_capacity += 1,
            ShedCause::ContextOverflow => self.shed_context_overflow += 1,
            ShedCause::SessionEvicted => self.shed_session_evicted += 1,
            ShedCause::DeadlineExceeded => self.shed_deadline += 1,
            ShedCause::Degraded => self.shed_degraded += 1,
        }
    }

    /// Records the KV bytes one decode batch gathered out of the block
    /// pool (the lock-free copies feeding that batch's attention GEMMs).
    /// Sampled per decode batch, like [`Self::sample_blocks`].
    pub fn sample_gathered_bytes(&mut self, delta: u64) {
        self.gathered_bytes_sum += delta;
        self.gathered_bytes_max = self.gathered_bytes_max.max(delta);
        self.gathered_batches += 1;
    }

    /// Samples the KV block pool: blocks in use, blocks referenced by more
    /// than one holder, and tokens actually stored. Utilization — tokens
    /// stored over the token capacity of the in-use blocks — measures
    /// internal fragmentation from partially filled tail blocks; samples
    /// with an empty pool are skipped.
    pub fn sample_blocks(
        &mut self,
        in_use: usize,
        shared: usize,
        tokens: usize,
        block_tokens: usize,
    ) {
        self.blocks_peak = self.blocks_peak.max(in_use);
        self.blocks_shared_peak = self.blocks_shared_peak.max(shared);
        if in_use > 0 {
            self.util_sum += tokens as f64 / (in_use * block_tokens) as f64;
            self.util_samples += 1;
        }
    }

    /// Freezes the accumulator into a snapshot. `elapsed_s` is the
    /// measured serving interval; shed/eviction/session counters come from
    /// the server's shared state, and `pool` from the block pool itself
    /// (exact peaks + contention).
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        mut self,
        elapsed_s: f64,
        shed_queue: u64,
        evictions: u64,
        sessions_peak: usize,
        sessions_capacity: usize,
        pool: PoolReport,
        shared_prefix_hits: u64,
    ) -> MetricsSnapshot {
        let occupancy_hist = {
            let mut hist: Vec<(usize, u64)> = Vec::new();
            let mut sizes = self.batch_sizes.clone();
            sizes.sort_unstable();
            for s in sizes {
                match hist.last_mut() {
                    Some((v, n)) if *v == s => *n += 1,
                    _ => hist.push((s, 1)),
                }
            }
            hist
        };
        let occupancy_sum = self.batch_sizes.iter().sum::<usize>() as f64;
        let occ_mean = ratio(occupancy_sum, self.batch_sizes.len() as f64);
        let priority = {
            let mut per = <[PriorityClassStats; 3]>::default();
            for (rank, stats) in per.iter_mut().enumerate() {
                *stats = PriorityClassStats {
                    completed: self.priority_completed[rank],
                    ok: self.priority_ok[rank],
                    goodput: self.priority_goodput[rank],
                    deadline_misses: self.priority_deadline_misses[rank],
                    latency: LatencyStats::from_samples(&mut self.priority_us[rank]),
                };
            }
            per
        };
        MetricsSnapshot {
            completed: self.completed,
            errors: self.errors,
            goodput: self.goodput,
            deadline_misses: self.deadline_misses,
            shed_queue,
            shed_session_capacity: self.shed_session_capacity,
            shed_context_overflow: self.shed_context_overflow,
            shed_session_evicted: self.shed_session_evicted,
            shed_deadline: self.shed_deadline,
            shed_degraded: self.shed_degraded,
            ticks: self.ticks,
            ticks_at_level: self.ticks_at_level,
            degrade_escalations: self.degrade_escalations,
            degrade_deescalations: self.degrade_deescalations,
            priority,
            evictions,
            sessions_peak,
            sessions_capacity,
            blocks_capacity: pool.blocks_capacity,
            // The allocator's exact peaks dominate the scheduler-sampled
            // ones; keeping the max also covers direct-sample-only tests.
            blocks_peak: self.blocks_peak.max(pool.blocks_peak),
            blocks_shared_peak: self.blocks_shared_peak.max(pool.blocks_shared_peak),
            block_utilization_mean: ratio(self.util_sum, self.util_samples as f64),
            shared_prefix_hits,
            alloc_lock_acquisitions: pool.contention.lock_acquisitions,
            alloc_lock_wait_us: pool.contention.lock_wait_ns / 1_000,
            alloc_lock_hold_max_us: pool.contention.lock_hold_max_ns / 1_000,
            gathered_bytes: pool.contention.gathered_bytes,
            gathered_bytes_per_batch_mean: ratio(
                self.gathered_bytes_sum as f64,
                self.gathered_batches as f64,
            ),
            gathered_bytes_per_batch_max: self.gathered_bytes_max,
            decode_tokens: self.decode_tokens,
            elapsed_s,
            latency: LatencyStats::from_samples(&mut self.all_us),
            decode_latency: LatencyStats::from_samples(&mut self.decode_us),
            prefill_latency: LatencyStats::from_samples(&mut self.prefill_us),
            batches: self.batch_sizes.len() as u64,
            batch_occupancy_mean: occ_mean,
            batch_occupancy_max: self.batch_sizes.iter().copied().max().unwrap_or(0),
            batch_occupancy_hist: occupancy_hist,
            queue_depth_mean: ratio(self.queue_depth_sum as f64, self.queue_samples as f64),
            queue_depth_max: self.queue_depth_max,
            tokens_per_s: ratio(self.decode_tokens as f64, elapsed_s),
            requests_per_s: ratio(self.completed as f64, elapsed_s),
        }
    }
}

/// `num / den`, or 0 over an empty (zero) denominator.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Immutable end-of-run metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Responses emitted (ok + error).
    pub completed: u64,
    /// Error responses among `completed`.
    pub errors: u64,
    /// Successful responses that met their SLO (no-deadline successes
    /// count). Goodput-per-second — the overload bench's y-axis — is
    /// this over [`elapsed_s`](Self::elapsed_s).
    pub goodput: u64,
    /// Responses whose deadline had passed (shed as late or answered
    /// after their due tick).
    pub deadline_misses: u64,
    /// Submits shed at admission ([`crate::ServeError::QueueFull`]).
    pub shed_queue: u64,
    /// Scheduler sheds from KV block exhaustion
    /// ([`crate::ServeError::SessionCapacity`]).
    pub shed_session_capacity: u64,
    /// Scheduler sheds from context-window overflow
    /// ([`crate::ServeError::ContextOverflow`]).
    pub shed_context_overflow: u64,
    /// Scheduler sheds targeting evicted sessions
    /// ([`crate::ServeError::SessionEvicted`]).
    pub shed_session_evicted: u64,
    /// Scheduler sheds of requests whose deadline had already passed
    /// ([`crate::ServeError::DeadlineExceeded`]).
    pub shed_deadline: u64,
    /// Scheduler sheds by the graceful-degradation ladder
    /// ([`crate::ServeError::Degraded`]).
    pub shed_degraded: u64,
    /// Virtual-time ticks processed (0 for wall-clock servers).
    pub ticks: u64,
    /// Ticks spent at each overload level (normal / elevated / severe).
    pub ticks_at_level: [u64; 3],
    /// Degradation-ladder escalations (level increases).
    pub degrade_escalations: u64,
    /// Degradation-ladder de-escalations (level decreases).
    pub degrade_deescalations: u64,
    /// Per-priority-class stats, indexed by [`Priority::rank`].
    pub priority: [PriorityClassStats; 3],
    /// Sessions LRU-evicted.
    pub evictions: u64,
    /// Peak resident sessions. With block-granular allocation this can
    /// exceed [`sessions_capacity`](Self::sessions_capacity): short
    /// sessions hold only the blocks they filled, so more of them fit in
    /// the same byte budget.
    pub sessions_peak: usize,
    /// Worst-case (fully grown) sessions the KV byte budget holds at the
    /// server's precision ([`crate::ServeConfig::kv_budget_bytes`] ÷
    /// bytes per session).
    pub sessions_capacity: usize,
    /// KV blocks the byte budget carves out.
    pub blocks_capacity: usize,
    /// Peak KV blocks in use.
    pub blocks_peak: usize,
    /// Peak KV blocks shared (refcount > 1) across sessions or the
    /// prefix index.
    pub blocks_shared_peak: usize,
    /// Mean of tokens-stored ÷ token-capacity-of-in-use-blocks across
    /// scheduler samples — 1.0 means no internal fragmentation from
    /// partial tail blocks.
    pub block_utilization_mean: f64,
    /// Times a freshly filled block was deduplicated onto an existing
    /// shared-prefix block.
    pub shared_prefix_hits: u64,
    /// Times the block-pool mutex was acquired (appends, alloc/release,
    /// gather pins, gauge reads).
    pub alloc_lock_acquisitions: u64,
    /// Total microseconds spent waiting for the pool mutex — the
    /// allocator-contention signal under concurrent decode.
    pub alloc_lock_wait_us: u64,
    /// Longest single pool critical section, microseconds.
    pub alloc_lock_hold_max_us: u64,
    /// Total KV bytes copied out of blocks by lock-free gathers.
    pub gathered_bytes: u64,
    /// Mean gathered KV bytes per decode batch.
    pub gathered_bytes_per_batch_mean: f64,
    /// Largest single decode batch's gathered KV bytes.
    pub gathered_bytes_per_batch_max: u64,
    /// Successful decode steps (= tokens generated).
    pub decode_tokens: u64,
    /// Serving interval in seconds.
    pub elapsed_s: f64,
    /// Latency over all responses.
    pub latency: LatencyStats,
    /// Latency over decode responses.
    pub decode_latency: LatencyStats,
    /// Latency over prefill responses.
    pub prefill_latency: LatencyStats,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean batch occupancy.
    pub batch_occupancy_mean: f64,
    /// Largest batch dispatched.
    pub batch_occupancy_max: usize,
    /// `(occupancy, batch count)` pairs, ascending occupancy.
    pub batch_occupancy_hist: Vec<(usize, u64)>,
    /// Mean pending-queue depth across scheduler iterations.
    pub queue_depth_mean: f64,
    /// Peak pending-queue depth.
    pub queue_depth_max: usize,
    /// Generated tokens per second.
    pub tokens_per_s: f64,
    /// Completed requests per second.
    pub requests_per_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&v, 0.50), 50);
        assert_eq!(percentile_nearest_rank(&v, 0.95), 95);
        assert_eq!(percentile_nearest_rank(&v, 0.99), 99);
        assert_eq!(percentile_nearest_rank(&[7], 0.99), 7);
        assert_eq!(percentile_nearest_rank(&[1, 2], 0.50), 1);
        assert_eq!(percentile_nearest_rank(&[1, 2], 0.51), 2);
    }

    #[test]
    fn snapshot_aggregates_lanes_and_occupancy() {
        let mut m = Metrics::new();
        m.record_response(Lane::Decode, Priority::High, 100, false, None);
        m.record_response(Lane::Decode, Priority::Normal, 300, false, Some(true));
        m.record_response(Lane::Prefill, Priority::Low, 1000, false, Some(false));
        // errored decode: no token
        m.record_response(Lane::Decode, Priority::High, 200, true, None);
        m.record_batch(2);
        m.record_batch(2);
        m.record_batch(4);
        m.sample_queue_depth(3);
        m.sample_queue_depth(5);
        m.record_shed(ShedCause::SessionCapacity);
        m.record_shed(ShedCause::ContextOverflow);
        m.record_shed(ShedCause::ContextOverflow);
        m.record_shed(ShedCause::DeadlineExceeded);
        m.record_shed(ShedCause::Degraded);
        m.record_tick(0);
        m.record_tick(1);
        m.record_tick(2);
        m.record_degrade_transition(true);
        m.record_degrade_transition(true);
        m.record_degrade_transition(false);
        m.sample_blocks(4, 1, 32, 16); // utilization 0.5
        m.sample_blocks(2, 0, 32, 16); // utilization 1.0
        m.sample_blocks(0, 0, 0, 16); // empty pool: skipped
        m.sample_gathered_bytes(1_000);
        m.sample_gathered_bytes(3_000);
        let pool = PoolReport {
            blocks_capacity: 64,
            blocks_peak: 3, // below the sampled peak: the max wins
            blocks_shared_peak: 1,
            contention: PoolContention {
                lock_acquisitions: 11,
                lock_wait_ns: 5_000,
                lock_hold_max_ns: 2_500,
                gathered_bytes: 4_000,
            },
        };
        let s = m.snapshot(2.0, 7, 1, 9, 16, pool, 3);
        assert_eq!(s.completed, 4);
        assert_eq!(s.sessions_capacity, 16);
        assert_eq!(s.shed_session_capacity, 1);
        assert_eq!(s.shed_context_overflow, 2);
        assert_eq!(s.shed_session_evicted, 0);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.shed_degraded, 1);
        assert_eq!(s.ticks, 3);
        assert_eq!(s.ticks_at_level, [1, 1, 1]);
        assert_eq!(s.degrade_escalations, 2);
        assert_eq!(s.degrade_deescalations, 1);
        // Goodput: 3 successes, one missed its deadline.
        assert_eq!(s.goodput, 2);
        assert_eq!(s.deadline_misses, 1);
        let high = &s.priority[Priority::High.rank()];
        assert_eq!(high.completed, 2);
        assert_eq!(high.ok, 1);
        assert_eq!(high.goodput, 1);
        assert_eq!(high.deadline_misses, 0);
        assert_eq!(high.latency.count, 2);
        let normal = &s.priority[Priority::Normal.rank()];
        assert_eq!((normal.ok, normal.goodput), (1, 1));
        let low = &s.priority[Priority::Low.rank()];
        assert_eq!(low.ok, 1);
        assert_eq!(low.goodput, 0, "late success is not goodput");
        assert_eq!(low.deadline_misses, 1);
        assert_eq!(s.blocks_capacity, 64);
        assert_eq!(s.blocks_peak, 4);
        assert_eq!(s.blocks_shared_peak, 1);
        assert!((s.block_utilization_mean - 0.75).abs() < 1e-12);
        assert_eq!(s.shared_prefix_hits, 3);
        assert_eq!(s.alloc_lock_acquisitions, 11);
        assert_eq!(s.alloc_lock_wait_us, 5);
        assert_eq!(s.alloc_lock_hold_max_us, 2);
        assert_eq!(s.gathered_bytes, 4_000);
        assert!((s.gathered_bytes_per_batch_mean - 2_000.0).abs() < 1e-12);
        assert_eq!(s.gathered_bytes_per_batch_max, 3_000);
        assert_eq!(s.errors, 1);
        assert_eq!(s.decode_tokens, 2);
        assert_eq!(s.tokens_per_s, 1.0);
        assert_eq!(s.requests_per_s, 2.0);
        assert_eq!(s.latency.count, 4);
        assert_eq!(s.decode_latency.p50_us, 200);
        assert_eq!(s.prefill_latency.max_us, 1000);
        assert_eq!(s.batches, 3);
        assert!((s.batch_occupancy_mean - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.batch_occupancy_max, 4);
        assert_eq!(s.batch_occupancy_hist, vec![(2, 2), (4, 1)]);
        assert_eq!(s.queue_depth_max, 5);
        assert_eq!(s.queue_depth_mean, 4.0);
        assert_eq!(s.shed_queue, 7);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.sessions_peak, 9);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = Metrics::new().snapshot(0.0, 0, 0, 0, 0, PoolReport::default(), 0);
        assert_eq!(s.latency, LatencyStats::default());
        assert_eq!(s.alloc_lock_acquisitions, 0);
        assert_eq!(s.gathered_bytes_per_batch_mean, 0.0);
        assert_eq!(s.tokens_per_s, 0.0);
        assert_eq!(s.batch_occupancy_hist, vec![]);
        assert_eq!(s.block_utilization_mean, 0.0);
        assert_eq!(s.goodput, 0);
        assert_eq!(s.priority, <[PriorityClassStats; 3]>::default());
        assert_eq!(s.ticks_at_level, [0, 0, 0]);
    }

    #[test]
    fn allocator_exact_peaks_dominate_scheduler_samples() {
        // A spike between two scheduler samples is invisible to
        // sample_blocks but recorded by the allocator's own peak gauge;
        // the snapshot must report the exact (higher) value.
        let mut m = Metrics::new();
        m.sample_blocks(2, 0, 8, 16);
        let pool = PoolReport {
            blocks_capacity: 64,
            blocks_peak: 9,
            blocks_shared_peak: 4,
            contention: PoolContention::default(),
        };
        let s = m.snapshot(1.0, 0, 0, 0, 0, pool, 0);
        assert_eq!(s.blocks_peak, 9);
        assert_eq!(s.blocks_shared_peak, 4);
    }

    // Satellite: percentile boundary semantics pinned before the overload
    // bench depends on them.

    #[test]
    fn empty_lane_latency_is_default_without_panic() {
        let mut none: Vec<u64> = vec![];
        assert_eq!(
            LatencyStats::from_samples(&mut none),
            LatencyStats::default()
        );
    }

    #[test]
    fn single_sample_latency_is_that_sample_at_every_percentile() {
        let mut one = vec![42u64];
        let s = LatencyStats::from_samples(&mut one);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_us, 42.0);
        assert_eq!(
            (s.p50_us, s.p95_us, s.p99_us, s.p999_us, s.max_us),
            (42, 42, 42, 42, 42)
        );
    }

    #[test]
    fn exact_quantile_index_uses_nearest_rank_not_interpolation() {
        // 1000 samples: rank(q) = ceil(q * 1000) exactly, so p50 = sample
        // #500, p99 = #990, p99.9 = #999 — no interpolation between ranks.
        let mut v: Vec<u64> = (1..=1000).collect();
        let s = LatencyStats::from_samples(&mut v);
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p95_us, 950);
        assert_eq!(s.p99_us, 990);
        assert_eq!(s.p999_us, 999);
        assert_eq!(s.max_us, 1000);
        // 10 samples: p99.9 rank = ceil(9.99) = 10 → max.
        let mut w: Vec<u64> = (1..=10).collect();
        let t = LatencyStats::from_samples(&mut w);
        assert_eq!(t.p999_us, 10);
        assert_eq!(t.p50_us, 5);
    }
}

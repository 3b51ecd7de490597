//! The scheduler as a clock-free state machine: admission bookkeeping,
//! batching, KV reservation, dispatch, the degradation ladder, and
//! metrics. A driver feeds [`Input`]s to [`Scheduler::step`], calls
//! [`Scheduler::poll`] to self-dispatch, and delivers the [`Output`]s.
//! Time arrives only as parameters: the wall-clock `now` stamps latencies
//! and fires coalescing deadlines; [`Input::Tick`] carries the virtual
//! clock, on which every virtual-time shed and dispatch decision runs.

use crate::batcher::{Batcher, Lane, Pending};
use crate::config::{ServeConfig, SloPolicy};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot, ShedCause};
use crate::request::{Payload, Priority, RequestKind, Response, SessionId};
use crate::session::{SessionKv, SessionManager};
use apsq_nn::BlockPool;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// State shared between client handles and the scheduler.
#[derive(Default)]
pub(crate) struct Shared {
    /// Requests admitted but not yet dispatched or error-responded.
    pub(crate) depth: AtomicUsize,
    /// Submits shed with [`ServeError::QueueFull`].
    pub(crate) shed_queue: AtomicU64,
    /// Set when draining begins; submits are refused from then on.
    pub(crate) closed: AtomicBool,
}

/// What one virtual-time tick accomplished, returned by
/// [`ServerHandle::tick`](crate::ServerHandle::tick) after the system
/// quiesced again.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickDone {
    /// The virtual clock value this tick ran at.
    pub now: u64,
    /// Decode steps dispatched (and completed) this tick.
    pub dispatched_decode: usize,
    /// Prefill requests dispatched (and completed) this tick.
    pub dispatched_prefill: usize,
    /// Requests shed during this tick's scheduling round (deadline,
    /// degradation, overflow, and capacity sheds combined).
    pub shed: usize,
    /// Degradation-ladder level in force this tick (0 = normal).
    pub level: u8,
}

/// A completed batch returning from a worker.
pub(crate) struct BatchDone {
    pub(crate) lane: Lane,
    /// Each request with its outcome.
    pub(crate) items: Vec<(Pending, Result<Payload, ServeError>)>,
    /// KV states to check back in (decode batches only).
    pub(crate) states: Vec<(SessionId, SessionKv)>,
}

/// A coalesced batch for the worker pool. A decode batch's KV block
/// demand is already promised in the pool's reservation ledger; its
/// appends consume the promises as they allocate.
pub(crate) enum WorkItem {
    Decode {
        items: Vec<Pending>,
        states: Vec<(SessionId, SessionKv)>,
    },
    Prefill {
        items: Vec<Pending>,
    },
}

/// Everything the scheduler reacts to.
pub(crate) enum Input {
    /// A request that passed client-side admission (its depth slot is
    /// already taken).
    Submit(Pending),
    /// A dispatched batch finished.
    Done(BatchDone),
    /// Advance the virtual clock and run one lockstep scheduling round.
    Tick(u64),
    /// Stop accepting work and drain.
    Shutdown,
}

/// Everything the scheduler asks its driver to deliver.
pub(crate) enum Output {
    Dispatch(WorkItem),
    Respond(Response),
    /// A tick's report, emitted once every batch it dispatched completed.
    Ack(TickDone),
}

/// Which bookkeeping a failed request still holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Refused before admission: holds only its queue-depth slot.
    Unadmitted,
    /// Removed by the batcher itself (expiry, prefill shed, shutdown
    /// drain): also holds its session pin.
    Dequeued,
    /// Taken from the decode lane for dispatch: also holds its session's
    /// batcher slot, which passes to the session's next held-back step.
    Taken,
}

/// The clock-free scheduling state machine.
pub(crate) struct Scheduler {
    slo: SloPolicy,
    workers: usize,
    max_len: usize,
    shared: Arc<Shared>,
    pool: Arc<BlockPool>,
    batcher: Batcher,
    sessions: SessionManager,
    metrics: Metrics,
    /// Gathered-bytes watermark: the pool counter is cumulative, so each
    /// completed decode batch samples the delta since the last one.
    last_gathered: u64,
    inflight: usize,
    draining: bool,
    /// The virtual clock and the degradation-ladder level with its
    /// hysteresis streaks; both move only on virtual ticks.
    vnow: u64,
    level: u8,
    hot_streak: u64,
    calm_streak: u64,
    /// Sheds since the current tick began.
    tick_shed: usize,
    /// Reports of virtual ticks whose batches are still in flight.
    pending_acks: Vec<TickDone>,
    /// Admit-time shed depth releases, deferred to the next virtual tick:
    /// releasing at once would race the client's admission reads.
    deferred_depth: usize,
}

impl Scheduler {
    /// A scheduler for `cfg` over the shared KV `pool`.
    pub(crate) fn new(cfg: &ServeConfig, pool: Arc<BlockPool>, shared: Arc<Shared>) -> Self {
        Scheduler {
            slo: cfg.slo,
            workers: cfg.workers,
            max_len: cfg.model.max_len,
            shared,
            sessions: SessionManager::new(
                Arc::clone(&pool),
                cfg.session_capacity(),
                cfg.model.layers,
            ),
            pool,
            batcher: Batcher::new(cfg.batch),
            metrics: Metrics::new(),
            last_gathered: 0,
            inflight: 0,
            draining: false,
            vnow: 0,
            level: 0,
            hot_streak: 0,
            calm_streak: 0,
            tick_shed: 0,
            pending_acks: Vec::new(),
            deferred_depth: 0,
        }
    }

    /// Feeds one input at wall time `now`, appending what it emits.
    pub(crate) fn step(&mut self, input: Input, now: Instant, out: &mut Vec<Output>) {
        match input {
            Input::Submit(p) => self.submit(p, now, out),
            Input::Done(done) => self.complete(done, now, out),
            Input::Tick(t) => self.tick(t, now, out),
            Input::Shutdown => {
                self.shared.closed.store(true, Ordering::Release);
                self.draining = true;
                self.flush_deferred_depth();
                // A virtual-time server never self-drains its queue.
                if self.slo.virtual_time {
                    for p in self.batcher.drain_all() {
                        self.shed(p, Stage::Dequeued, ServeError::ShuttingDown, now, out);
                    }
                }
            }
        }
    }

    /// Samples the queue depth and, on a wall-clock server, hands every
    /// lane ready at `now` to idle workers. A virtual-time server
    /// dispatches only inside ticks, within per-tick budgets.
    pub(crate) fn poll(&mut self, now: Instant, out: &mut Vec<Output>) {
        self.metrics.sample_queue_depth(self.batcher.depth());
        if self.slo.virtual_time {
            return;
        }
        while self.idle() > 0 {
            match self.batcher.next_lane(now, self.draining) {
                None => break,
                // Prefill requests execute independently even when
                // coalesced, so once the lane fires, spread the whole
                // burst across every idle worker right away — one
                // div_ceil-sized chunk each. Taking a single chunk would
                // strand the remainder (below the full-batch trigger
                // again) until the max-wait deadline while workers idle.
                Some(Lane::Prefill) => {
                    while self.idle() > 0 && self.batcher.lane_len(Lane::Prefill) > 0 {
                        let chunk = self.batcher.lane_len(Lane::Prefill).div_ceil(self.idle());
                        self.dispatch_prefill(chunk, out);
                    }
                }
                // Decode batches coalesce greedily — stacked rows share
                // one GEMM, so occupancy is pure win.
                Some(Lane::Decode) => {
                    let items = self.batcher.take(Lane::Decode);
                    self.plan_decode(items, now, out);
                }
            }
        }
    }

    /// When [`Self::poll`] next has work without a new input: the oldest
    /// partial batch's coalescing deadline, if a worker is idle to take
    /// it. `None` means wait for the next input.
    pub(crate) fn next_wake(&self) -> Option<Instant> {
        if self.slo.virtual_time || self.idle() == 0 {
            return None;
        }
        self.batcher.next_deadline()
    }

    /// Whether shutdown has drained every queued and in-flight request.
    pub(crate) fn is_drained(&self) -> bool {
        self.draining && self.inflight == 0 && self.batcher.is_empty()
    }

    /// Freezes the end-of-run metrics over a serving `uptime`.
    pub(crate) fn finish(self, uptime: Duration) -> MetricsSnapshot {
        self.metrics.snapshot(
            uptime.as_secs_f64(),
            self.shared.shed_queue.load(Ordering::Relaxed),
            self.sessions.evictions(),
            self.sessions.peak(),
            self.sessions.capacity(),
            self.sessions.pool_report(),
            self.sessions.shared_prefix_hits(),
        )
    }

    fn idle(&self) -> usize {
        self.workers.saturating_sub(self.inflight)
    }

    fn submit(&mut self, p: Pending, now: Instant, out: &mut Vec<Output>) {
        if self.draining {
            return self.shed(p, Stage::Unadmitted, ServeError::ShuttingDown, now, out);
        }
        if let Some(session) = p.req.session() {
            if let Err(e) = self.sessions.admit(session) {
                return self.shed(p, Stage::Unadmitted, e, now, out);
            }
        }
        self.batcher.push(p);
    }

    fn complete(&mut self, done: BatchDone, now: Instant, out: &mut Vec<Output>) {
        self.inflight -= 1;
        let occupancy = done.items.len();
        for (sid, st) in done.states {
            self.sessions.checkin(sid, st);
        }
        for (p, result) in done.items {
            let session = p.req.session();
            // A successful decode folds its token into the session's
            // prefix chain and may hash-cons a just-filled block against
            // older sessions.
            let decoded = match (&result, &p.req.kind) {
                (Ok(_), &RequestKind::Decode { token, .. }) => Some(token),
                _ => None,
            };
            self.respond(p, result, occupancy, now, out);
            if let Some(s) = session {
                if let Some(token) = decoded {
                    self.sessions.note_decoded(s, token);
                }
                self.sessions.release(s);
                self.batcher.on_session_done(s);
            }
        }
        if done.lane == Lane::Decode {
            let (in_use, shared_blocks, tokens, block_tokens) = self.sessions.block_gauges();
            self.metrics
                .sample_blocks(in_use, shared_blocks, tokens, block_tokens);
            let gathered = self.pool.contention().gathered_bytes;
            self.metrics
                .sample_gathered_bytes(gathered - self.last_gathered);
            self.last_gathered = gathered;
        }
        // The lockstep barrier: a tick's ack fires only once everything
        // it dispatched has drained.
        if self.inflight == 0 {
            out.extend(self.pending_acks.drain(..).map(Output::Ack));
        }
    }

    /// One scheduling round at virtual tick `t`. On a virtual-time server
    /// it moves the ladder, sheds, and dispatches within the per-tick
    /// budgets; the driver waits for the ack before ticking again, so the
    /// system is quiesced and every decision is a pure function of the
    /// submitted traffic. A wall-clock server only sheds expired
    /// deadlines and acks at once.
    fn tick(&mut self, t: u64, now: Instant, out: &mut Vec<Output>) {
        self.vnow = t;
        self.tick_shed = 0;
        self.flush_deferred_depth();
        let virtual_time = self.slo.virtual_time;
        if virtual_time {
            self.move_ladder();
            // Severe overload: shed queued sub-interactive prefill before
            // touching any decode work.
            if self.level >= 2 && self.slo.degrade.shed_prefill_first {
                for p in self.batcher.shed_prefill_below(Priority::High) {
                    let err = ServeError::Degraded {
                        level: self.level,
                        reason: "prefill-shed",
                    };
                    self.shed(p, Stage::Dequeued, err, now, out);
                }
            }
        }
        // Shed everything whose deadline has passed — dispatching it
        // could no longer meet the SLO.
        for p in self.batcher.shed_expired(t) {
            let deadline = p.req.slo.deadline.unwrap_or(0);
            let err = ServeError::DeadlineExceeded { deadline, now: t };
            self.shed(p, Stage::Dequeued, err, now, out);
        }
        let mut td = TickDone {
            now: t,
            level: self.level,
            ..TickDone::default()
        };
        if virtual_time {
            let mut budget = self.slo.decode_units_per_tick;
            while budget > 0 {
                let items = self.batcher.take_up_to(Lane::Decode, budget);
                if items.is_empty() {
                    break;
                }
                let n = self.plan_decode(items, now, out);
                budget -= n.min(budget);
                td.dispatched_decode += n;
            }
            let mut budget = self.slo.prefill_units_per_tick;
            while budget > 0 && self.batcher.lane_len(Lane::Prefill) > 0 {
                let n = self.dispatch_prefill(budget, out);
                budget -= n.min(budget);
                td.dispatched_prefill += n;
            }
        }
        td.shed = self.tick_shed;
        if virtual_time && self.inflight > 0 {
            self.pending_acks.push(td);
        } else {
            out.push(Output::Ack(td));
        }
    }

    /// Moves the degradation-ladder level toward the one the batcher
    /// depth calls for, once that pressure has held for `sustain_ticks`
    /// consecutive ticks (hysteresis both ways).
    fn move_ladder(&mut self) {
        let degrade = self.slo.degrade;
        let depth = self.batcher.depth();
        let target: u8 = if depth >= degrade.severe_depth {
            2
        } else if depth >= degrade.elevate_depth {
            1
        } else {
            0
        };
        if target > self.level {
            self.hot_streak += 1;
            self.calm_streak = 0;
            if self.hot_streak >= degrade.sustain_ticks {
                self.level = target;
                self.hot_streak = 0;
                self.metrics.record_degrade_transition(true);
            }
        } else if target < self.level {
            self.calm_streak += 1;
            self.hot_streak = 0;
            if self.calm_streak >= degrade.sustain_ticks {
                self.level -= 1;
                self.calm_streak = 0;
                self.metrics.record_degrade_transition(false);
            }
        } else {
            self.hot_streak = 0;
            self.calm_streak = 0;
        }
        self.metrics.record_tick(self.level);
    }

    /// Reserves KV blocks for and checks out each taken decode step, then
    /// dispatches the survivors as one batch. The reservation reclaims
    /// unreferenced prefix blocks and LRU-evicts idle sessions under
    /// pressure, so a dispatched batch never exhausts the pool mid-step;
    /// steps the ladder, the context window, or the pool refuse are shed.
    /// Returns the dispatched batch size.
    fn plan_decode(&mut self, items: Vec<Pending>, now: Instant, out: &mut Vec<Output>) -> usize {
        let mut batch = Vec::with_capacity(items.len());
        let mut states = Vec::with_capacity(items.len());
        for p in items {
            let session = p.req.session().expect("decode lane request has a session");
            match self.reserve_step(&p, session) {
                Err(err) => self.shed(p, Stage::Taken, err, now, out),
                Ok(()) => {
                    states.push((session, self.sessions.checkout(session)));
                    batch.push(p);
                }
            }
        }
        let n = batch.len();
        if n > 0 {
            self.dispatch(
                n,
                WorkItem::Decode {
                    items: batch,
                    states,
                },
                out,
            );
        }
        n
    }

    /// Reserves the KV blocks of one decode step, unless the ladder, the
    /// context window, or the pool refuses it. The ladder rungs only
    /// fire at level ≥ 1, which only virtual ticks reach.
    fn reserve_step(&mut self, p: &Pending, session: SessionId) -> Result<(), ServeError> {
        let position = self.sessions.position(session);
        let degrade = self.slo.degrade;
        let low = self.level >= 1 && p.req.slo.priority == Priority::Low;
        let level = self.level;
        let degraded = |reason| Err(ServeError::Degraded { level, reason });
        // Ladder rung: cap best-effort decode lengths.
        if low && position >= degrade.low_decode_cap {
            return degraded("decode-length-cap");
        }
        // Ladder rung: refuse *new* best-effort sessions when KV headroom
        // is thin, so interactive sessions keep room to grow.
        if low
            && position == 0
            && degrade.kv_guard_free_blocks > 0
            && self.sessions.blocks_unreserved() < degrade.kv_guard_free_blocks
        {
            return degraded("kv-guard");
        }
        if position >= self.max_len {
            let max_len = self.max_len;
            return Err(ServeError::ContextOverflow {
                session,
                position,
                max_len,
            });
        }
        self.sessions.reserve(session).map(drop)
    }

    /// Dispatches up to `limit` queued prefill requests as one batch and
    /// returns how many. The prefill lane must be non-empty.
    fn dispatch_prefill(&mut self, limit: usize, out: &mut Vec<Output>) -> usize {
        let items = self.batcher.take_up_to(Lane::Prefill, limit);
        let n = items.len();
        self.dispatch(n, WorkItem::Prefill { items }, out);
        n
    }

    /// Hands `work` (`n` requests) to the worker pool; its requests
    /// leave the queue.
    fn dispatch(&mut self, n: usize, work: WorkItem, out: &mut Vec<Output>) {
        self.shared.depth.fetch_sub(n, Ordering::Relaxed);
        self.metrics.record_batch(n);
        self.inflight += 1;
        out.push(Output::Dispatch(work));
    }

    /// Answers `p` with `err`, counts the shed under the error's cause
    /// (`ShuttingDown` is not a shed), and releases what `p` holds at
    /// `stage`: its queue-depth slot, its session pin, its session's
    /// batcher slot.
    fn shed(
        &mut self,
        p: Pending,
        stage: Stage,
        err: ServeError,
        now: Instant,
        out: &mut Vec<Output>,
    ) {
        if let Some(cause) = ShedCause::of(&err) {
            self.metrics.record_shed(cause);
            self.tick_shed += 1;
        }
        if stage == Stage::Unadmitted && self.slo.virtual_time && !self.draining {
            self.deferred_depth += 1;
        } else {
            self.shared.depth.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(s) = p.req.session().filter(|_| stage != Stage::Unadmitted) {
            self.sessions.release(s);
            if stage == Stage::Taken {
                self.batcher.on_session_done(s);
            }
        }
        self.respond(p, Err(err), 0, now, out);
    }

    fn flush_deferred_depth(&mut self) {
        let n = std::mem::take(&mut self.deferred_depth);
        self.shared.depth.fetch_sub(n, Ordering::Relaxed);
    }

    fn respond(
        &mut self,
        p: Pending,
        result: Result<Payload, ServeError>,
        occupancy: usize,
        now: Instant,
        out: &mut Vec<Output>,
    ) {
        let lane = match p.req.kind {
            RequestKind::Decode { .. } => Lane::Decode,
            RequestKind::Prefill { .. } => Lane::Prefill,
        };
        let latency_us = now.saturating_duration_since(p.submitted).as_micros() as u64;
        // In virtual time a request dispatched at tick T completes at T,
        // so the SLO is met iff T has not passed the deadline. A shed for
        // an expired deadline is by definition a miss.
        let deadline_met = match (&result, p.req.slo.deadline) {
            (Err(ServeError::DeadlineExceeded { .. }), _) => Some(false),
            (_, Some(d)) => Some(self.vnow <= d),
            (_, None) => None,
        };
        self.metrics.record_response(
            lane,
            p.req.slo.priority,
            latency_us,
            result.is_err(),
            deadline_met,
        );
        out.push(Output::Respond(Response {
            id: p.req.id,
            result,
            latency_us,
            batch_size: occupancy,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crate::request::{PrefillModel, Request, Slo};
    use crate::server::{clock, kv_pool, run_decode, run_prefill, PrefillLib};
    use apsq_nn::PagedDecoder;
    use apsq_tensor::ExecEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn tiny_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::smoke();
        cfg.model.d_model = 32;
        cfg.model.d_ff = 64;
        cfg.model.heads = 2;
        cfg.model.vocab = 16;
        cfg.model.max_len = 16;
        cfg.prefill_max_macs = 5_000;
        cfg
    }

    /// A single-threaded driver: the real executors run inline, and the
    /// accounting invariants are checked after every step.
    struct Sim {
        sched: Scheduler,
        model: Box<dyn PagedDecoder>,
        lib: PrefillLib,
        pool: Arc<BlockPool>,
        eng: ExecEngine,
        cfg: ServeConfig,
        now: Instant,
        inflight: Vec<WorkItem>,
        responded: BTreeSet<u64>,
        submitted: u64,
        /// Decode requests submitted and not yet answered.
        open_decodes: BTreeSet<u64>,
        acks: usize,
    }

    impl Sim {
        fn new(cfg: &ServeConfig) -> Sim {
            let model = cfg.model.build_decoder(cfg.precision);
            let pool = Arc::new(kv_pool(cfg));
            let now = clock();
            let shared = Arc::new(Shared::default());
            let sched = Scheduler::new(cfg, Arc::clone(&pool), shared);
            Sim {
                sched,
                model,
                lib: PrefillLib::build(),
                pool,
                eng: ExecEngine::serial(),
                cfg: cfg.clone(),
                now,
                inflight: Vec::new(),
                responded: BTreeSet::new(),
                submitted: 0,
                open_decodes: BTreeSet::new(),
                acks: 0,
            }
        }

        /// Client-side admission (take a depth slot), then submit.
        fn submit(&mut self, req: Request) {
            self.submitted += 1;
            if req.session().is_some() {
                self.open_decodes.insert(req.id);
            }
            self.sched.shared.depth.fetch_add(1, Ordering::Relaxed);
            let submitted = self.now;
            self.step(Input::Submit(Pending { req, submitted }));
        }

        fn step(&mut self, input: Input) {
            let mut out = Vec::new();
            self.sched.step(input, self.now, &mut out);
            self.absorb(out);
        }

        fn poll(&mut self) {
            let mut out = Vec::new();
            self.sched.poll(self.now, &mut out);
            self.absorb(out);
        }

        /// Executes the `i`-th in-flight batch and reports it done.
        fn complete(&mut self, i: usize) {
            let done = match self.inflight.swap_remove(i) {
                WorkItem::Decode { items, states } => {
                    run_decode(&*self.model, &self.eng, &self.pool, items, states)
                }
                WorkItem::Prefill { items } => run_prefill(
                    &self.lib,
                    &self.eng,
                    items,
                    self.cfg.prefill_max_macs,
                    self.cfg.precision,
                ),
            };
            self.step(Input::Done(done));
        }

        fn absorb(&mut self, out: Vec<Output>) {
            let acks = self.acks;
            for o in out {
                match o {
                    Output::Dispatch(work) => self.inflight.push(work),
                    Output::Respond(r) => {
                        assert!(
                            self.responded.insert(r.id),
                            "request {} answered twice",
                            r.id
                        );
                        self.open_decodes.remove(&r.id);
                    }
                    Output::Ack(_) => self.acks += 1,
                }
            }
            if self.sched.slo.virtual_time && self.acks > acks {
                assert!(
                    self.inflight.is_empty(),
                    "tick acked with batches in flight"
                );
            }
            self.check();
        }

        fn check(&self) {
            let s = &self.sched;
            assert_eq!(
                s.shared.depth.load(Ordering::Relaxed),
                s.batcher.depth() + s.deferred_depth,
                "depth counter != queued requests + unflushed sheds"
            );
            assert_eq!(s.inflight, self.inflight.len());
            assert_eq!(
                s.sessions.pins(),
                self.open_decodes.len(),
                "session pins != unanswered decode requests"
            );
            let mut checked_out = BTreeSet::new();
            for work in &self.inflight {
                if let WorkItem::Decode { states, .. } = work {
                    for &(sid, _) in states {
                        assert!(checked_out.insert(sid), "session {sid} checked out twice");
                        assert!(s.sessions.is_busy(sid));
                    }
                }
            }
            let alloc = self.pool.lock();
            assert_eq!(
                alloc.blocks_free() + alloc.blocks_in_use(),
                alloc.blocks_capacity(),
                "blocks leaked"
            );
            let reserved = alloc.blocks_free() - alloc.blocks_unreserved();
            if self.inflight.is_empty() {
                assert_eq!(reserved, 0, "a reservation outlived its batch");
            }
        }
    }

    /// A seeded interleaving of decode and prefill submits, out-of-order
    /// completions, and ticks (virtual time) or clock advances (wall
    /// clock), under KV pressure tight enough to evict and shed, then a
    /// shutdown drain with a straggler.
    fn simulate(seed: u64, virtual_time: bool) {
        let mut cfg = tiny_cfg();
        cfg.kv_block_tokens = 4;
        cfg.kv_budget_bytes = 3 * cfg.model.kv_bytes_per_session(cfg.precision);
        if virtual_time {
            cfg.slo = crate::SloPolicy::virtual_time(3, 1, 12);
            cfg.slo.degrade.sustain_ticks = 1;
        } else {
            cfg.batch = BatchPolicy {
                max_batch: 3,
                max_wait: Duration::from_millis(2),
                continuous: false,
            };
        }
        let mut sim = Sim::new(&cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let priorities = [Priority::High, Priority::Normal, Priority::Low];
        let mut ticks = 0u64;
        let request = |rng: &mut StdRng, id, ticks| {
            let req = if rng.gen_range(0..4) == 0 {
                Request::prefill(id, PrefillModel::BertBase128)
            } else {
                Request::decode(id, rng.gen_range(0..6), rng.gen_range(0..16))
            };
            let priority = priorities[rng.gen_range(0..3)];
            req.with_slo(Slo::new(priority, ticks + rng.gen_range(0..4)))
        };
        for _ in 0..300 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let req = request(&mut rng, sim.submitted, ticks);
                    sim.submit(req);
                }
                5..=7 if !sim.inflight.is_empty() => {
                    let i = rng.gen_range(0..sim.inflight.len());
                    sim.complete(i);
                }
                // Lockstep: a virtual tick only runs on a quiesced system.
                // A wall-clock tick may land with batches in flight.
                8 if !virtual_time || sim.inflight.is_empty() => {
                    sim.step(Input::Tick(ticks));
                    ticks += 1;
                }
                _ => {
                    sim.now += Duration::from_millis(1);
                    sim.poll();
                }
            }
        }
        sim.step(Input::Shutdown);
        let straggler = request(&mut rng, sim.submitted, ticks);
        sim.submit(straggler);
        loop {
            sim.poll();
            if sim.sched.is_drained() {
                break;
            }
            assert!(
                !sim.inflight.is_empty(),
                "wedged: {} queued, virtual {virtual_time}",
                sim.sched.batcher.depth()
            );
            sim.complete(0);
        }
        assert_eq!(
            sim.responded.len() as u64,
            sim.submitted,
            "a request went unanswered"
        );
        assert_eq!(sim.sched.shared.depth.load(Ordering::Relaxed), 0);
        assert_eq!(sim.acks as u64, ticks, "a tick went unacked");
    }

    #[test]
    fn seeded_interleavings_keep_the_accounting_invariants() {
        for seed in 0..3 {
            simulate(seed, true);
            simulate(seed, false);
        }
    }

    /// A wall-clock tick runs only the deadline shed: it dispatches
    /// nothing (even with per-tick budgets configured) and acks at once,
    /// with a batch still in flight.
    #[test]
    fn wall_clock_tick_with_a_batch_in_flight_acks_at_once() {
        let mut cfg = tiny_cfg();
        cfg.workers = 1;
        cfg.prefill_max_macs = 0;
        cfg.batch = BatchPolicy::continuous(8);
        cfg.slo.decode_units_per_tick = 4;
        cfg.slo.prefill_units_per_tick = 4;
        let mut sim = Sim::new(&cfg);
        sim.submit(Request::prefill(0, PrefillModel::LlamaPrefill128));
        sim.poll();
        assert!(matches!(
            sim.inflight.as_slice(),
            [WorkItem::Prefill { .. }]
        ));
        sim.submit(Request::decode(1, 7, 3));
        let mut out = Vec::new();
        sim.sched.step(Input::Tick(0), sim.now, &mut out);
        assert!(
            matches!(out.as_slice(), [Output::Ack(td)] if *td == TickDone::default()),
            "expected only an immediate empty ack"
        );
        sim.absorb(out);
        assert_eq!(sim.inflight.len(), 1);
        assert_eq!(
            sim.sched.batcher.depth(),
            1,
            "the decode waits for the busy worker"
        );
    }
}

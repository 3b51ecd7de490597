//! The server runtime: admission handle, scheduler thread, and the
//! `ExecEngine`-backed worker pool over one shared paged KV pool.
//!
//! One scheduler thread owns the [`Batcher`], the
//! [`SessionManager`](crate::SessionManager), and the [`Metrics`]
//! accumulator; `workers` executor threads pull coalesced batches from a
//! shared work channel and run them on their own engines. All KV storage
//! lives in a single [`BlockPool`]: the scheduler takes its short
//! mutation lock to reserve blocks, evict, and hash-cons shared
//! prefixes; a worker takes it only for the per-layer appends of a
//! decode step — the gathers feeding each GEMM pin `Arc`-backed block
//! payloads and read them with **no lock held**, so decode batches on
//! different workers overlap their matmuls. All communication is
//! `std::sync::mpsc` — submissions and batch completions multiplex onto
//! a single event channel so the scheduler can block on one receiver
//! with a batching deadline (or none, under continuous batching).

use crate::batcher::{Batcher, Lane, Pending};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot, ShedCause};
use crate::request::{
    fnv1a, Payload, Priority, Request, RequestKind, Response, SessionId, FNV_OFFSET,
};
use crate::session::SessionKv;
use apsq_dataflow::Workload;
use apsq_models::{
    bert_base_128, execute_workloads, llama_prefill, segformer_b0_512, LlamaConfig, Precision,
};
use apsq_nn::{BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, PagedKvState};
use apsq_tensor::ExecEngine;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything flowing into the scheduler.
enum Event {
    Submit(Pending),
    Done(BatchDone),
    /// Advance the virtual clock to `now` and run one lockstep scheduling
    /// round; `ack` fires once every batch dispatched this tick completed.
    Tick {
        now: u64,
        ack: Sender<TickDone>,
    },
    Shutdown,
}

/// What one virtual-time tick accomplished, returned by
/// [`ServerHandle::tick`] after the system quiesced again.
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

/// One request's outcome inside a completed batch.
struct DoneItem {
    req: Request,
    submitted: Instant,
    result: Result<Payload, ServeError>,
}

/// A completed batch returning from a worker.
struct BatchDone {
    lane: Lane,
    occupancy: usize,
    items: Vec<DoneItem>,
    /// KV states to check back in (decode batches only).
    states: Vec<(SessionId, SessionKv)>,
}

/// A coalesced batch dispatched to the worker pool. A decode batch's KV
/// block demand is already promised in the pool's reservation ledger;
/// its appends consume the promises as they allocate.
enum WorkItem {
    Decode {
        items: Vec<Pending>,
        states: Vec<(SessionId, SessionKv)>,
    },
    Prefill {
        items: Vec<Pending>,
    },
}

/// The decode model a server executes: the fake-quant f32 reference or
/// its PTQ-converted integer twin. Both expose the same batched decode
/// entry point with the same row-independence guarantee, so the batcher,
/// sessions, and workers are precision-agnostic.
enum DecodeModel {
    F32(Box<DecoderLm>),
    Int8(Box<Int8DecoderLm>),
}

impl DecodeModel {
    /// Builds the configured precision's model from the spec (the f32
    /// model is always built first — the integer model is its PTQ
    /// conversion, calibrated on the same priming sequence the spec uses).
    fn build(cfg: &ServeConfig) -> DecodeModel {
        let f32_model = cfg.model.build();
        match cfg.precision {
            Precision::F32 => DecodeModel::F32(Box::new(f32_model)),
            Precision::Int8Apsq => {
                let prime: Vec<usize> = (0..cfg.model.max_len)
                    .map(|i| i % cfg.model.vocab)
                    .collect();
                DecodeModel::Int8(Box::new(Int8DecoderLm::from_decoder(
                    &f32_model,
                    &prime,
                    &ExecEngine::serial(),
                )))
            }
        }
    }

    fn max_len(&self) -> usize {
        match self {
            DecodeModel::F32(m) => m.max_len(),
            DecodeModel::Int8(m) => m.max_len(),
        }
    }

    /// Runs one decode batch over paged session states. The states are
    /// precision-agnostic block tables; the pool (built at the server's
    /// precision) owns the storage, so the f32 model walks f32 blocks
    /// and the integer model walks int8 blocks — a mismatch is a server
    /// bug, not load-dependent. The pool's mutation lock is held only
    /// for the per-layer appends; every gather feeding a GEMM runs
    /// lock-free on pinned block payloads.
    fn decode_batch_states(
        &self,
        tokens: &[usize],
        states: &mut [SessionKv],
        pool: &BlockPool,
        eng: &ExecEngine,
    ) -> apsq_tensor::Tensor {
        let mut paged: Vec<&mut PagedKvState> = states.iter_mut().map(|s| s.state_mut()).collect();
        match self {
            DecodeModel::F32(m) => m.decode_batch_paged_with(tokens, &mut paged, pool, eng),
            DecodeModel::Int8(m) => m.decode_batch_paged_with(tokens, &mut paged, pool, eng),
        }
    }
}

/// The prefill inventories servable by this instance, built once.
struct PrefillLib {
    bert: Workload,
    segformer: Workload,
    llama: Workload,
}

impl PrefillLib {
    fn build() -> Self {
        PrefillLib {
            bert: bert_base_128(),
            segformer: segformer_b0_512(),
            llama: llama_prefill(&LlamaConfig::llama2_7b(), 128),
        }
    }

    fn get(&self, model: crate::request::PrefillModel) -> &Workload {
        match model {
            crate::request::PrefillModel::BertBase128 => &self.bert,
            crate::request::PrefillModel::SegformerB0 => &self.segformer,
            crate::request::PrefillModel::LlamaPrefill128 => &self.llama,
        }
    }
}

/// State shared between client handles and the scheduler.
struct Shared {
    /// Requests admitted but not yet dispatched or error-responded.
    depth: AtomicUsize,
    /// Submits shed with [`ServeError::QueueFull`].
    shed_queue: AtomicU64,
    /// Cleared when draining begins.
    accepting: AtomicBool,
}

/// Cloneable submission handle.
#[derive(Clone)]
pub struct ServerHandle {
    tx: Sender<Event>,
    shared: Arc<Shared>,
    /// Per-priority admission thresholds (already clamped to the queue
    /// capacity): rank `r` submits shed once the pending depth reaches
    /// `admit_depth[r]`.
    admit_depth: [usize; 3],
    vocab: usize,
}

impl ServerHandle {
    /// Submits a request. Admission control runs here, on the client's
    /// thread: over-budget submissions shed immediately with a typed
    /// error and never enter the system.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a decode token outside the model
    /// vocabulary, [`ServeError::QueueFull`] over the queue budget,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    ///
    /// # Example
    ///
    /// ```
    /// use apsq_serve::{Payload, Request, ServeConfig, Server};
    ///
    /// let mut cfg = ServeConfig::smoke();
    /// cfg.workers = 1;
    /// let (server, responses) = Server::start(&cfg);
    /// let handle = server.handle();
    ///
    /// // One decode step for session 42; the response carries the
    /// // greedy next token to feed back.
    /// handle.submit(Request::decode(1, 42, 7)).unwrap();
    /// let resp = responses.recv().unwrap();
    /// assert_eq!(resp.id, 1);
    /// assert!(matches!(resp.result, Ok(Payload::Decode { .. })));
    /// server.shutdown();
    /// ```
    pub fn submit(&self, req: Request) -> Result<(), ServeError> {
        // Validate before touching the queue-depth counter, so a rejected
        // request never holds a depth slot.
        if let RequestKind::Decode { token, .. } = req.kind {
            if token >= self.vocab {
                return Err(ServeError::InvalidRequest {
                    token,
                    vocab: self.vocab,
                });
            }
        }
        if !self.shared.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Priority-aware admission: lower classes see a smaller queue, so
        // best-effort traffic sheds first as the queue fills.
        let threshold = self.admit_depth[req.slo.priority.rank()];
        let mut depth = self.shared.depth.load(Ordering::Relaxed);
        loop {
            if depth >= threshold {
                self.shared.shed_queue.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    depth,
                    capacity: threshold,
                });
            }
            match self.shared.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(d) => depth = d,
            }
        }
        let pending = Pending {
            req,
            // lint: allow(wall-clock-in-scheduling) -- client-side submit stamp for latency accounting; virtual-time deadlines use ticks, never this
            #[allow(clippy::disallowed_methods)]
            submitted: Instant::now(),
        };
        self.tx.send(Event::Submit(pending)).map_err(|_| {
            self.shared.depth.fetch_sub(1, Ordering::Relaxed);
            ServeError::ShuttingDown
        })
    }

    /// Advances the virtual clock to `now` and runs one lockstep
    /// scheduling round, blocking until every batch dispatched this tick
    /// has completed (the system is fully quiesced when this returns).
    ///
    /// The lockstep barrier is the determinism backbone of overload
    /// scheduling: because each tick starts and ends with zero requests
    /// in flight, every shed and dispatch decision is a pure function of
    /// the submitted traffic — independent of worker count, batch policy,
    /// and thread timing. Only meaningful on a server configured with
    /// [`crate::SloPolicy::virtual_time`]; a wall-clock server processes
    /// the tick (deadline sheds still run) but dispatches nothing from it.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] if the scheduler has exited.
    pub fn tick(&self, now: u64) -> Result<TickDone, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Event::Tick { now, ack: ack_tx })
            .map_err(|_| ServeError::ShuttingDown)?;
        ack_rx.recv().map_err(|_| ServeError::ShuttingDown)
    }
}

/// A running server instance.
pub struct Server {
    handle: ServerHandle,
    scheduler: Option<JoinHandle<MetricsSnapshot>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the model, spawns the scheduler and worker pool, and
    /// returns the server plus the response stream.
    pub fn start(cfg: &ServeConfig) -> (Server, Receiver<Response>) {
        cfg.validate();
        let model = Arc::new(DecodeModel::build(cfg));
        let lib = Arc::new(PrefillLib::build());
        // One paged KV pool for every session and layer, at the decode
        // precision: the byte budget is carved into kv_block_tokens-sized
        // blocks handed out on demand.
        let alloc = Arc::new(BlockPool::new(match cfg.precision {
            Precision::F32 => {
                BlockAllocator::f32(cfg.kv_budget_bytes, cfg.kv_block_tokens, cfg.model.d_model)
            }
            Precision::Int8Apsq => BlockAllocator::int8(
                cfg.kv_budget_bytes,
                cfg.kv_block_tokens,
                cfg.model.d_model,
                cfg.model.heads,
            ),
        }));
        let (evt_tx, evt_rx) = mpsc::channel::<Event>();
        let (resp_tx, resp_rx) = mpsc::channel::<Response>();
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let shared = Arc::new(Shared {
            depth: AtomicUsize::new(0),
            shed_queue: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
        });

        let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .map(|_| {
                let model = Arc::clone(&model);
                let lib = Arc::clone(&lib);
                let alloc = Arc::clone(&alloc);
                let work_rx = Arc::clone(&work_rx);
                let evt_tx = evt_tx.clone();
                let eng = ExecEngine::with_threads(cfg.engine_threads);
                let budget = cfg.prefill_max_macs;
                let precision = cfg.precision;
                std::thread::spawn(move || {
                    worker_loop(
                        &model, &lib, &alloc, &work_rx, &evt_tx, eng, budget, precision,
                    )
                })
            })
            .collect();

        let scheduler = {
            let cfg = cfg.clone();
            let shared = Arc::clone(&shared);
            let max_len = model.max_len();
            std::thread::spawn(move || {
                scheduler_loop(&cfg, max_len, alloc, shared, evt_rx, work_tx, resp_tx)
            })
        };

        let handle = ServerHandle {
            tx: evt_tx,
            shared,
            admit_depth: [
                cfg.slo.admit_depth[0].min(cfg.queue_capacity),
                cfg.slo.admit_depth[1].min(cfg.queue_capacity),
                cfg.slo.admit_depth[2].min(cfg.queue_capacity),
            ],
            vocab: cfg.model.vocab,
        };
        (
            Server {
                handle,
                scheduler: Some(scheduler),
                workers,
            },
            resp_rx,
        )
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stops accepting work, drains every pending and in-flight request,
    /// joins all threads, and returns the end-of-run metrics.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler or a worker panicked.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop().expect("shutdown called once")
    }

    /// The shared shutdown path behind [`Self::shutdown`] and [`Drop`]:
    /// signals the scheduler, joins every thread, and returns the
    /// snapshot (`None` if already stopped).
    fn stop(&mut self) -> Option<MetricsSnapshot> {
        let scheduler = self.scheduler.take()?;
        let _ = self.handle.tx.send(Event::Shutdown);
        let snap = scheduler.join().expect("scheduler panicked");
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
        Some(snap)
    }
}

impl Drop for Server {
    /// A `Server` dropped without [`Self::shutdown`] still drains and
    /// joins its threads — leaking a server can never pin the scheduler
    /// and worker pool (blocked on channels only each other hold) forever.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Executor thread: pull a coalesced batch, run it on this worker's
/// engine, report completion. Exits when the work channel closes.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    model: &DecodeModel,
    lib: &PrefillLib,
    pool: &BlockPool,
    work_rx: &Mutex<Receiver<WorkItem>>,
    evt_tx: &Sender<Event>,
    eng: ExecEngine,
    prefill_budget: u64,
    precision: Precision,
) {
    loop {
        // Hold the lock only while pulling, never while executing.
        let item = match work_rx.lock().expect("work queue poisoned").recv() {
            Ok(i) => i,
            Err(_) => return,
        };
        let done = match item {
            WorkItem::Decode { items, states } => run_decode(model, &eng, pool, items, states),
            WorkItem::Prefill { items } => run_prefill(lib, &eng, items, prefill_budget, precision),
        };
        if evt_tx.send(Event::Done(done)).is_err() {
            return;
        }
    }
}

/// Runs one decode batch: every request's token row goes through one
/// GEMM-stacked paged decode call; each row is bit-identical to a
/// batch-of-one execution, so the response payload never depends on the
/// batch composition. The pool's mutation lock is taken only for the
/// per-layer appends (consuming blocks the scheduler already reserved);
/// the gathers and GEMMs run lock-free, so decode batches on different
/// workers execute truly concurrently.
fn run_decode(
    model: &DecodeModel,
    eng: &ExecEngine,
    pool: &BlockPool,
    items: Vec<Pending>,
    states: Vec<(SessionId, SessionKv)>,
) -> BatchDone {
    let tokens: Vec<usize> = items
        .iter()
        .map(|p| match p.req.kind {
            RequestKind::Decode { token, .. } => token,
            RequestKind::Prefill { .. } => unreachable!("prefill in decode batch"),
        })
        .collect();
    let (sids, mut sts): (Vec<SessionId>, Vec<SessionKv>) = states.into_iter().unzip();
    let positions: Vec<usize> = sts.iter().map(|s| s.position()).collect();
    let logits = model.decode_batch_states(&tokens, &mut sts, pool, eng);
    let vocab = logits.dims()[1];
    let next = apsq_tensor::argmax_axis1(&logits);
    let occupancy = items.len();
    let done_items = items
        .into_iter()
        .enumerate()
        .map(|(b, p)| {
            let row = &logits.data()[b * vocab..(b + 1) * vocab];
            let digest = row
                .iter()
                .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits() as u64));
            DoneItem {
                submitted: p.submitted,
                result: Ok(Payload::Decode {
                    session: sids[b],
                    position: positions[b],
                    next_token: next[b],
                    logits_digest: digest,
                }),
                req: p.req,
            }
        })
        .collect();
    BatchDone {
        lane: Lane::Decode,
        occupancy,
        items: done_items,
        states: sids.into_iter().zip(sts).collect(),
    }
}

/// Runs one coalesced prefill batch back-to-back on this worker's engine
/// at the server's configured precision.
fn run_prefill(
    lib: &PrefillLib,
    eng: &ExecEngine,
    items: Vec<Pending>,
    budget: u64,
    precision: Precision,
) -> BatchDone {
    let batch: Vec<(&Workload, u64)> = items
        .iter()
        .map(|p| match p.req.kind {
            RequestKind::Prefill { model } => (lib.get(model), budget),
            RequestKind::Decode { .. } => unreachable!("decode in prefill batch"),
        })
        .collect();
    let runs = execute_workloads(eng, &batch, precision);
    let occupancy = items.len();
    let done_items = items
        .into_iter()
        .zip(runs)
        .map(|(p, run)| {
            let name = match p.req.kind {
                RequestKind::Prefill { model } => model.name(),
                RequestKind::Decode { .. } => unreachable!(),
            };
            DoneItem {
                submitted: p.submitted,
                result: Ok(Payload::Prefill {
                    workload: name,
                    checksum: run.checksum(),
                    macs: run.total_macs_executed(),
                }),
                req: p.req,
            }
        })
        .collect();
    BatchDone {
        lane: Lane::Prefill,
        occupancy,
        items: done_items,
        states: Vec::new(),
    }
}

/// The scheduler: admission, batching, dispatch, completion bookkeeping,
/// and metrics. Returns the end-of-run snapshot when drained.
fn scheduler_loop(
    cfg: &ServeConfig,
    max_len: usize,
    alloc: Arc<BlockPool>,
    shared: Arc<Shared>,
    evt_rx: Receiver<Event>,
    work_tx: Sender<WorkItem>,
    resp_tx: Sender<Response>,
) -> MetricsSnapshot {
    // lint: allow(wall-clock-in-scheduling) -- metrics only: serve-loop uptime anchor, reported in the snapshot, never read by scheduling
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let virtual_mode = cfg.slo.virtual_time;
    let degrade = cfg.slo.degrade;
    let mut batcher = Batcher::new(cfg.batch);
    let pool = Arc::clone(&alloc);
    let mut sessions =
        crate::session::SessionManager::new(alloc, cfg.session_capacity(), cfg.model.layers);
    let mut metrics = Metrics::new();
    // Gathered-bytes watermark: the pool counter is cumulative, so each
    // completed decode batch samples the delta since the last one.
    let mut last_gathered = 0u64;
    let mut idle = cfg.workers;
    let mut inflight = 0usize;
    let mut draining = false;
    // Virtual-time state: the lockstep clock, the degradation-ladder
    // level with its hysteresis streaks, and the ack deferred until the
    // tick's dispatched batches complete.
    let mut vnow = 0u64;
    let mut level = 0u8;
    let mut hot_streak = 0u64;
    let mut calm_streak = 0u64;
    let mut pending_ack: Option<(Sender<TickDone>, TickDone)> = None;
    // Depth decrements for admit-time sheds, deferred to the next tick in
    // virtual mode: decrementing immediately would race the client's
    // sequential admission reads and make QueueFull decisions depend on
    // scheduler timing.
    let mut deferred_depth_subs = 0usize;

    let respond = |metrics: &mut Metrics,
                   p: Pending,
                   result: Result<Payload, ServeError>,
                   occupancy: usize,
                   lane: Lane,
                   now: u64| {
        let latency_us = p.submitted.elapsed().as_micros() as u64;
        // In virtual time a request dispatched at tick T completes at T,
        // so the SLO is met iff T has not passed the deadline. A shed for
        // an expired deadline is by definition a miss.
        let deadline_met = match (&result, p.req.slo.deadline) {
            (Err(ServeError::DeadlineExceeded { .. }), _) => Some(false),
            (_, Some(d)) => Some(now <= d),
            (_, None) => None,
        };
        metrics.record_response(
            lane,
            p.req.slo.priority,
            latency_us,
            result.is_err(),
            deadline_met,
        );
        let _ = resp_tx.send(Response {
            id: p.req.id,
            result,
            latency_us,
            batch_size: occupancy,
        });
    };

    loop {
        metrics.sample_queue_depth(batcher.depth());

        // Dispatch to idle workers while a lane is ready. Virtual-time
        // servers never self-dispatch — all dispatch happens inside the
        // Tick handler, within per-tick budgets.
        while !virtual_mode && idle > 0 {
            // lint: allow(wall-clock-in-scheduling) -- wall-clock-mode-only branch (guarded by !virtual_mode); virtual-time dispatch happens in the Tick handler
            #[allow(clippy::disallowed_methods)]
            let now = Instant::now();
            let Some(lane) = batcher.next_lane(now, draining) else {
                break;
            };
            // Prefill requests execute independently even when coalesced,
            // so once the lane fires, spread the whole burst across every
            // idle worker right away — one div_ceil-sized chunk per worker
            // (capped at max_batch inside take_up_to). Taking a single
            // chunk and re-evaluating would strand the remainder (below
            // the full-batch trigger again) until the max-wait deadline
            // while the other workers sit idle.
            if lane == Lane::Prefill {
                while idle > 0 && batcher.lane_len(Lane::Prefill) > 0 {
                    let chunk = batcher.lane_len(Lane::Prefill).div_ceil(idle);
                    let items = batcher.take_up_to(Lane::Prefill, chunk);
                    shared.depth.fetch_sub(items.len(), Ordering::Relaxed);
                    metrics.record_batch(items.len());
                    idle -= 1;
                    inflight += 1;
                    work_tx
                        .send(WorkItem::Prefill { items })
                        .expect("worker pool alive");
                }
                continue;
            }
            // Decode batches coalesce greedily — stacked rows share one
            // GEMM, so occupancy is pure win. Each item's KV block demand
            // is reserved before checkout: the reservation reclaims
            // unreferenced prefix blocks and LRU-evicts idle sessions
            // under pressure, and sheds the item when even that fails —
            // so a dispatched batch can never exhaust the pool mid-step.
            let items = batcher.take(lane);
            let work = match lane {
                Lane::Decode => {
                    let mut batch = Vec::with_capacity(items.len());
                    let mut states = Vec::with_capacity(items.len());
                    for p in items {
                        let session = p.req.session().expect("decode lane request has a session");
                        let position = sessions.position(session);
                        if position >= max_len {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            metrics.record_shed(ShedCause::ContextOverflow);
                            respond(
                                &mut metrics,
                                p,
                                Err(ServeError::ContextOverflow {
                                    session,
                                    position,
                                    max_len,
                                }),
                                0,
                                Lane::Decode,
                                vnow,
                            );
                            sessions.release(session);
                            batcher.on_session_done(session);
                            continue;
                        }
                        if let Err(e) = sessions.reserve(session) {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            metrics.record_shed(ShedCause::SessionCapacity);
                            respond(&mut metrics, p, Err(e), 0, Lane::Decode, vnow);
                            sessions.release(session);
                            batcher.on_session_done(session);
                            continue;
                        }
                        states.push((session, sessions.checkout(session)));
                        batch.push(p);
                    }
                    if batch.is_empty() {
                        continue;
                    }
                    shared.depth.fetch_sub(batch.len(), Ordering::Relaxed);
                    metrics.record_batch(batch.len());
                    WorkItem::Decode {
                        items: batch,
                        states,
                    }
                }
                Lane::Prefill => unreachable!("prefill dispatches through the spread loop"),
            };
            idle -= 1;
            inflight += 1;
            work_tx.send(work).expect("worker pool alive");
        }

        if draining && inflight == 0 && batcher.is_empty() {
            break;
        }

        // Block for the next event; with a partial batch pending and an
        // idle worker, wake at the coalescing deadline instead. A
        // virtual-time server has no coalescing deadlines — it sleeps
        // until the next submit, tick, or completion.
        let first = if virtual_mode {
            match evt_rx.recv() {
                Ok(e) => Some(e),
                Err(_) => break,
            }
        } else if idle > 0 {
            match batcher.next_deadline() {
                Some(deadline) => {
                    // lint: allow(wall-clock-in-scheduling) -- wall-clock-mode sleep bound: converts the coalescing deadline into a channel timeout; virtual mode never sets one
                    #[allow(clippy::disallowed_methods)]
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match evt_rx.recv_timeout(timeout) {
                        Ok(e) => Some(e),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match evt_rx.recv() {
                    Ok(e) => Some(e),
                    Err(_) => break,
                },
            }
        } else {
            match evt_rx.recv() {
                Ok(e) => Some(e),
                Err(_) => break,
            }
        };

        // Handle the blocking event plus everything already queued.
        let mut next = first;
        while let Some(ev) = next {
            match ev {
                Event::Submit(p) => match p.req.kind {
                    RequestKind::Decode { session, .. } => match sessions.admit(session) {
                        Ok(()) => batcher.push(p),
                        Err(e) => {
                            if virtual_mode {
                                deferred_depth_subs += 1;
                            } else {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                            }
                            metrics.record_shed(ShedCause::SessionEvicted);
                            respond(&mut metrics, p, Err(e), 0, Lane::Decode, vnow);
                        }
                    },
                    RequestKind::Prefill { .. } => batcher.push(p),
                },
                Event::Done(done) => {
                    idle += 1;
                    inflight -= 1;
                    for (sid, st) in done.states {
                        sessions.checkin(sid, st);
                    }
                    for item in done.items {
                        let session = item.req.session();
                        // A successful decode folds its token into the
                        // session's prefix chain and may hash-cons a
                        // just-filled block against older sessions.
                        let decoded = match (&item.result, &item.req.kind) {
                            (Ok(_), &RequestKind::Decode { token, .. }) => Some(token),
                            _ => None,
                        };
                        respond(
                            &mut metrics,
                            Pending {
                                req: item.req,
                                submitted: item.submitted,
                            },
                            item.result,
                            done.occupancy,
                            done.lane,
                            vnow,
                        );
                        if let Some(s) = session {
                            if let Some(token) = decoded {
                                sessions.note_decoded(s, token);
                            }
                            sessions.release(s);
                            batcher.on_session_done(s);
                        }
                    }
                    if done.lane == Lane::Decode {
                        let (in_use, shared_blocks, tokens, block_tokens) = sessions.block_gauges();
                        metrics.sample_blocks(in_use, shared_blocks, tokens, block_tokens);
                        let gathered = pool.contention().gathered_bytes;
                        metrics.sample_gathered_bytes(gathered - last_gathered);
                        last_gathered = gathered;
                    }
                    // The lockstep barrier: the tick's ack fires only
                    // once everything it dispatched has drained.
                    if inflight == 0 {
                        if let Some((ack, td)) = pending_ack.take() {
                            let _ = ack.send(td);
                        }
                    }
                }
                Event::Tick { now, ack } => {
                    // Lockstep protocol: the driver waits for each ack
                    // before ticking again, so the system is quiesced —
                    // every decision below is a pure function of the
                    // submitted traffic.
                    debug_assert_eq!(inflight, 0, "tick on a non-quiesced server");
                    vnow = now;
                    let mut tick_shed = 0usize;
                    if deferred_depth_subs > 0 {
                        shared
                            .depth
                            .fetch_sub(deferred_depth_subs, Ordering::Relaxed);
                        deferred_depth_subs = 0;
                    }

                    // 1. Degradation-ladder level from sustained batcher
                    // depth (hysteresis both ways).
                    let depth = batcher.depth();
                    let target: u8 = if depth >= degrade.severe_depth {
                        2
                    } else if depth >= degrade.elevate_depth {
                        1
                    } else {
                        0
                    };
                    if target > level {
                        hot_streak += 1;
                        calm_streak = 0;
                        if hot_streak >= degrade.sustain_ticks {
                            level = target;
                            hot_streak = 0;
                            metrics.record_degrade_transition(true);
                        }
                    } else if target < level {
                        calm_streak += 1;
                        hot_streak = 0;
                        if calm_streak >= degrade.sustain_ticks {
                            level -= 1;
                            calm_streak = 0;
                            metrics.record_degrade_transition(false);
                        }
                    } else {
                        hot_streak = 0;
                        calm_streak = 0;
                    }
                    metrics.record_tick(level);

                    // 2. Severe overload: shed queued sub-interactive
                    // prefill before touching any decode work.
                    if level >= 2 && degrade.shed_prefill_first {
                        for p in batcher.shed_prefill_below(Priority::High) {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            metrics.record_shed(ShedCause::Degraded);
                            tick_shed += 1;
                            respond(
                                &mut metrics,
                                p,
                                Err(ServeError::Degraded {
                                    level,
                                    reason: "prefill-shed",
                                }),
                                0,
                                Lane::Prefill,
                                vnow,
                            );
                        }
                    }

                    // 3. Shed everything whose deadline has passed —
                    // dispatching it could no longer meet the SLO.
                    for p in batcher.shed_expired(now) {
                        shared.depth.fetch_sub(1, Ordering::Relaxed);
                        metrics.record_shed(ShedCause::DeadlineExceeded);
                        tick_shed += 1;
                        let lane = match p.req.kind {
                            RequestKind::Decode { .. } => Lane::Decode,
                            RequestKind::Prefill { .. } => Lane::Prefill,
                        };
                        let deadline = p.req.slo.deadline.unwrap_or(0);
                        if let Some(s) = p.req.session() {
                            sessions.release(s);
                        }
                        respond(
                            &mut metrics,
                            p,
                            Err(ServeError::DeadlineExceeded { deadline, now }),
                            0,
                            lane,
                            vnow,
                        );
                    }

                    // 4. Budgeted dispatch, two-phase: plan every batch
                    // (reservations + checkouts) while the workers are
                    // idle, then send them all — allocator state during
                    // planning is race-free by construction.
                    let mut planned: Vec<WorkItem> = Vec::new();
                    let mut dispatched_decode = 0usize;
                    let mut dispatched_prefill = 0usize;
                    let mut budget = cfg.slo.decode_units_per_tick;
                    while budget > 0 {
                        let items = batcher.take_up_to(Lane::Decode, budget);
                        if items.is_empty() {
                            break;
                        }
                        let mut batch = Vec::with_capacity(items.len());
                        let mut states = Vec::with_capacity(items.len());
                        for p in items {
                            let session =
                                p.req.session().expect("decode lane request has a session");
                            let position = sessions.position(session);
                            let is_low = p.req.slo.priority == Priority::Low;
                            // Ladder rung: cap best-effort decode lengths.
                            if level >= 1 && is_low && position >= degrade.low_decode_cap {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                                metrics.record_shed(ShedCause::Degraded);
                                tick_shed += 1;
                                respond(
                                    &mut metrics,
                                    p,
                                    Err(ServeError::Degraded {
                                        level,
                                        reason: "decode-length-cap",
                                    }),
                                    0,
                                    Lane::Decode,
                                    vnow,
                                );
                                sessions.release(session);
                                batcher.on_session_done(session);
                                continue;
                            }
                            // Ladder rung: refuse *new* best-effort
                            // sessions when KV headroom is thin, so
                            // interactive sessions keep room to grow.
                            if level >= 1
                                && is_low
                                && position == 0
                                && degrade.kv_guard_free_blocks > 0
                                && sessions.blocks_unreserved() < degrade.kv_guard_free_blocks
                            {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                                metrics.record_shed(ShedCause::Degraded);
                                tick_shed += 1;
                                respond(
                                    &mut metrics,
                                    p,
                                    Err(ServeError::Degraded {
                                        level,
                                        reason: "kv-guard",
                                    }),
                                    0,
                                    Lane::Decode,
                                    vnow,
                                );
                                sessions.release(session);
                                batcher.on_session_done(session);
                                continue;
                            }
                            if position >= max_len {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                                metrics.record_shed(ShedCause::ContextOverflow);
                                tick_shed += 1;
                                respond(
                                    &mut metrics,
                                    p,
                                    Err(ServeError::ContextOverflow {
                                        session,
                                        position,
                                        max_len,
                                    }),
                                    0,
                                    Lane::Decode,
                                    vnow,
                                );
                                sessions.release(session);
                                batcher.on_session_done(session);
                                continue;
                            }
                            if let Err(e) = sessions.reserve(session) {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                                metrics.record_shed(ShedCause::SessionCapacity);
                                tick_shed += 1;
                                respond(&mut metrics, p, Err(e), 0, Lane::Decode, vnow);
                                sessions.release(session);
                                batcher.on_session_done(session);
                                continue;
                            }
                            states.push((session, sessions.checkout(session)));
                            batch.push(p);
                        }
                        if batch.is_empty() {
                            continue;
                        }
                        budget -= batch.len().min(budget);
                        dispatched_decode += batch.len();
                        shared.depth.fetch_sub(batch.len(), Ordering::Relaxed);
                        metrics.record_batch(batch.len());
                        planned.push(WorkItem::Decode {
                            items: batch,
                            states,
                        });
                    }
                    let mut pbudget = cfg.slo.prefill_units_per_tick;
                    while pbudget > 0 {
                        let items = batcher.take_up_to(Lane::Prefill, pbudget);
                        if items.is_empty() {
                            break;
                        }
                        pbudget -= items.len().min(pbudget);
                        dispatched_prefill += items.len();
                        shared.depth.fetch_sub(items.len(), Ordering::Relaxed);
                        metrics.record_batch(items.len());
                        planned.push(WorkItem::Prefill { items });
                    }

                    let td = TickDone {
                        now,
                        dispatched_decode,
                        dispatched_prefill,
                        shed: tick_shed,
                        level,
                    };
                    if planned.is_empty() {
                        let _ = ack.send(td);
                    } else {
                        for work in planned {
                            inflight += 1;
                            work_tx.send(work).expect("worker pool alive");
                        }
                        pending_ack = Some((ack, td));
                    }
                }
                Event::Shutdown => {
                    shared.accepting.store(false, Ordering::Release);
                    draining = true;
                    if deferred_depth_subs > 0 {
                        shared
                            .depth
                            .fetch_sub(deferred_depth_subs, Ordering::Relaxed);
                        deferred_depth_subs = 0;
                    }
                    // A virtual-time server never self-drains its queue —
                    // answer everything still waiting with ShuttingDown.
                    if virtual_mode {
                        for p in batcher.drain_all() {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            let lane = match p.req.kind {
                                RequestKind::Decode { .. } => Lane::Decode,
                                RequestKind::Prefill { .. } => Lane::Prefill,
                            };
                            if let Some(s) = p.req.session() {
                                sessions.release(s);
                            }
                            respond(
                                &mut metrics,
                                p,
                                Err(ServeError::ShuttingDown),
                                0,
                                lane,
                                vnow,
                            );
                        }
                    }
                }
            }
            next = evt_rx.try_recv().ok();
        }
    }

    // A submit can race the drain: it observes `accepting == true` and
    // lands its event after the loop above decided everything was done.
    // Every such submit incremented `depth` *before* sending, so drain
    // until the depth reaches zero and answer the stragglers with
    // `ShuttingDown` instead of silently dropping an accepted request
    // (`inflight == 0` here, so only Submit and Shutdown events remain).
    // The timeout only fires if a client died between its depth increment
    // and its send.
    while shared.depth.load(Ordering::Acquire) > 0 {
        let ev = match evt_rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(_) => break,
        };
        if let Event::Submit(p) = ev {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            let lane = match p.req.kind {
                RequestKind::Decode { .. } => Lane::Decode,
                RequestKind::Prefill { .. } => Lane::Prefill,
            };
            respond(
                &mut metrics,
                p,
                Err(ServeError::ShuttingDown),
                0,
                lane,
                vnow,
            );
        }
    }

    metrics.snapshot(
        started.elapsed().as_secs_f64(),
        shared.shed_queue.load(Ordering::Relaxed),
        sessions.evictions(),
        sessions.peak(),
        sessions.capacity(),
        sessions.pool_report(),
        sessions.shared_prefix_hits(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crate::request::PrefillModel;

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

    #[test]
    fn serves_decode_and_prefill_end_to_end() {
        let (server, rx) = Server::start(&tiny_cfg());
        let h = server.handle();
        h.submit(Request::decode(1, 100, 3)).unwrap();
        h.submit(Request::decode(2, 101, 5)).unwrap();
        h.submit(Request::prefill(3, PrefillModel::BertBase128))
            .unwrap();
        let mut got: Vec<Response> = (0..3).map(|_| rx.recv().unwrap()).collect();
        got.sort_by_key(|r| r.id);
        assert!(matches!(
            got[0].result,
            Ok(Payload::Decode {
                session: 100,
                position: 0,
                ..
            })
        ));
        assert!(matches!(got[2].result, Ok(Payload::Prefill { .. })));
        let snap = server.shutdown();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.decode_tokens, 2);
        assert_eq!(snap.sessions_peak, 2);
    }

    #[test]
    fn int8_precision_serves_decode_and_prefill_end_to_end() {
        let cfg = tiny_cfg().with_precision(Precision::Int8Apsq);
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        h.submit(Request::decode(1, 100, 3)).unwrap();
        h.submit(Request::decode(2, 100, 5)).unwrap();
        h.submit(Request::prefill(3, PrefillModel::BertBase128))
            .unwrap();
        let mut got: Vec<Response> = (0..3).map(|_| rx.recv().unwrap()).collect();
        got.sort_by_key(|r| r.id);
        assert!(matches!(
            got[0].result,
            Ok(Payload::Decode {
                session: 100,
                position: 0,
                ..
            })
        ));
        assert!(matches!(
            got[1].result,
            Ok(Payload::Decode { position: 1, .. })
        ));
        assert!(matches!(got[2].result, Ok(Payload::Prefill { .. })));
        let snap = server.shutdown();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn same_session_steps_advance_in_order() {
        let (server, rx) = Server::start(&tiny_cfg());
        let h = server.handle();
        for i in 0..4 {
            h.submit(Request::decode(i, 7, i as usize % 16)).unwrap();
        }
        let mut positions = Vec::new();
        for _ in 0..4 {
            let r = rx.recv().unwrap();
            if let Ok(Payload::Decode { position, .. }) = r.result {
                positions.push((r.id, position));
            }
        }
        positions.sort();
        assert_eq!(
            positions,
            vec![(0, 0), (1, 1), (2, 2), (3, 3)],
            "per-session FIFO violated"
        );
        server.shutdown();
    }

    #[test]
    fn context_overflow_is_a_typed_error_response() {
        let mut cfg = tiny_cfg();
        cfg.model.max_len = 4;
        cfg.kv_block_tokens = 2;
        cfg.batch = BatchPolicy::single();
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        // max_len steps fit; the next one overflows.
        for i in 0..5 {
            h.submit(Request::decode(i, 9, 1)).unwrap();
        }
        let mut errs = 0;
        for _ in 0..5 {
            let r = rx.recv().unwrap();
            if let Err(e) = &r.result {
                assert!(
                    matches!(
                        e,
                        ServeError::ContextOverflow {
                            session: 9,
                            position: 4,
                            max_len: 4
                        }
                    ),
                    "{e:?}"
                );
                errs += 1;
            }
        }
        assert_eq!(errs, 1);
        let snap = server.shutdown();
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.decode_tokens, 4);
    }

    #[test]
    fn queue_budget_sheds_with_typed_error() {
        let mut cfg = tiny_cfg();
        cfg.queue_capacity = 2;
        cfg.workers = 1;
        // Long coalescing wait so submissions pile up in the queue.
        cfg.batch = BatchPolicy {
            max_batch: 64,
            max_wait: std::time::Duration::from_secs(5),
            continuous: false,
        };
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        h.submit(Request::decode(1, 1, 0)).unwrap();
        h.submit(Request::decode(2, 2, 0)).unwrap();
        let err = h.submit(Request::decode(3, 3, 0)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::QueueFull {
                depth: 2,
                capacity: 2
            }
        ));
        drop(rx);
        let snap = server.shutdown();
        assert_eq!(snap.shed_queue, 1);
        assert_eq!(snap.completed, 2);
    }

    #[test]
    fn session_capacity_rejection_reaches_the_client() {
        let mut cfg = tiny_cfg();
        // Byte budget sized to exactly one worst-case session (= 2 blocks
        // at the 16-token block size: one per layer).
        cfg.kv_budget_bytes = cfg.model.kv_bytes_per_session(cfg.precision);
        cfg.workers = 1;
        cfg.batch = BatchPolicy {
            max_batch: 64,
            max_wait: std::time::Duration::from_secs(5),
            continuous: false,
        };
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        // Both sessions admit (admission is free), but the co-batched
        // reservation for session 2 finds the pool promised away to
        // session 1 and nothing evictable (both are pinned).
        h.submit(Request::decode(1, 1, 0)).unwrap();
        h.submit(Request::decode(2, 2, 0)).unwrap();
        let mut results: Vec<Response> = (0..2).map(|_| rx.recv().unwrap()).collect();
        results.sort_by_key(|r| r.id);
        assert!(results[0].result.is_ok());
        assert!(matches!(
            results[1].result,
            Err(ServeError::SessionCapacity {
                active: 2,
                capacity: 1
            })
        ));
        let snap = server.shutdown();
        assert_eq!(snap.shed_session_capacity, 1);
        assert_eq!(snap.blocks_capacity, 2);
    }

    #[test]
    fn prefill_burst_spreads_across_idle_workers() {
        let mut cfg = tiny_cfg();
        cfg.workers = 2;
        // Only the full-batch trigger can fire: if the burst were not
        // spread, one worker would serialize all 4 requests while the
        // other idled out the 5-second deadline.
        cfg.batch = BatchPolicy {
            max_batch: 4,
            max_wait: std::time::Duration::from_secs(5),
            continuous: false,
        };
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        for i in 0..4 {
            h.submit(Request::prefill(i, PrefillModel::BertBase128))
                .unwrap();
        }
        for _ in 0..4 {
            assert!(rx.recv().unwrap().result.is_ok());
        }
        let snap = server.shutdown();
        assert_eq!(
            snap.batch_occupancy_hist,
            vec![(2, 2)],
            "4-request prefill burst should split 2+2 over 2 idle workers"
        );
    }

    #[test]
    fn continuous_batching_serves_and_joins_late_sessions() {
        let mut cfg = tiny_cfg();
        cfg.workers = 1;
        cfg.batch = BatchPolicy::continuous(8);
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        // First wave dispatches immediately (no coalescing wait); the
        // late session joins the running decode stream on completion of
        // whatever batch is in flight.
        h.submit(Request::decode(1, 100, 3)).unwrap();
        h.submit(Request::decode(2, 101, 5)).unwrap();
        assert!(rx.recv().unwrap().result.is_ok());
        h.submit(Request::decode(3, 102, 7)).unwrap();
        for _ in 0..2 {
            assert!(rx.recv().unwrap().result.is_ok());
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.sessions_peak, 3);
    }

    #[test]
    fn shared_prefixes_dedup_blocks_across_sessions() {
        let mut cfg = tiny_cfg();
        cfg.workers = 1;
        cfg.batch = BatchPolicy::single();
        cfg.kv_block_tokens = 2;
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        // Two sessions decode the same 4-token stream; each filled block
        // (every 2 tokens) hash-conses onto the first session's copy.
        let mut id = 0;
        for session in [100u64, 200] {
            for token in [3usize, 5, 7, 2] {
                h.submit(Request::decode(id, session, token)).unwrap();
                assert!(rx.recv().unwrap().result.is_ok(), "id {id}");
                id += 1;
            }
        }
        let snap = server.shutdown();
        // 2 layers × 2 filled blocks for the second session.
        assert_eq!(snap.shared_prefix_hits, 4);
        assert_eq!(snap.errors, 0);
        // The pool never held more than one session's worth of blocks
        // plus the in-progress private tail.
        assert!(
            snap.blocks_peak <= 6,
            "blocks_peak {} — prefix sharing not effective",
            snap.blocks_peak
        );
    }

    #[test]
    fn dropping_a_server_without_shutdown_joins_cleanly() {
        // A leaked Server must not pin its scheduler/worker threads
        // forever; Drop drains and joins (this test would hang otherwise).
        let (server, rx) = Server::start(&tiny_cfg());
        server.handle().submit(Request::decode(1, 3, 2)).unwrap();
        assert!(rx.recv().unwrap().result.is_ok());
        drop(server);
        // Threads are gone: the response channel is disconnected.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (server, _rx) = Server::start(&tiny_cfg());
        let h = server.handle();
        let snap = server.shutdown();
        assert_eq!(snap.completed, 0);
        assert!(matches!(
            h.submit(Request::decode(1, 1, 0)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn out_of_vocab_token_is_rejected_with_a_typed_error() {
        let mut cfg = tiny_cfg();
        // One queue slot: a depth leaked by the rejection would shed the
        // valid request below with `QueueFull`.
        cfg.queue_capacity = 1;
        let vocab = cfg.model.vocab;
        let (server, rx) = Server::start(&cfg);
        let h = server.handle();
        assert_eq!(
            h.submit(Request::decode(1, 1, vocab)),
            Err(ServeError::InvalidRequest {
                token: vocab,
                vocab
            })
        );
        h.submit(Request::decode(2, 1, 0)).unwrap();
        let resp = rx.recv().unwrap();
        assert_eq!(resp.id, 2);
        assert!(resp.result.is_ok());
        let snap = server.shutdown();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.errors, 0);
    }
}

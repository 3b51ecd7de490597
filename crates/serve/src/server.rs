//! The server runtime: admission handle, the scheduler thread, and the
//! `ExecEngine`-backed worker pool over one shared paged KV pool.
//!
//! The scheduler thread drives the clock-free [`Scheduler`] from one
//! `std::sync::mpsc` event channel (submits, ticks, batch completions);
//! `workers` executor threads pull coalesced batches from a shared work
//! channel and run them on their own engines. All KV storage lives in a
//! single [`BlockPool`]: the scheduler takes its short mutation lock to
//! reserve blocks, evict, and hash-cons shared prefixes; a worker takes
//! it only for the per-layer appends of a decode step — the gathers
//! feeding each GEMM read pinned block payloads with **no lock held**,
//! so decode batches on different workers overlap their matmuls.

use crate::batcher::{Lane, Pending};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::request::{
    fnv1a, Payload, PrefillModel, Request, RequestKind, Response, SessionId, FNV_OFFSET,
};
use crate::scheduler::{BatchDone, Input, Output, Scheduler, Shared, TickDone, WorkItem};
use crate::session::SessionKv;
use apsq_dataflow::Workload;
use apsq_models::{
    bert_base_128, execute_workloads, llama_prefill, segformer_b0_512, LlamaConfig, Precision,
};
use apsq_nn::{BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, PagedKvState};
use apsq_tensor::ExecEngine;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything flowing into the scheduler thread.
enum Event {
    Input(Input),
    /// A virtual-time tick and the channel its [`TickDone`] goes to.
    Tick(u64, Sender<TickDone>),
}

/// The server's one wall clock: client submit stamps and the driver's
/// once-per-wake `now` (the scheduler sees time only as a parameter).
#[allow(clippy::disallowed_methods)]
pub(crate) fn clock() -> Instant {
    // lint: allow(wall-clock-in-scheduling) -- the server's one clock source: latency stamps and the driver's per-wake `now`; virtual-time scheduling runs on ticks, never on this
    Instant::now()
}

/// The decode model a server executes: the fake-quant f32 reference or
/// its PTQ-converted integer twin. Both expose the same batched decode
/// entry point with the same row-independence guarantee, so the batcher,
/// sessions, and workers are precision-agnostic.
pub(crate) enum DecodeModel {
    F32(Box<DecoderLm>),
    Int8(Box<Int8DecoderLm>),
}

impl DecodeModel {
    /// Builds the configured precision's model from the spec (the f32
    /// model is always built first — the integer model is its PTQ
    /// conversion, calibrated on the same priming sequence the spec uses).
    pub(crate) fn build(cfg: &ServeConfig) -> DecodeModel {
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
pub(crate) struct PrefillLib {
    bert: Workload,
    segformer: Workload,
    llama: Workload,
}

impl PrefillLib {
    pub(crate) fn build() -> Self {
        PrefillLib {
            bert: bert_base_128(),
            segformer: segformer_b0_512(),
            llama: llama_prefill(&LlamaConfig::llama2_7b(), 128),
        }
    }

    fn get(&self, model: PrefillModel) -> &Workload {
        match model {
            PrefillModel::BertBase128 => &self.bert,
            PrefillModel::SegformerB0 => &self.segformer,
            PrefillModel::LlamaPrefill128 => &self.llama,
        }
    }
}

/// One paged KV pool for every session and layer, at the decode
/// precision: the byte budget is carved into `kv_block_tokens`-sized
/// blocks handed out on demand.
pub(crate) fn kv_pool(cfg: &ServeConfig) -> BlockPool {
    BlockPool::new(match cfg.precision {
        Precision::F32 => {
            BlockAllocator::f32(cfg.kv_budget_bytes, cfg.kv_block_tokens, cfg.model.d_model)
        }
        Precision::Int8Apsq => BlockAllocator::int8(
            cfg.kv_budget_bytes,
            cfg.kv_block_tokens,
            cfg.model.d_model,
            cfg.model.heads,
        ),
    })
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
        if self.shared.closed.load(Ordering::Acquire) {
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
            submitted: clock(),
        };
        self.tx
            .send(Event::Input(Input::Submit(pending)))
            .map_err(|_| {
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
    /// [`crate::SloPolicy::virtual_time`]; a wall-clock server runs only
    /// the tick's deadline sheds, dispatches nothing from it, and
    /// returns at once.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] if the scheduler has exited.
    pub fn tick(&self, now: u64) -> Result<TickDone, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Event::Tick(now, ack_tx))
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
        let alloc = Arc::new(kv_pool(cfg));
        let (evt_tx, evt_rx) = mpsc::channel::<Event>();
        let (resp_tx, resp_rx) = mpsc::channel::<Response>();
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let shared = Arc::new(Shared::default());

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
            let sched = Scheduler::new(cfg, alloc, Arc::clone(&shared));
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || drive(sched, &shared, &evt_rx, &work_tx, &resp_tx))
        };

        let handle = ServerHandle {
            tx: evt_tx,
            shared,
            admit_depth: cfg.slo.admit_depth.map(|d| d.min(cfg.queue_capacity)),
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
        let joined = self.stop().expect("shutdown called once");
        joined.expect("scheduler or worker panicked")
    }

    /// The shared shutdown path behind [`Self::shutdown`] and [`Drop`]:
    /// signals the scheduler, joins every thread, and returns the
    /// snapshot, or the first panic (`None` if already stopped).
    fn stop(&mut self) -> Option<std::thread::Result<MetricsSnapshot>> {
        let scheduler = self.scheduler.take()?;
        let _ = self.handle.tx.send(Event::Input(Input::Shutdown));
        let snap = scheduler.join();
        let workers = self.workers.drain(..).map(JoinHandle::join);
        Some(workers.fold(Ok(()), Result::and).and(snap))
    }
}

impl Drop for Server {
    /// A `Server` dropped without [`Self::shutdown`] still drains and
    /// joins its threads — leaking a server can never pin the scheduler
    /// and worker pool (blocked on channels only each other hold)
    /// forever. Thread panics are ignored here: `drop` may run while the
    /// caller is already unwinding, and a second panic would abort.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The scheduler thread: blocks until the next event or the state
/// machine's next wake, reads the clock once per wake, and forwards
/// every [`Output`]. Returns the end-of-run snapshot once drained.
fn drive(
    mut sched: Scheduler,
    shared: &Shared,
    evt_rx: &Receiver<Event>,
    work_tx: &Sender<WorkItem>,
    resp_tx: &Sender<Response>,
) -> MetricsSnapshot {
    // Ack channels of the ticks not yet acked, oldest first — the order
    // the scheduler emits their reports in.
    let mut acks: VecDeque<Sender<TickDone>> = VecDeque::new();
    let mut out = Vec::new();
    let forward = |out: &mut Vec<Output>, acks: &mut VecDeque<Sender<TickDone>>| {
        for o in out.drain(..) {
            match o {
                Output::Dispatch(work) => work_tx.send(work).expect("worker pool alive"),
                Output::Respond(resp) => {
                    let _ = resp_tx.send(resp);
                }
                Output::Ack(td) => {
                    if let Some(ack) = acks.pop_front() {
                        let _ = ack.send(td);
                    }
                }
            }
        }
    };
    let started = clock();
    let mut now = started;
    loop {
        sched.poll(now, &mut out);
        forward(&mut out, &mut acks);
        // Once drained, wait only for stragglers: a submit that raced the
        // shutdown took its depth slot before sending, and the scheduler
        // answers it with `ShuttingDown`. The timeout only fires if a
        // client died between its depth increment and its send.
        let drained = sched.is_drained();
        if drained && shared.depth.load(Ordering::Acquire) == 0 {
            break;
        }
        let timeout = if drained {
            Some(Duration::from_millis(50))
        } else {
            sched.next_wake().map(|w| w.saturating_duration_since(now))
        };
        let event = match timeout {
            Some(t) => evt_rx.recv_timeout(t),
            None => evt_rx.recv().map_err(RecvTimeoutError::from),
        };
        let first = match event {
            Ok(e) => Some(e),
            Err(RecvTimeoutError::Timeout) if !drained => None,
            Err(_) => break,
        };
        now = clock();
        // Handle the waking event plus everything already queued.
        let mut next = first;
        while let Some(ev) = next {
            let input = match ev {
                Event::Input(input) => input,
                Event::Tick(t, ack) => {
                    acks.push_back(ack);
                    Input::Tick(t)
                }
            };
            sched.step(input, now, &mut out);
            forward(&mut out, &mut acks);
            next = evt_rx.try_recv().ok();
        }
    }
    sched.finish(clock().saturating_duration_since(started))
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
        if evt_tx.send(Event::Input(Input::Done(done))).is_err() {
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
pub(crate) fn run_decode(
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
    let done_items = items
        .into_iter()
        .enumerate()
        .map(|(b, p)| {
            let row = &logits.data()[b * vocab..(b + 1) * vocab];
            let digest = row
                .iter()
                .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits() as u64));
            let payload = Payload::Decode {
                session: sids[b],
                position: positions[b],
                next_token: next[b],
                logits_digest: digest,
            };
            (p, Ok(payload))
        })
        .collect();
    BatchDone {
        lane: Lane::Decode,
        items: done_items,
        states: sids.into_iter().zip(sts).collect(),
    }
}

/// Runs one coalesced prefill batch back-to-back on this worker's engine
/// at the server's configured precision.
pub(crate) fn run_prefill(
    lib: &PrefillLib,
    eng: &ExecEngine,
    items: Vec<Pending>,
    budget: u64,
    precision: Precision,
) -> BatchDone {
    let models: Vec<PrefillModel> = items
        .iter()
        .map(|p| match p.req.kind {
            RequestKind::Prefill { model } => model,
            RequestKind::Decode { .. } => unreachable!("decode in prefill batch"),
        })
        .collect();
    let batch: Vec<(&Workload, u64)> = models.iter().map(|&m| (lib.get(m), budget)).collect();
    let runs = execute_workloads(eng, &batch, precision);
    let done_items = items
        .into_iter()
        .zip(models.iter().zip(runs))
        .map(|(p, (model, run))| {
            let payload = Payload::Prefill {
                workload: model.name(),
                checksum: run.checksum(),
                macs: run.total_macs_executed(),
            };
            (p, Ok(payload))
        })
        .collect();
    BatchDone {
        lane: Lane::Prefill,
        items: done_items,
        states: Vec::new(),
    }
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

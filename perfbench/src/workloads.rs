//! The three named workloads: server shape, traffic, and why each one
//! exists. Every server runs `WORKERS` executor threads with
//! `ENGINE_THREADS` engine threads each — sized for a 2-CPU host — and
//! the benchmark drives it from one thread.

use apsq_serve::{BatchPolicy, Precision, Scenario, ServeConfig};

/// Executor threads per server.
pub const WORKERS: usize = 2;
/// `ExecEngine` threads per executor.
pub const ENGINE_THREADS: usize = 1;
/// Largest decode batch a server dispatches (continuous batching).
pub const MAX_BATCH: usize = 8;

/// Open-loop traffic: Poisson decode sessions and Poisson prefill
/// requests at fixed absolute rates.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoad {
    /// New decode sessions per second.
    pub sessions_per_s: f64,
    /// Tokens each session decodes (greedy feedback inside a session).
    pub session_steps: usize,
    /// Prefill requests per second, spread over bert/segformer/llama.
    pub prefills_per_s: f64,
    /// A session meets its SLO when its first token arrives within this
    /// many ms of its due time...
    pub ttft_limit_ms: f64,
    /// ...and no gap between its tokens exceeds this many ms.
    pub itl_limit_ms: f64,
    /// A prefill meets its SLO within this many ms of its due time.
    pub prefill_limit_ms: f64,
}

/// How a workload's traffic reaches the server.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// Closed loop: each client sends its next token only after the last
    /// one came back.
    Closed(Scenario),
    /// Open loop: requests are sent on a seeded schedule regardless of
    /// completions.
    Open(OpenLoad),
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub cfg: ServeConfig,
    pub traffic: Traffic,
}

impl Workload {
    /// The named workload, or `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = {
            let mut c = ServeConfig::smoke()
                .with_workers(WORKERS)
                .with_batch(BatchPolicy::continuous(MAX_BATCH));
            c.engine_threads = ENGINE_THREADS;
            c
        };
        let w = match name {
            // 32 int8 sessions decoding 480 tokens each in a 512-token
            // window: attention, KV gathers and the APSQ context fold grow
            // every step.
            "long_ctx_int8" => {
                let mut cfg = base
                    .with_precision(Precision::Int8Apsq)
                    .with_kv_block_tokens(16);
                cfg.model.max_len = 512;
                let clients = 32;
                cfg.kv_budget_bytes =
                    (clients + 4) * cfg.model.kv_bytes_per_session(Precision::Int8Apsq);
                Workload {
                    name: "long_ctx_int8",
                    cfg,
                    traffic: Traffic::Closed(Scenario::llama_decode(clients, 480)),
                }
            }
            // 48 f32 chat sessions in the stock 64-token window, opening
            // with a shared 16-token prompt. The KV budget holds 30
            // worst-case sessions: 48 fit only because prefix blocks are
            // shared.
            "short_chat_f32" => {
                let mut cfg = base.with_kv_block_tokens(4);
                cfg.kv_budget_bytes = 30 * cfg.model.kv_bytes_per_session(Precision::F32);
                Workload {
                    name: "short_chat_f32",
                    cfg,
                    traffic: Traffic::Closed(Scenario::shared_prefix_decode(48, 16, 48)),
                }
            }
            // Poisson int8 sessions of 32 tokens beside Poisson prefills,
            // at a load far enough below the knee that a slower host does
            // not tip the queue into overload. The KV budget holds 100
            // worst-case sessions, so finished sessions are LRU-evicted
            // as new ones arrive while active ones keep their blocks.
            "open_loop_int8" => {
                let mut cfg = base
                    .with_precision(Precision::Int8Apsq)
                    .with_kv_block_tokens(16);
                cfg.kv_budget_bytes = 100 * cfg.model.kv_bytes_per_session(Precision::Int8Apsq);
                cfg.prefill_max_macs = 200_000;
                Workload {
                    name: "open_loop_int8",
                    cfg,
                    traffic: Traffic::Open(OpenLoad {
                        sessions_per_s: 50.0,
                        session_steps: 32,
                        prefills_per_s: 10.0,
                        ttft_limit_ms: 25.0,
                        itl_limit_ms: 15.0,
                        prefill_limit_ms: 50.0,
                    }),
                }
            }
            _ => return None,
        };
        w.cfg.validate();
        Some(w)
    }
}

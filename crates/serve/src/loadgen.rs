//! A deterministic closed-loop load generator: seeded clients, mixed
//! bert / segformer / llama scenarios, and a response fingerprint that
//! pins the end-to-end determinism contract.
//!
//! Each client keeps exactly one request in flight (closed loop). Decode
//! clients feed the server's own greedy `next_token` back as the following
//! step's input, so the traffic itself depends on the computation being
//! bit-exact. Every client draws from its **own** RNG stream (derived
//! from the run seed and the client index) and request ids encode
//! `(client, sequence)` — request content therefore never depends on the
//! completion interleaving, which is what makes the fingerprint comparable
//! across server shapes.

use crate::config::ServeConfig;
use crate::metrics::{ratio, MetricsSnapshot};
use crate::request::{fnv1a, Payload, PrefillModel, Request, Response, FNV_OFFSET};
use crate::server::Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Request-id stride per client: `id = client * STRIDE + sequence`.
const CLIENT_STRIDE: u64 = 1 << 20;
/// Session ids start here so they never collide with small test ids.
const SESSION_BASE: u64 = 1_000;

/// What one closed-loop client sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// Autoregressive decode: one session, greedy token feedback.
    LlamaDecode,
    /// BERT-Base encode inventories.
    BertPrefill,
    /// Segformer-B0 segmentation inventories.
    SegformerPrefill,
    /// LLaMA2-7B prompt-prefill inventories.
    LlamaPrefill,
}

impl ClientKind {
    fn prefill_model(&self) -> Option<PrefillModel> {
        match self {
            ClientKind::LlamaDecode => None,
            ClientKind::BertPrefill => Some(PrefillModel::BertBase128),
            ClientKind::SegformerPrefill => Some(PrefillModel::SegformerB0),
            ClientKind::LlamaPrefill => Some(PrefillModel::LlamaPrefill128),
        }
    }
}

/// A named traffic mix: one [`ClientKind`] per concurrent client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Display name (reports, JSON).
    pub name: String,
    /// Concurrent closed-loop clients.
    pub clients: Vec<ClientKind>,
    /// Requests each client issues before stopping.
    pub requests_per_client: usize,
    /// Decode clients send this many **identical** leading tokens (a
    /// fixed, seed-independent prompt) before switching to greedy
    /// feedback — the shared prefix the paged KV cache dedups across
    /// sessions. `0` keeps every stream independent from token one.
    pub shared_prefix: usize,
    /// Allow more decode clients than the nominal
    /// [`ServeConfig::session_capacity`]: block-granular accounting and
    /// prefix sharing are expected to carry the overcommit without
    /// evictions, and [`LoadGenerator::run`] skips its capacity
    /// assertion.
    pub overcommit: bool,
}

impl Scenario {
    /// Pure llama-decode traffic: `clients` sessions, `steps` tokens each.
    pub fn llama_decode(clients: usize, steps: usize) -> Self {
        Scenario {
            name: format!("llama_decode_c{clients}_s{steps}"),
            clients: vec![ClientKind::LlamaDecode; clients],
            requests_per_client: steps,
            shared_prefix: 0,
            overcommit: false,
        }
    }

    /// A seeded mixed workload: ~1/2 decode sessions, the rest split
    /// across bert / segformer / llama-prefill traffic.
    pub fn mixed(seed: u64, clients: usize, requests_per_client: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CEA_A210);
        let kinds = (0..clients)
            .map(|_| match rng.gen_range(0..6u32) {
                0..=2 => ClientKind::LlamaDecode,
                3 => ClientKind::BertPrefill,
                4 => ClientKind::SegformerPrefill,
                _ => ClientKind::LlamaPrefill,
            })
            .collect();
        Scenario {
            name: format!("mixed_c{clients}_s{requests_per_client}"),
            clients: kinds,
            requests_per_client,
            shared_prefix: 0,
            overcommit: false,
        }
    }

    /// Decode traffic where every client opens with the same
    /// `prefix_len`-token prompt — the block-dedup stress scenario. Runs
    /// with [`overcommit`](Self::overcommit) set: the point is packing
    /// more sessions than the worst-case byte budget nominally admits.
    pub fn shared_prefix_decode(clients: usize, prefix_len: usize, steps: usize) -> Self {
        Scenario {
            name: format!("shared_prefix_c{clients}_p{prefix_len}_s{steps}"),
            clients: vec![ClientKind::LlamaDecode; clients],
            requests_per_client: steps,
            shared_prefix: prefix_len,
            overcommit: true,
        }
    }

    /// Decode clients in this mix.
    pub fn decode_clients(&self) -> usize {
        self.clients
            .iter()
            .filter(|k| matches!(k, ClientKind::LlamaDecode))
            .count()
    }
}

/// End-of-run report from one load-generator execution.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Scenario name.
    pub scenario: String,
    /// Responses received.
    pub responses: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed-error responses.
    pub errors: u64,
    /// Submissions shed at the client (queue full / shutdown).
    pub client_shed: u64,
    /// FNV fold over all response digests, ordered by request id — equal
    /// across runs iff every response payload is bit-identical.
    pub fingerprint: u64,
    /// Client-observed wall time, seconds.
    pub elapsed_s: f64,
    /// Generated tokens per second (client-observed).
    pub tokens_per_s: f64,
    /// Completed requests per second (client-observed).
    pub requests_per_s: f64,
    /// Server-side metrics.
    pub snapshot: MetricsSnapshot,
}

/// Drives a [`Server`] with a [`Scenario`] in a closed loop.
#[derive(Clone, Debug)]
pub struct LoadGenerator {
    /// Run seed: initial tokens and scenario-independent draws.
    pub seed: u64,
    /// The traffic mix.
    pub scenario: Scenario,
}

struct ClientState {
    kind: ClientKind,
    issued: usize,
    last_token: usize,
    rng: StdRng,
}

impl LoadGenerator {
    /// A generator for `scenario` with the given seed.
    pub fn new(seed: u64, scenario: Scenario) -> Self {
        LoadGenerator { seed, scenario }
    }

    /// Starts a server with `cfg`, runs the scenario to completion, shuts
    /// the server down, and reports.
    ///
    /// # Panics
    ///
    /// Panics if the config cannot carry the scenario without
    /// load-dependent shedding, which would make fingerprints
    /// timing-dependent and throughput comparisons meaningless:
    /// `queue_capacity` below the client count (a client shed at submit
    /// has no response to wake it and silently goes dead), or more decode
    /// sessions than the KV byte budget admits
    /// ([`ServeConfig::session_capacity`] — which session gets
    /// LRU-evicted between a response and the resubmit depends on
    /// timing). Drive overload/shed scenarios through
    /// [`crate::ServerHandle`] directly instead.
    pub fn run(&self, cfg: &ServeConfig) -> LoadReport {
        assert!(
            cfg.queue_capacity >= self.scenario.clients.len(),
            "closed-loop load needs queue_capacity >= clients ({} < {})",
            cfg.queue_capacity,
            self.scenario.clients.len()
        );
        assert!(
            self.scenario.overcommit || self.scenario.decode_clients() <= cfg.session_capacity(),
            "closed-loop load needs the KV budget to admit every decode client ({} < {})",
            cfg.session_capacity(),
            self.scenario.decode_clients()
        );
        let (server, resp_rx) = Server::start(cfg);
        let handle = server.handle();
        let vocab = cfg.model.vocab;
        let mut clients: Vec<ClientState> = self
            .scenario
            .clients
            .iter()
            .enumerate()
            .map(|(i, &kind)| ClientState {
                kind,
                issued: 0,
                last_token: 0,
                rng: StdRng::seed_from_u64(self.seed ^ (0x9E37 + i as u64 * 0x1_0001)),
            })
            .collect();

        let mut client_shed = 0u64;
        let mut digests: Vec<(u64, u64)> = Vec::new();
        let mut ok = 0u64;
        let mut errors = 0u64;
        let mut tokens = 0u64;
        let mut outstanding = 0usize;
        // The closed-loop load generator paces real submissions by design;
        // wall-clock here measures the run, it never steers scheduling.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();

        let per_client = self.scenario.requests_per_client;
        let shared_prefix = self.scenario.shared_prefix;
        if per_client > 0 {
            for (i, c) in clients.iter_mut().enumerate() {
                if submit_next(&handle, c, i, vocab, shared_prefix) {
                    outstanding += 1;
                } else {
                    client_shed += 1;
                }
            }
        }

        while outstanding > 0 {
            let r: Response = resp_rx.recv().expect("server alive while work outstanding");
            outstanding -= 1;
            digests.push((r.id, r.digest()));
            match &r.result {
                Ok(Payload::Decode { next_token, .. }) => {
                    ok += 1;
                    tokens += 1;
                    let ci = (r.id / CLIENT_STRIDE) as usize;
                    clients[ci].last_token = *next_token;
                }
                Ok(_) => ok += 1,
                Err(_) => errors += 1,
            }
            let ci = (r.id / CLIENT_STRIDE) as usize;
            if clients[ci].issued < per_client {
                if submit_next(&handle, &mut clients[ci], ci, vocab, shared_prefix) {
                    outstanding += 1;
                } else {
                    client_shed += 1;
                }
            }
        }
        let elapsed_s = started.elapsed().as_secs_f64();
        let snapshot = server.shutdown();

        digests.sort_unstable();
        let fingerprint = digests
            .iter()
            .fold(FNV_OFFSET, |h, &(id, d)| fnv1a(fnv1a(h, id), d));
        LoadReport {
            scenario: self.scenario.name.clone(),
            responses: ok + errors,
            ok,
            errors,
            client_shed,
            fingerprint,
            elapsed_s,
            tokens_per_s: ratio(tokens as f64, elapsed_s),
            requests_per_s: ratio((ok + errors) as f64, elapsed_s),
            snapshot,
        }
    }
}

/// Submits client `ci`'s next request; returns whether it was admitted.
/// The first `shared_prefix` decode steps send a fixed prompt common to
/// every client; afterwards the stream is the client's own (seeded first
/// token, then greedy feedback).
fn submit_next(
    handle: &crate::server::ServerHandle,
    c: &mut ClientState,
    ci: usize,
    vocab: usize,
    shared_prefix: usize,
) -> bool {
    let id = ci as u64 * CLIENT_STRIDE + c.issued as u64;
    let req = match c.kind.prefill_model() {
        Some(model) => Request::prefill(id, model),
        None => {
            let token = if c.issued < shared_prefix {
                (c.issued * 7 + 3) % vocab
            } else if c.issued == 0 {
                c.rng.gen_range(0..vocab)
            } else {
                c.last_token
            };
            Request::decode(id, SESSION_BASE + ci as u64, token)
        }
    };
    c.issued += 1;
    handle.submit(req).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_mix_is_seed_deterministic() {
        let a = Scenario::mixed(7, 12, 4);
        let b = Scenario::mixed(7, 12, 4);
        let c = Scenario::mixed(8, 12, 4);
        assert_eq!(a, b);
        assert_ne!(a.clients, c.clients);
        assert!(a.decode_clients() > 0);
        assert!(a.decode_clients() < 12);
    }

    #[test]
    fn shared_prefix_overcommit_packs_past_nominal_capacity() {
        let mut cfg = ServeConfig::smoke();
        cfg.model.d_model = 32;
        cfg.model.d_ff = 64;
        cfg.model.heads = 2;
        cfg.model.vocab = 16;
        cfg.model.max_len = 16;
        cfg.prefill_max_macs = 5_000;
        cfg.kv_block_tokens = 4;
        // Worst-case budget for 3 sessions; 6 clients run anyway because
        // identical streams collapse onto shared blocks.
        cfg.kv_budget_bytes = 3 * cfg.model.kv_bytes_per_session(cfg.precision);
        let scenario = Scenario::shared_prefix_decode(6, 8, 8);
        assert!(scenario.decode_clients() > cfg.session_capacity());
        let report = LoadGenerator::new(9, scenario).run(&cfg);
        assert_eq!(report.ok, 48);
        assert_eq!(report.errors, 0);
        assert_eq!(report.client_shed, 0);
        assert_eq!(report.snapshot.evictions, 0);
        assert!(report.snapshot.shared_prefix_hits > 0);
        assert!(report.snapshot.sessions_peak > cfg.session_capacity());
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let mut cfg = ServeConfig::smoke();
        cfg.model.d_model = 32;
        cfg.model.d_ff = 64;
        cfg.model.heads = 2;
        cfg.model.vocab = 16;
        cfg.model.max_len = 16;
        cfg.prefill_max_macs = 5_000;
        let gen = LoadGenerator::new(11, Scenario::mixed(11, 6, 3));
        let report = gen.run(&cfg);
        assert_eq!(report.responses, 18);
        assert_eq!(report.ok, 18);
        assert_eq!(report.errors, 0);
        assert_eq!(report.client_shed, 0);
        assert_eq!(report.snapshot.completed, 18);
        assert!(report.tokens_per_s > 0.0);
    }
}

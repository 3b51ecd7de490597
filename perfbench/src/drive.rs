//! The single-threaded load generators. A closed loop plays a `Scenario`
//! (one client per session, next token sent on the previous response);
//! an open loop sends seeded Poisson arrivals from
//! `ArrivalProcess::schedule`, mapped from ticks to wall-clock time.
//! Both start a fresh server per episode and record what the client saw.

use crate::replay::Stream;
use crate::workloads::OpenLoad;
use apsq_serve::{
    ArrivalProcess, MetricsSnapshot, Payload, PrefillModel, Request, Response, Scenario,
    ServeConfig, Server, ServerHandle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Request-id stride per session: `id = session_index * STRIDE + step`.
pub const STRIDE: u64 = 1 << 20;
/// Closed-loop session ids (as `LoadGenerator` numbers them).
const CLOSED_SESSION_BASE: u64 = 1_000;
/// Open-loop session ids.
const OPEN_SESSION_BASE: u64 = 500_000;
/// Open-loop prefill request `p` has id `(PREFILL_BASE + p) * STRIDE`.
const PREFILL_BASE: u64 = 1 << 24;
/// Open-loop schedule resolution: ticks per second (0.1 ms ticks).
const TICKS_PER_S: f64 = 10_000.0;

/// One request as the client saw it: due, sent and answered, in ns from
/// the episode start.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub session: u64,
    pub prefill: bool,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

/// A latency sample and when (ns from the episode start) it completed.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub at_ns: u64,
    pub ms: f64,
}

/// Everything one server episode observed.
#[derive(Default)]
pub struct Episode {
    /// `Server::start` wall time.
    pub setup_s: f64,
    /// Serving interval, first send to last response.
    pub elapsed_s: f64,
    pub traced: bool,
    pub tokens: u64,
    /// Submit calls made.
    pub attempted: u64,
    /// Typed-error responses plus refused submits.
    pub failed: u64,
    pub itl: Vec<Timed>,
    pub ttft: Vec<Timed>,
    pub prefill_ms: Vec<f64>,
    /// How late each send left after it was due.
    pub lag_ms: Vec<f64>,
    /// `Response::latency_us` of decode responses, ms.
    pub server_ms: Vec<f64>,
    /// `(request id, response digest)` of every successful response.
    pub digests: Vec<(u64, u64)>,
    /// Positions of successful decode responses.
    pub positions: Vec<usize>,
    /// Open loop: requests sent and requests meeting the SLO.
    pub slo_sent: u64,
    pub slo_met: u64,
    pub spans: Vec<Span>,
    pub snapshot: Option<MetricsSnapshot>,
}

impl Episode {
    fn start(cfg: &ServeConfig, traced: bool) -> (Episode, Server, Receiver<Response>) {
        let t0 = Instant::now();
        let (server, rx) = Server::start(cfg);
        let ep = Episode {
            setup_s: t0.elapsed().as_secs_f64(),
            traced,
            ..Episode::default()
        };
        (ep, server, rx)
    }

    fn span(&mut self, span: Span) {
        if self.traced {
            self.spans.push(span);
        }
    }

    /// Records a successful response's digest and, for a decode, its
    /// position; returns the greedy next token.
    fn record(&mut self, r: &Response) -> Option<usize> {
        if r.result.is_ok() {
            self.digests.push((r.id, r.digest()));
        }
        match &r.result {
            Ok(Payload::Decode {
                next_token,
                position,
                ..
            }) => {
                self.tokens += 1;
                self.positions.push(*position);
                self.server_ms.push(r.latency_us as f64 / 1e3);
                Some(*next_token)
            }
            Ok(Payload::Prefill { .. }) => None,
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Seeded tokens that open every session before greedy feedback takes
/// over. Greedy decode makes a stream a pure function of its opening, so
/// several tokens keep sessions distinct in a small vocabulary.
pub const OPENING_TOKENS: usize = 4;

/// The closed-loop client rule, with `LoadGenerator`'s request ids,
/// session ids and per-client RNG streams: a client sends the scenario's
/// shared prompt, then its own `OPENING_TOKENS` seeded tokens, then
/// feeds back each greedy token.
pub fn closed_streams(scenario: &Scenario, seed: u64, vocab: usize) -> Vec<Stream> {
    (0..scenario.clients.len())
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + i as u64 * 0x1_0001));
            let mut script: Vec<usize> = (0..scenario.shared_prefix)
                .map(|k| (k * 7 + 3) % vocab)
                .collect();
            script.extend((0..OPENING_TOKENS).map(|_| rng.gen_range(0..vocab)));
            Stream {
                session: CLOSED_SESSION_BASE + i as u64,
                id_base: i as u64 * STRIDE,
                script,
                steps: scenario.requests_per_client,
            }
        })
        .collect()
}

struct Client {
    stream: Stream,
    issued: usize,
    last_token: usize,
    first_sent_ns: u64,
    last_resp_ns: u64,
    /// Due and send time of the one request in flight.
    due_ns: u64,
    sent_ns: u64,
}

impl Client {
    fn new(stream: &Stream) -> Client {
        Client {
            stream: stream.clone(),
            issued: 0,
            last_token: 0,
            first_sent_ns: 0,
            last_resp_ns: 0,
            due_ns: 0,
            sent_ns: 0,
        }
    }

    /// The span of the request in flight, answered at `done_ns`.
    fn span(&self, id: u64, done_ns: u64, ok: bool) -> Span {
        Span {
            id,
            session: self.stream.session,
            prefill: false,
            due_ns: self.due_ns,
            sent_ns: self.sent_ns,
            done_ns,
            ok,
        }
    }
}

/// Sends one decode step of `c`; `false` if the server refused it.
fn send_step(h: &ServerHandle, c: &mut Client, ep: &mut Episode, due_ns: u64, t0: Instant) -> bool {
    let s = &c.stream;
    let token = s.script.get(c.issued).copied().unwrap_or(c.last_token);
    let id = s.id_base + c.issued as u64;
    let sent = ns_since(t0);
    ep.attempted += 1;
    ep.lag_ms.push(ms(sent.saturating_sub(due_ns)));
    if c.issued == 0 {
        c.first_sent_ns = sent;
    }
    c.issued += 1;
    (c.due_ns, c.sent_ns) = (due_ns, sent);
    let ok = h.submit(Request::decode(id, s.session, token)).is_ok();
    if !ok {
        ep.failed += 1;
        ep.span(c.span(id, sent, false));
    }
    ok
}

/// One closed-loop episode of `streams` on a fresh server.
pub fn closed_episode(cfg: &ServeConfig, streams: &[Stream], traced: bool) -> Episode {
    let (mut ep, server, rx) = Episode::start(cfg, traced);
    let h = server.handle();
    let mut clients: Vec<Client> = streams.iter().map(Client::new).collect();
    let t0 = Instant::now();
    let mut outstanding = 0usize;
    for c in clients.iter_mut().filter(|c| c.stream.steps > 0) {
        outstanding += usize::from(send_step(&h, c, &mut ep, 0, t0));
    }
    while outstanding > 0 {
        let r = rx.recv().expect("server alive while work is outstanding");
        let now = ns_since(t0);
        outstanding -= 1;
        let c = &mut clients[(r.id / STRIDE) as usize];
        let next = ep.record(&r);
        if let Some(tok) = next {
            c.last_token = tok;
            if r.id % STRIDE == 0 {
                ep.ttft.push(Timed {
                    at_ns: now,
                    ms: ms(now - c.first_sent_ns),
                });
            } else {
                ep.itl.push(Timed {
                    at_ns: now,
                    ms: ms(now - c.last_resp_ns),
                });
            }
            c.last_resp_ns = now;
        }
        ep.span(c.span(r.id, now, r.result.is_ok()));
        if c.issued < c.stream.steps {
            outstanding += usize::from(send_step(&h, c, &mut ep, now, t0));
        }
    }
    ep.elapsed_s = t0.elapsed().as_secs_f64();
    ep.snapshot = Some(server.shutdown());
    ep
}

/// The open-loop arrival plan of one episode: session streams and
/// prefill requests with their due times.
pub struct OpenPlan {
    pub sessions: Vec<(u64, Stream)>,
    pub prefills: Vec<(u64, PrefillModel)>,
}

/// Draws the seeded open-loop plan over `seconds`: Poisson session and
/// prefill arrivals from `ArrivalProcess::schedule` on 0.1 ms ticks.
pub fn open_plan(load: &OpenLoad, seed: u64, seconds: f64, vocab: usize) -> OpenPlan {
    let horizon = (seconds * TICKS_PER_S) as u64;
    let due = |rate: f64, stream: u64| -> Vec<u64> {
        ArrivalProcess::Poisson {
            lambda: rate / TICKS_PER_S,
        }
        .schedule(seed ^ stream, horizon)
        .into_iter()
        .map(|tick| (tick as f64 * 1e9 / TICKS_PER_S) as u64)
        .collect()
    };
    let mut tokens = StdRng::seed_from_u64(seed ^ 0x70C3_A11D);
    let sessions = due(load.sessions_per_s, 0x5E55_1011)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let s = Stream {
                session: OPEN_SESSION_BASE + i as u64,
                id_base: i as u64 * STRIDE,
                script: (0..OPENING_TOKENS)
                    .map(|_| tokens.gen_range(0..vocab))
                    .collect(),
                steps: load.session_steps,
            };
            (d, s)
        })
        .collect();
    let mut models = StdRng::seed_from_u64(seed ^ 0x9EF1_11A0);
    let prefills = due(load.prefills_per_s, 0x9EF1_1100)
        .into_iter()
        .map(|d| {
            let m = match models.gen_range(0..3u32) {
                0 => PrefillModel::BertBase128,
                1 => PrefillModel::SegformerB0,
                _ => PrefillModel::LlamaPrefill128,
            };
            (d, m)
        })
        .collect();
    OpenPlan { sessions, prefills }
}

/// Request id of open-loop prefill `p`.
pub fn prefill_id(p: usize) -> u64 {
    (PREFILL_BASE + p as u64) * STRIDE
}

struct OpenSession {
    client: Client,
    due_ns: u64,
    ok: bool,
    ttft_ms: f64,
    max_itl_ms: f64,
}

/// One open-loop episode of `plan` on a fresh server. TTFT and prefill
/// latency run from each request's due time, not its send time.
pub fn open_episode(cfg: &ServeConfig, load: &OpenLoad, plan: &OpenPlan, traced: bool) -> Episode {
    let (mut ep, server, rx) = Episode::start(cfg, traced);
    let h = server.handle();
    // Arrivals in due order: (due, is_prefill, index).
    let mut arrivals: Vec<(u64, bool, usize)> = plan
        .sessions
        .iter()
        .enumerate()
        .map(|(i, (d, _))| (*d, false, i))
        .chain(
            plan.prefills
                .iter()
                .enumerate()
                .map(|(i, (d, _))| (*d, true, i)),
        )
        .collect();
    arrivals.sort_unstable();
    let mut sessions: Vec<OpenSession> = plan
        .sessions
        .iter()
        .map(|(d, s)| OpenSession {
            client: Client::new(s),
            due_ns: *d,
            ok: true,
            ttft_ms: f64::INFINITY,
            max_itl_ms: 0.0,
        })
        .collect();
    let mut prefill_met = 0u64;
    // Due and send time of each prefill in flight.
    let mut prefill_sent: HashMap<u64, (u64, u64)> = HashMap::new();
    let t0 = Instant::now();
    let mut next = 0usize;
    let mut outstanding = 0usize;
    loop {
        let now = ns_since(t0);
        while next < arrivals.len() && arrivals[next].0 <= now {
            let (due, is_prefill, i) = arrivals[next];
            next += 1;
            if is_prefill {
                let id = prefill_id(i);
                let sent = ns_since(t0);
                ep.attempted += 1;
                ep.lag_ms.push(ms(sent.saturating_sub(due)));
                if h.submit(Request::prefill(id, plan.prefills[i].1)).is_ok() {
                    outstanding += 1;
                    prefill_sent.insert(id, (due, sent));
                } else {
                    ep.failed += 1;
                }
            } else {
                let s = &mut sessions[i];
                if send_step(&h, &mut s.client, &mut ep, due, t0) {
                    outstanding += 1;
                } else {
                    s.ok = false;
                }
            }
        }
        if next == arrivals.len() && outstanding == 0 {
            break;
        }
        let wait = if next < arrivals.len() {
            Duration::from_nanos(arrivals[next].0.saturating_sub(ns_since(t0)))
        } else {
            Duration::from_secs(60)
        };
        let r = match rx.recv_timeout(wait) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => panic!("server exited with work outstanding"),
        };
        let now = ns_since(t0);
        outstanding -= 1;
        let next_token = ep.record(&r);
        if r.id >= PREFILL_BASE * STRIDE {
            let (due, sent) = prefill_sent
                .remove(&r.id)
                .expect("a prefill response answers a prefill in flight");
            ep.span(Span {
                id: r.id,
                session: 0,
                prefill: true,
                due_ns: due,
                sent_ns: sent,
                done_ns: now,
                ok: r.result.is_ok(),
            });
            let latency = ms(now - due);
            ep.prefill_ms.push(latency);
            if r.result.is_ok() && latency <= load.prefill_limit_ms {
                prefill_met += 1;
            }
            continue;
        }
        let s = &mut sessions[(r.id / STRIDE) as usize];
        ep.span(s.client.span(r.id, now, r.result.is_ok()));
        match next_token {
            Some(tok) => {
                s.client.last_token = tok;
                if r.id % STRIDE == 0 {
                    s.ttft_ms = ms(now - s.due_ns);
                    ep.ttft.push(Timed {
                        at_ns: now,
                        ms: s.ttft_ms,
                    });
                } else {
                    let gap = ms(now - s.client.last_resp_ns);
                    ep.itl.push(Timed {
                        at_ns: now,
                        ms: gap,
                    });
                    s.max_itl_ms = s.max_itl_ms.max(gap);
                }
                s.client.last_resp_ns = now;
            }
            None => s.ok = false,
        }
        if s.ok && s.client.issued < s.client.stream.steps {
            if send_step(&h, &mut s.client, &mut ep, now, t0) {
                outstanding += 1;
            } else {
                s.ok = false;
            }
        }
    }
    ep.elapsed_s = t0.elapsed().as_secs_f64();
    ep.snapshot = Some(server.shutdown());
    let session_met = sessions
        .iter()
        .filter(|s| {
            s.ok && s.client.issued == s.client.stream.steps
                && s.ttft_ms <= load.ttft_limit_ms
                && s.max_itl_ms <= load.itl_limit_ms
        })
        .count() as u64;
    ep.slo_sent = (sessions.len() + plan.prefills.len()) as u64;
    ep.slo_met = session_met + prefill_met;
    ep
}

//! Open-loop traffic generation: seeded Poisson and bursty arrival
//! processes over heterogeneous scenario mixes, driven on the server's
//! virtual clock.
//!
//! Unlike the closed-loop [`crate::LoadGenerator`] — whose clients wait
//! for each response before submitting again, so offered load can never
//! exceed capacity — an [`OpenLoopGenerator`] draws its arrival schedule
//! up front from the virtual clock alone. Arrivals keep coming whether or
//! not the server keeps up, which is what pushes the system past its
//! saturation knee and exercises the admission, deadline, and
//! degradation shed paths in anger.
//!
//! # Determinism
//!
//! The whole run is a pure function of `(seed, scenario, config)`:
//!
//! 1. The arrival schedule and class assignment are drawn from seeded
//!    RNG streams before the server sees anything.
//! 2. The driver runs the lockstep tick protocol: submit this tick's
//!    continuations (in arrival order) and new arrivals, then
//!    [`crate::ServerHandle::tick`] — which returns only after every
//!    batch dispatched that tick completed. Every scheduler decision
//!    therefore happens on a quiesced system.
//! 3. Client-side [`crate::ServeError::QueueFull`] sheds are folded into
//!    the same fingerprint as server responses, so admission decisions
//!    are part of the determinism contract too.
//!
//! The resulting completion-set fingerprint is identical across worker
//! counts, batch policies, and thread timing — only the seed, the
//! scenario, the SLO policy, and the numeric precision move it.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::request::{
    fnv1a, PrefillModel, Priority, Request, RequestId, Response, SessionId, Slo, FNV_OFFSET,
};
use crate::server::Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Session ids minted by the open-loop driver start here (disjoint from
/// the closed-loop generator's range for log readability).
const SESSION_BASE: SessionId = 500_000;
/// Request ids are `arrival_index * ARRIVAL_STRIDE + step`, unique and
/// independent of completion interleaving.
const ARRIVAL_STRIDE: RequestId = 1 << 20;
/// Stream-splitting constant: the class-assignment RNG is seeded with
/// `seed ^ CLASS_STREAM` so it never correlates with the schedule RNG.
const CLASS_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seeded arrival process over the virtual clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `lambda` expected arrivals per
    /// tick (exponential inter-arrival times with mean `1/lambda`).
    Poisson {
        /// Expected arrivals per tick.
        lambda: f64,
    },
    /// On/off modulated Poisson: `on_ticks` at `lambda_on`, then
    /// `off_ticks` at `lambda_off`, repeating. `lambda_off = 0` gives
    /// strict silence between bursts.
    Bursty {
        /// Burst window length in ticks.
        on_ticks: u64,
        /// Quiet window length in ticks.
        off_ticks: u64,
        /// Expected arrivals per tick inside a burst.
        lambda_on: f64,
        /// Expected arrivals per tick between bursts.
        lambda_off: f64,
    },
}

impl ArrivalProcess {
    /// The instantaneous rate (expected arrivals per tick) at `tick`.
    pub fn rate_at(&self, tick: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { lambda } => lambda,
            ArrivalProcess::Bursty {
                on_ticks,
                off_ticks,
                lambda_on,
                lambda_off,
            } => {
                let period = on_ticks + off_ticks;
                if period == 0 || tick % period < on_ticks {
                    lambda_on
                } else {
                    lambda_off
                }
            }
        }
    }

    /// The mean rate over one full modulation period.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { lambda } => lambda,
            ArrivalProcess::Bursty {
                on_ticks,
                off_ticks,
                lambda_on,
                lambda_off,
            } => {
                let period = (on_ticks + off_ticks) as f64;
                if period == 0.0 {
                    lambda_on
                } else {
                    (on_ticks as f64 * lambda_on + off_ticks as f64 * lambda_off) / period
                }
            }
        }
    }

    /// First tick index `> tick` at which the rate may change (for
    /// exact piecewise-constant thinning); `None` for a homogeneous
    /// process.
    fn next_rate_boundary(&self, tick: u64) -> Option<u64> {
        match *self {
            ArrivalProcess::Poisson { .. } => None,
            ArrivalProcess::Bursty {
                on_ticks,
                off_ticks,
                ..
            } => {
                let period = on_ticks + off_ticks;
                if period == 0 {
                    return None;
                }
                let start = tick - tick % period;
                let within = tick - start;
                Some(if within < on_ticks {
                    start + on_ticks
                } else {
                    start + period
                })
            }
        }
    }

    /// Draws the seeded arrival schedule over `horizon` ticks: the tick
    /// index of each arrival, ascending (ties = several arrivals in one
    /// tick). Inter-arrival gaps are exponential at the instantaneous
    /// rate, via inverse-CDF sampling; at a rate boundary the draw
    /// restarts from the boundary, which the exponential's memorylessness
    /// makes exact.
    pub fn schedule(&self, seed: u64, horizon: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        while (t as u64) < horizon {
            let tick = t as u64;
            let rate = self.rate_at(tick);
            if rate <= 0.0 {
                // Silent window: jump to where the rate can change.
                match self.next_rate_boundary(tick) {
                    Some(b) => {
                        t = b as f64;
                        continue;
                    }
                    None => break,
                }
            }
            let u: f64 = rng.gen();
            // lint: allow(libm-transcendental) -- seeded exponential gaps on libm `ln`, so arrivals depend on libm (ROADMAP item 9)
            let gap = -(1.0 - u).ln() / rate;
            if let Some(b) = self.next_rate_boundary(tick) {
                if t + gap >= b as f64 {
                    t = b as f64;
                    continue;
                }
            }
            // lint: allow(float-reduction-outside-kernels) -- seeded Poisson arrival-time accumulation; sequential and single-threaded, part of the deterministic scenario
            t += gap;
            if (t as u64) < horizon {
                out.push(t as u64);
            }
        }
        out
    }
}

/// What one arrival asks of the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassKind {
    /// A decode session generating `steps` greedy tokens, one step per
    /// tick (each step's token is the previous response's argmax).
    Decode {
        /// Tokens to generate before the session completes.
        steps: usize,
    },
    /// One encoder-prefill request.
    Prefill {
        /// Which inventory.
        model: PrefillModel,
    },
}

/// One traffic class in a heterogeneous mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficClass {
    /// Display name (stable — used in reports).
    pub name: &'static str,
    /// The work each arrival of this class performs.
    pub kind: ClassKind,
    /// Scheduling class.
    pub priority: Priority,
    /// Relative deadline in ticks: each request's absolute deadline is
    /// its submission tick plus this (`None` = no deadline).
    pub deadline_ticks: Option<u64>,
    /// Sampling weight within the mix.
    pub weight: u32,
}

impl TrafficClass {
    /// Decode units (steps) or prefill units (1) one arrival demands.
    pub fn units(&self) -> u64 {
        match self.kind {
            ClassKind::Decode { steps } => steps as u64,
            ClassKind::Prefill { .. } => 1,
        }
    }
}

/// An arrival process plus the traffic mix it draws from.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadScenario {
    /// Display name.
    pub name: &'static str,
    /// When requests arrive.
    pub process: ArrivalProcess,
    /// What arrives (weighted mix; must be non-empty).
    pub classes: Vec<TrafficClass>,
    /// Ticks of fresh arrivals; the driver keeps ticking past this until
    /// the system drains.
    pub horizon_ticks: u64,
}

impl OverloadScenario {
    /// The canonical heterogeneous SLO mix: interactive short decodes
    /// (high priority, tight deadline), standard decodes, long-context
    /// best-effort decodes, and encoder prefill at two priorities.
    pub fn mixed_slo(process: ArrivalProcess, horizon_ticks: u64) -> Self {
        OverloadScenario {
            name: "mixed_slo",
            process,
            classes: vec![
                TrafficClass {
                    name: "interactive",
                    kind: ClassKind::Decode { steps: 4 },
                    priority: Priority::High,
                    deadline_ticks: Some(4),
                    weight: 4,
                },
                TrafficClass {
                    name: "standard",
                    kind: ClassKind::Decode { steps: 8 },
                    priority: Priority::Normal,
                    deadline_ticks: Some(12),
                    weight: 4,
                },
                TrafficClass {
                    name: "long_context",
                    kind: ClassKind::Decode { steps: 24 },
                    priority: Priority::Low,
                    deadline_ticks: Some(50),
                    weight: 1,
                },
                TrafficClass {
                    name: "batch_prefill",
                    kind: ClassKind::Prefill {
                        model: PrefillModel::BertBase128,
                    },
                    priority: Priority::Low,
                    deadline_ticks: Some(30),
                    weight: 2,
                },
                TrafficClass {
                    name: "std_prefill",
                    kind: ClassKind::Prefill {
                        model: PrefillModel::BertBase128,
                    },
                    priority: Priority::Normal,
                    deadline_ticks: Some(16),
                    weight: 1,
                },
            ],
            horizon_ticks,
        }
    }

    /// Weighted mean decode+prefill units one arrival demands — divide a
    /// server's per-tick unit budget by this to find the arrival rate at
    /// which offered load equals capacity.
    pub fn mean_units_per_arrival(&self) -> f64 {
        let wsum: u64 = self.classes.iter().map(|c| c.weight as u64).sum();
        let usum: u64 = self
            .classes
            .iter()
            .map(|c| c.weight as u64 * c.units())
            .sum();
        usum as f64 / wsum.max(1) as f64
    }

    fn pick_class(&self, rng: &mut StdRng) -> usize {
        let total: u32 = self.classes.iter().map(|c| c.weight).sum();
        let mut roll = rng.gen_range(0..total.max(1));
        for (i, c) in self.classes.iter().enumerate() {
            if roll < c.weight {
                return i;
            }
            roll -= c.weight;
        }
        self.classes.len() - 1
    }
}

/// One scheduled arrival: which tick, which class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual tick the arrival lands on.
    pub tick: u64,
    /// Index into [`OverloadScenario::classes`].
    pub class: usize,
}

/// Per-priority-class driver-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Requests submitted (arrivals + decode continuations).
    pub submitted: u64,
    /// Shed client-side at admission ([`ServeError::QueueFull`]).
    pub client_shed: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed error responses from the server.
    pub errors: u64,
}

/// End-of-run report from [`OpenLoopGenerator::run`].
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Ticks driven (horizon + drain tail).
    pub ticks: u64,
    /// Scheduled arrivals.
    pub arrivals: u64,
    /// Requests submitted (arrivals + decode continuations).
    pub submitted: u64,
    /// Submits shed client-side with [`ServeError::QueueFull`].
    pub client_shed: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed error responses from the server.
    pub errors: u64,
    /// Decode sessions that generated every step.
    pub sessions_completed: u64,
    /// Decode sessions aborted by a shed mid-stream.
    pub sessions_aborted: u64,
    /// Offered load in decode+prefill units per tick (mean).
    pub offered_units_per_tick: f64,
    /// Order-insensitive FNV fold over every outcome digest — server
    /// responses *and* client-side admission sheds.
    pub fingerprint: u64,
    /// Driver-side per-priority counters, indexed by [`Priority::rank`].
    pub per_priority: [ClassCounts; 3],
    /// The server's end-of-run metrics (goodput, per-class latency,
    /// per-cause shed counters, ladder activity).
    pub snapshot: MetricsSnapshot,
}

/// A live decode session driven by the generator.
struct LiveSession {
    session: SessionId,
    arrival: usize,
    class: usize,
    steps_total: usize,
    steps_done: usize,
    /// Token for the next step (greedy feedback from the last response).
    next_token: usize,
    /// Set when the previous step's response arrived and a next step is
    /// due (cleared once submitted).
    ready: bool,
    aborted: bool,
}

/// Seeded open-loop traffic generator and lockstep driver.
#[derive(Clone, Debug)]
pub struct OpenLoopGenerator {
    /// Master seed: schedule and class streams derive from it.
    pub seed: u64,
    /// The traffic scenario.
    pub scenario: OverloadScenario,
}

impl OpenLoopGenerator {
    /// A generator for `scenario` under `seed`.
    pub fn new(seed: u64, scenario: OverloadScenario) -> Self {
        OpenLoopGenerator { seed, scenario }
    }

    /// The full arrival schedule (tick + class per arrival) — a pure
    /// function of the seed and scenario.
    pub fn arrivals(&self) -> Vec<Arrival> {
        let ticks = self
            .scenario
            .process
            .schedule(self.seed, self.scenario.horizon_ticks);
        let mut class_rng = StdRng::seed_from_u64(self.seed ^ CLASS_STREAM);
        ticks
            .into_iter()
            .map(|tick| Arrival {
                tick,
                class: self.scenario.pick_class(&mut class_rng),
            })
            .collect()
    }

    /// Runs the scenario against a server built from `cfg` (which must
    /// have [`crate::SloPolicy::virtual_time`] set) and returns the
    /// report. See the module docs for the lockstep protocol and the
    /// determinism argument.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not a virtual-time config, or if the server
    /// fails to drain within a generous tick bound (a scheduler bug).
    pub fn run(&self, cfg: &ServeConfig) -> OverloadReport {
        assert!(
            cfg.slo.virtual_time,
            "open-loop traffic needs a virtual-time SloPolicy"
        );
        let arrivals = self.arrivals();
        let (server, resp_rx) = Server::start(cfg);
        let handle = server.handle();

        let mut sessions: Vec<LiveSession> = Vec::new();
        // request id -> session index, for routing decode responses.
        // Ordered map: probed by key only, but keeping it BTree means no
        // hash-seed-dependent state exists anywhere in the generator.
        let mut by_request: std::collections::BTreeMap<RequestId, usize> =
            std::collections::BTreeMap::new();
        let mut digests: Vec<(RequestId, u64)> = Vec::new();
        let mut per_priority = [ClassCounts::default(); 3];
        let mut submitted = 0u64;
        let mut client_shed = 0u64;
        let mut ok = 0u64;
        let mut errors = 0u64;
        let mut outstanding = 0u64;

        let classes = &self.scenario.classes;
        let mut next_arrival = 0usize;
        let mut tick = 0u64;
        // Generous drain bound: every queued request either completes
        // within the budget or sheds on a deadline; no-deadline work
        // drains at decode_units_per_tick per tick.
        let max_ticks = self.scenario.horizon_ticks * 8 + 4 * cfg.queue_capacity as u64 + 64;

        loop {
            let fresh = next_arrival < arrivals.len();
            // 1. Continuations first, in arrival order: each session with
            // a completed previous step submits its next decode step.
            for (idx, s) in sessions.iter_mut().enumerate() {
                if !s.ready || s.aborted {
                    continue;
                }
                s.ready = false;
                let class = &classes[s.class];
                let id = s.arrival as RequestId * ARRIVAL_STRIDE + s.steps_done as RequestId;
                let mut req =
                    Request::decode(id, s.session, s.next_token).with_priority(class.priority);
                if let Some(d) = class.deadline_ticks {
                    req = req.with_slo(Slo::new(class.priority, tick + d));
                }
                submitted += 1;
                per_priority[class.priority.rank()].submitted += 1;
                match handle.submit(req) {
                    Ok(()) => {
                        by_request.insert(id, idx);
                        outstanding += 1;
                    }
                    Err(e) => {
                        client_shed += 1;
                        per_priority[class.priority.rank()].client_shed += 1;
                        digests.push((id, shed_digest(id, &e)));
                        s.aborted = true;
                    }
                }
            }
            // 2. New arrivals landing on this tick.
            while next_arrival < arrivals.len() && arrivals[next_arrival].tick == tick {
                let a = arrivals[next_arrival];
                let class = &classes[a.class];
                let deadline = class.deadline_ticks.map(|d| tick + d);
                let slo = Slo {
                    priority: class.priority,
                    deadline,
                };
                submitted += 1;
                per_priority[class.priority.rank()].submitted += 1;
                match class.kind {
                    ClassKind::Decode { steps } => {
                        let session = SESSION_BASE + next_arrival as SessionId;
                        let id = next_arrival as RequestId * ARRIVAL_STRIDE;
                        let req = Request::decode(id, session, 0).with_slo(slo);
                        let idx = sessions.len();
                        sessions.push(LiveSession {
                            session,
                            arrival: next_arrival,
                            class: a.class,
                            steps_total: steps,
                            steps_done: 0,
                            next_token: 0,
                            ready: false,
                            aborted: false,
                        });
                        match handle.submit(req) {
                            Ok(()) => {
                                by_request.insert(id, idx);
                                outstanding += 1;
                            }
                            Err(e) => {
                                client_shed += 1;
                                per_priority[class.priority.rank()].client_shed += 1;
                                digests.push((id, shed_digest(id, &e)));
                                sessions[idx].aborted = true;
                            }
                        }
                    }
                    ClassKind::Prefill { model } => {
                        let id = next_arrival as RequestId * ARRIVAL_STRIDE;
                        let req = Request::prefill(id, model).with_slo(slo);
                        match handle.submit(req) {
                            Ok(()) => {
                                outstanding += 1;
                            }
                            Err(e) => {
                                client_shed += 1;
                                per_priority[class.priority.rank()].client_shed += 1;
                                digests.push((id, shed_digest(id, &e)));
                            }
                        }
                    }
                }
                next_arrival += 1;
            }
            // 3. One lockstep tick: sheds + budgeted dispatch, returning
            // once the system quiesced.
            handle
                .tick(tick)
                .expect("server alive while the generator drives it");
            // 4. Drain every response the tick produced; greedy feedback
            // schedules next steps for the following tick.
            while let Ok(resp) = resp_rx.try_recv() {
                outstanding -= 1;
                digests.push((resp.id, resp.digest()));
                let sess_idx = by_request.remove(&resp.id);
                match &resp.result {
                    Ok(payload) => {
                        ok += 1;
                        if let Some(idx) = sess_idx {
                            let s = &mut sessions[idx];
                            per_priority[classes[s.class].priority.rank()].ok += 1;
                            s.steps_done += 1;
                            if let crate::request::Payload::Decode { next_token, .. } = payload {
                                s.next_token = *next_token;
                            }
                            if s.steps_done < s.steps_total {
                                s.ready = true;
                            }
                        } else {
                            // Prefill: recover the class priority from
                            // the arrival index encoded in the id.
                            let arrival = (resp.id / ARRIVAL_STRIDE) as usize;
                            let class = &classes[arrivals[arrival].class];
                            per_priority[class.priority.rank()].ok += 1;
                        }
                    }
                    Err(_) => {
                        errors += 1;
                        if let Some(idx) = sess_idx {
                            let s = &mut sessions[idx];
                            per_priority[classes[s.class].priority.rank()].errors += 1;
                            s.aborted = true;
                        } else {
                            let arrival = (resp.id / ARRIVAL_STRIDE) as usize;
                            let class = &classes[arrivals[arrival].class];
                            per_priority[class.priority.rank()].errors += 1;
                        }
                    }
                }
            }
            tick += 1;
            let continuations_pending = sessions.iter().any(|s| s.ready && !s.aborted);
            if tick >= self.scenario.horizon_ticks
                && !fresh
                && outstanding == 0
                && !continuations_pending
            {
                break;
            }
            assert!(
                tick < max_ticks,
                "open-loop driver failed to drain by tick {tick} \
                 (outstanding {outstanding})"
            );
        }

        let snapshot = server.shutdown();
        let sessions_completed = sessions
            .iter()
            .filter(|s| !s.aborted && s.steps_done == s.steps_total)
            .count() as u64;
        let sessions_aborted = sessions.iter().filter(|s| s.aborted).count() as u64;
        digests.sort_unstable();
        let fingerprint = digests
            .iter()
            .fold(FNV_OFFSET, |h, &(id, d)| fnv1a(fnv1a(h, id), d));
        OverloadReport {
            scenario: self.scenario.name,
            ticks: tick,
            arrivals: arrivals.len() as u64,
            submitted,
            client_shed,
            ok,
            errors,
            sessions_completed,
            sessions_aborted,
            offered_units_per_tick: self.scenario.process.mean_rate()
                * self.scenario.mean_units_per_arrival(),
            fingerprint,
            per_priority,
            snapshot,
        }
    }
}

/// The digest a client-side admission shed contributes to the
/// fingerprint: the same fold a server-emitted error response would use.
fn shed_digest(id: RequestId, e: &ServeError) -> u64 {
    Response {
        id,
        result: Err(e.clone()),
        latency_us: 0,
        batch_size: 0,
    }
    .digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seed_deterministic_and_sorted() {
        let p = ArrivalProcess::Poisson { lambda: 0.7 };
        let a = p.schedule(42, 400);
        let b = p.schedule(42, 400);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 400));
        let c = p.schedule(43, 400);
        assert_ne!(a, c, "different seeds, different schedules");
    }

    #[test]
    fn poisson_rate_approximates_lambda() {
        let lambda = 0.5;
        let p = ArrivalProcess::Poisson { lambda };
        let horizon = 4000;
        let n = p.schedule(7, horizon).len() as f64;
        let rate = n / horizon as f64;
        assert!(
            (rate - lambda).abs() < 0.1 * lambda,
            "empirical rate {rate} vs lambda {lambda}"
        );
    }

    #[test]
    fn bursty_silence_has_no_arrivals() {
        let p = ArrivalProcess::Bursty {
            on_ticks: 10,
            off_ticks: 30,
            lambda_on: 2.0,
            lambda_off: 0.0,
        };
        let sched = p.schedule(11, 800);
        assert!(!sched.is_empty());
        assert!(
            sched.iter().all(|&t| t % 40 < 10),
            "arrival outside an ON window"
        );
        assert!((p.mean_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_scenario_covers_all_priorities_and_both_lanes() {
        let s = OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda: 1.0 }, 100);
        let mut ranks = [false; 3];
        let mut lanes = (false, false);
        for c in &s.classes {
            ranks[c.priority.rank()] = true;
            match c.kind {
                ClassKind::Decode { .. } => lanes.0 = true,
                ClassKind::Prefill { .. } => lanes.1 = true,
            }
        }
        assert_eq!(ranks, [true; 3]);
        assert!(lanes.0 && lanes.1);
        assert!(s.mean_units_per_arrival() > 1.0);
    }

    #[test]
    fn arrivals_assign_classes_deterministically() {
        let s = OverloadScenario::mixed_slo(ArrivalProcess::Poisson { lambda: 1.0 }, 200);
        let g = OpenLoopGenerator::new(5, s);
        let a = g.arrivals();
        let b = g.arrivals();
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.class < g.scenario.classes.len()));
        // The weighted mix should hit more than one class.
        let first = a[0].class;
        assert!(a.iter().any(|x| x.class != first));
    }
}

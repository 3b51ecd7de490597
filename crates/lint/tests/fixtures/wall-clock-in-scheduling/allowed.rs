// Fixture: parameter-passed time and allowed metrics sampling pass.

use std::time::Instant;

pub fn dispatch_at(now: Instant) -> Instant {
    now
}

pub fn sample_metrics() -> Instant {
    // lint: allow(wall-clock-in-scheduling) -- fixture: metrics sampling only, never reaches a scheduling decision
    Instant::now()
}

pub fn latency_us(submitted: Instant, now: Instant) -> u128 {
    // `elapsed` as a plain name or field is not a clock read.
    let elapsed = now.saturating_duration_since(submitted);
    elapsed.as_micros()
}

pub fn hold_time(acquired: Instant) -> u128 {
    // lint: allow(wall-clock-in-scheduling) -- fixture: contention metrics only, never reaches a scheduling decision
    acquired.elapsed().as_nanos()
}

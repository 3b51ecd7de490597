// Fixture: wall-clock reads in scheduling code fire.

use std::time::Instant;
use std::time::SystemTime; //~ wall-clock-in-scheduling

pub fn dispatch() -> Instant {
    Instant::now() //~ wall-clock-in-scheduling
}

pub fn stamp() -> SystemTime { //~ wall-clock-in-scheduling
    SystemTime::now() //~ wall-clock-in-scheduling
}

pub fn waited(since: Instant) -> u128 {
    since.elapsed().as_micros() //~ wall-clock-in-scheduling
}

//! The harness's one clock: host nanoseconds since its first reading.
//!
//! Every timing in the harness reads this clock, so wall-clock access sits
//! in one place, apart from everything that produces simulated results.

use std::sync::OnceLock;
// prestage: allow(wallclock-in-sim, the benchmark harness measures host time and no simulated result reads it)
use std::time::Instant;

// prestage: allow(wallclock-in-sim, the benchmark harness measures host time and no simulated result reads it)
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the harness first read the clock.
pub fn now() -> u64 {
    // prestage: allow(wallclock-in-sim, the benchmark harness measures host time and no simulated result reads it)
    let origin = ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_nanos() as u64
}

/// Nanoseconds elapsed since `start` (a [`now`] reading).
pub fn since(start: u64) -> u64 {
    now().saturating_sub(start)
}

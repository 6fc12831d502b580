//! The two clocks of the benchmark, in seconds.
//!
//! The gated times are *process CPU time*: what every thread of this
//! process, the in-process `serve` daemon's included, spent on the CPU.
//! On a shared host, wall time also counts the time the process waits
//! for a CPU that other tenants hold, and that wait is not proportional
//! to the work: it inflates a long operation more than the short native
//! run timed right after it. CPU time leaves the wait out. The spans of
//! the traced run and the printed absolute latencies are wall time.

use std::ffi::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time of the whole process so far.
pub fn cpu() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Monotonic wall time since the first call.
pub fn wall() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

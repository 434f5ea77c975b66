//! The benchmark's clock: CPU time of the calling thread.
//!
//! Every op runs on one thread and never waits on I/O, so its thread CPU
//! time is the host time the simulator spent on it, minus the time the
//! thread sat descheduled while other processes ran. On a shared machine
//! that wait is the largest source of run-to-run noise.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time consumed so far by the calling thread.
///
/// # Panics
/// Panics if the kernel rejects the thread CPU-time clock, which Linux
/// has supported since 2.6.12.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of this target, and the clock id is a constant the kernel
    // defines; `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is not negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec is below 10^9");
    Duration::new(secs, nanos)
}

/// Wall time since first use, where no thread CPU-time clock is wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// Seconds of thread CPU time `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu();
    let out = f();
    (out, (thread_cpu() - t0).as_secs_f64())
}

//! What one call costs: its wall time and the CPU time the whole process
//! spent on it; and the clock rate the CPU ran at.
//!
//! The gated load metrics are CPU time. The reference machine is a
//! 2-vCPU guest whose hypervisor at times gives 5–30% of the CPUs to
//! other guests, for minutes on end. The guest kernel keeps that stolen
//! time out of its tasks' clocks (paravirtual steal accounting), so a
//! thread's CPU clock stands still while its vCPU is stolen, where the
//! wall clock runs on: between two sets of runs of the same code the
//! median wall-clock p99 of the router workloads moved by 31–240%.
//!
//! The router answers a batch on shard threads it spawns. A running
//! thread's CPU time reaches the process clock only when the kernel next
//! updates it, at the latest when the thread exits, so a reading taken
//! the moment the batch returns misses some of it and the next call gets
//! it. [`Meter::stop`] therefore reads the calling thread's own clock when
//! the call returns, then waits, untimed, until the threads the call
//! started have exited, and only then reads the process clock: the cost
//! is the caller's CPU time during the call plus every other thread's
//! since the call began.
//!
//! CPU time still follows the rate the core runs at, which rises when
//! the host's other cores are idle. [`probe`] measures that rate; the
//! gated figures are CPU times scaled to [`REF_NS_PER_STEP`].

use std::time::{Duration, Instant};

/// Longest wait for a call's threads to exit before the process clock is
/// read anyway.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Wall time and CPU time of one call.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub start: Instant,
    pub end: Instant,
    /// CPU time of every thread of the process, spent on the call.
    pub cpu: Duration,
}

impl Cost {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// Measures one call: [`Meter::start`] before it, [`Meter::stop`] after.
pub struct Meter {
    start: Instant,
    thread: Duration,
    process: Duration,
    threads: Option<usize>,
}

impl Meter {
    pub fn start() -> Meter {
        let threads = threads();
        let process = process_cpu();
        let thread = thread_cpu();
        Meter {
            start: Instant::now(),
            thread,
            process,
            threads,
        }
    }

    pub fn stop(self) -> Cost {
        let end = Instant::now();
        let own = thread_cpu().saturating_sub(self.thread);
        if let Some(before) = self.threads {
            let give_up = end + MAX_WAIT;
            while threads().is_some_and(|n| n > before) && Instant::now() < give_up {
                std::thread::yield_now();
            }
        }
        // The caller's CPU time while it waited is in both readings.
        let waited = thread_cpu().saturating_sub(self.thread);
        let others = process_cpu()
            .saturating_sub(self.process)
            .saturating_sub(waited);
        Cost {
            start: self.start,
            end,
            cpu: own + others,
        }
    }
}

/// Runs `f` under a [`Meter`].
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let m = Meter::start();
    let out = f();
    (out, m.stop())
}

/// [`probe`] on a core that runs at 2.5 GHz: three cycles a step. The
/// gated CPU times are scaled to this clock rate.
pub const REF_NS_PER_STEP: f64 = 1.2;

/// CPU nanoseconds per step of a dependent chain of three one-cycle
/// integer operations, over about a million steps: three over the clock
/// rate the calling thread ran at.
pub fn probe() -> f64 {
    const STEPS: u64 = 1 << 20;
    let t0 = thread_cpu();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..STEPS {
        x = (x.rotate_left(5) ^ i).wrapping_add(0x632B_E5AB);
    }
    std::hint::black_box(x);
    thread_cpu().saturating_sub(t0).as_nanos() as f64 / STEPS as f64
}

/// Threads of this process (field 20 of `/proc/self/stat`), where the OS
/// says.
fn threads() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields after it don't.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(17)?.parse().ok()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    pub fn read(clock: i32) -> Duration {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable timespec (two 64-bit fields on this
        // target) and the clock ids are Linux's CPU-time clocks.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return Duration::ZERO;
        }
        Duration::new(ts.sec as u64, ts.nsec as u32)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu() -> Duration {
    sys::read(sys::PROCESS)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Duration {
    sys::read(sys::THREAD)
}

/// Without the CPU clocks, CPU time falls back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu() -> Duration {
    wall_since_start()
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Duration {
    wall_since_start()
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wall_since_start() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until the calling thread has had `d` of CPU time.
    fn spin(d: Duration) -> u64 {
        let t = thread_cpu();
        let mut x = 0u64;
        while thread_cpu() - t < d {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        x
    }

    #[test]
    fn counts_the_cpu_time_of_threads_the_call_spawned() {
        let work = Duration::from_millis(5);
        let (_, c) = measure(|| {
            let hs: Vec<_> = (0..2)
                .map(|_| std::thread::spawn(move || spin(work)))
                .collect();
            hs.into_iter().map(|h| h.join().expect("spin")).sum::<u64>()
        });
        // Other tests may run in this process at the same time and only
        // add to the figure, so only its lower end is checked.
        assert!(c.cpu >= 2 * work, "{c:?}");
    }
}

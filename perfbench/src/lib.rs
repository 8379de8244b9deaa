//! End-to-end benchmark of c3rs: time to solution of the paper's
//! applications under checkpointing and failure, attributed across the
//! layers simmpi, core, statesave, ckptpipe and ckptstore.
//!
//! Every measurement is a complete `run_job` (or a call into one layer's
//! public API) made from this crate; no program source is instrumented.
//! An untraced run times the workload's own job with nothing attached
//! and prints the end-to-end metrics. A traced run prints the per-layer
//! metrics: the paper's instrumentation ladder, recovery twins, a job
//! with a `TraceSink` checked by c3verify, and a job on a timing storage
//! decorator whose committed state feeds the statesave, ckptpipe and
//! ckptstore timings. `perfbench/run.py` builds and runs it; see
//! `BENCHMARK.json` for the workloads and metrics.

pub mod bench;
pub mod report;
pub mod stats;
pub mod timing;
pub mod workload;

/// Restrict the calling thread, and every thread and process it starts
/// after this call, to the highest-numbered CPU it may run on. Call it
/// before the process starts any thread. Returns that CPU, or `None`
/// where the platform offers no affinity call or the call failed.
///
/// On a virtual machine with two vCPUs shared with other guests, a job
/// whose rank threads wake each other across vCPUs runs 1.3–2.6 s on
/// Neurosys from one job to the next: a wake-up of an idle vCPU can wait
/// for the host's scheduler. On one CPU the same jobs run 0.78–0.91 s,
/// so the timed figure follows the program's work, not the host.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        /// A `cpu_set_t` of 1024 CPUs, glibc's default size.
        type CpuSet = [u64; 16];
        extern "C" {
            fn sched_getaffinity(
                pid: i32,
                size: usize,
                mask: *mut CpuSet,
            ) -> i32;
            fn sched_setaffinity(
                pid: i32,
                size: usize,
                mask: *const CpuSet,
            ) -> i32;
        }
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer
        // and `size` is its size; pid 0 names this thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..size * 8)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live `cpu_set_t`-sized buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`), or
/// `None` where the platform does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14
        /// `long`s, of which `ru_maxrss` (in KiB) is the first.
        #[repr(C)]
        struct RUsage {
            times: [i64; 4],
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut usage = RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value with the layout of
        // the C `struct rusage` on this target, and getrusage writes at
        // most that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

//! Keep `churn`'s two threads on one CPU.
//!
//! `churn` is a closed loop: the client sleeps while the serving writer
//! applies a batch, and the writer sleeps while the client reads, so only one
//! of the two ever runs. Left to the scheduler they sit on two CPUs that each
//! go idle and are woken 70 times a second; on a guest of a shared host an
//! idle virtual CPU is handed back to the host, and how long the host takes
//! to give it back — up to milliseconds when its neighbours are busy, and
//! different from one minute to the next — lands in every write's latency,
//! that is in `latency_ms_p99`. On one CPU the hand-over is a context switch
//! and the CPU never goes idle, as in the three single-threaded workloads.

/// Restrict the calling thread, and every thread it starts from now on, to
/// the last CPU it is allowed on. Returns that CPU, or `None` where the
/// affinity cannot be read or set (the run goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's cpu_set_t: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `size` bytes naming one allowed CPU.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    /// A thread started after pinning inherits the one CPU.
    #[test]
    fn pins_this_thread_and_its_children() {
        // In a thread of its own, so the test harness's threads stay free.
        std::thread::spawn(|| {
            let Some(cpu) = super::pin_to_one_cpu() else {
                return;
            };
            assert_eq!(super::pin_to_one_cpu(), Some(cpu), "idempotent");
            let child = std::thread::spawn(super::pin_to_one_cpu);
            assert_eq!(child.join().expect("child ran"), Some(cpu));
        })
        .join()
        .expect("pinned thread ran");
    }
}

//! Pin the process to one CPU before any thread exists.
//!
//! `seqdet_exec::Executor::map` spawns OS threads per call, one per visible
//! CPU, and the server sizes its worker pool the same way: unpinned, what a
//! run measures depends on the CPU count and the scheduler of whatever box
//! runs it (the issue's probe on this 2-vCPU box saw `query_p50_us` settle
//! into one of two modes 1.5x apart). Pinned to one CPU,
//! `available_parallelism()` reports 1, the executor runs inline, and the
//! closed-loop HTTP client alternates with the server worker instead of
//! contending with it. Intra-query parallelism is therefore not measured;
//! see the README's known limits.

/// Words in the affinity mask handed to the kernel: 16 x 64 = 1024 CPUs,
/// glibc's `cpu_set_t` size.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling process to the highest CPU of its inherited mask and
/// verify that the standard library then sees exactly one CPU. Must run
/// before any thread is spawned: threads inherit the mask at creation.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes and
    // pid 0 names the calling thread; the kernel writes at most `bytes`.
    let rc = unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + (63 - w.leading_zeros() as usize))
        .ok_or("inherited affinity mask is empty")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the kernel
    // only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    match std::thread::available_parallelism().map(|n| n.get()) {
        Ok(1) => Ok(cpu),
        other => Err(format!("pinned to cpu {cpu} but available_parallelism() = {other:?}")),
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning needs Linux sched_setaffinity".to_owned())
}

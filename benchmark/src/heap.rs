//! Heap bytes in use, read from the allocator at quiet points.
//!
//! `VmHWM` was meant to be the memory metric, but on stores this small it
//! does not repeat: the same seed gave 124 and 146 MiB on `wide_cold`, and
//! over ten seeds the spread was 0.19-0.28 — allocator retention and heap
//! layout, not the program's demand. A counting `#[global_allocator]`
//! repeats exactly but taxes the allocation-heavy query path by 15-25 %.
//! glibc already keeps the count: `mallinfo2()` reports the bytes handed out
//! and not yet freed, costs nothing between readings, and moves when a
//! change keeps more in memory. It is a level, not a peak: what a phase
//! allocates and frees again between two readings is not seen. `VmHWM`
//! stays as the ungated per-layer metric `process.peak_rss_mb`.

/// glibc's `struct mallinfo2`: ten `size_t` fields.
#[repr(C)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    /// Bytes in `mmap`ped blocks.
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    /// Bytes in in-use blocks of the arenas.
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallinfo2() -> Mallinfo2;
}

/// Heap bytes currently allocated and not freed, over all arenas.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn live_bytes() -> usize {
    // SAFETY: `mallinfo2` takes no arguments, returns its struct by value
    // (declared above field for field as in <malloc.h>) and only reads the
    // allocator's own bookkeeping under the allocator's locks.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn live_bytes() -> usize {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn a_live_allocation_shows() {
        let before = super::live_bytes();
        // `black_box`: an optimised build would otherwise drop the unused block.
        let block = std::hint::black_box(vec![1u8; 8 << 20]);
        let with = super::live_bytes();
        // Half the block: the other tests allocate and free meanwhile.
        assert!(with >= before + (4 << 20), "{before} -> {with}");
        drop(block);
        assert!(super::live_bytes() < with);
    }
}

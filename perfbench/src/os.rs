//! The two operating-system calls the benchmark makes: peak memory, and
//! pinning the process to one CPU. Linux on 64-bit targets.

#[repr(C)]
struct RUsage {
    /// `ru_utime` and `ru_stime` (two `timeval`s), then fourteen `long`s
    /// starting with `ru_maxrss`.
    fields: [i64; 18],
}

/// Linux's `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Peak resident set size of this process in MB (the kernel's
/// high-water mark, the same figure as `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable buffer laid out as Linux's
    // `struct rusage` on 64-bit targets (18 machine words), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.fields[4] as f64 / 1024.0
}

/// Pin this process, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> usize {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size, &mut allowed) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .expect("the process may run on at least one CPU");
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes naming a
    // CPU from the allowed set, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size, &one) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    cpu
}

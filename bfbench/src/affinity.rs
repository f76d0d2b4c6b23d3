//! The whole run on one CPU.
//!
//! Every statement is a chain of thread hand-offs (client, poller, worker,
//! client). Spread over the host's two virtual CPUs each hand-off is a
//! wake-up of the other CPU, and what that costs is decided by the
//! hypervisor, not by the program: on one commit and one seed the NewOrder
//! median read 3.8 ms for ten runs and 5.4 ms for ten others. On one CPU a
//! hand-off is a context switch, the median is 3.4 ms with ten seeds
//! spanning 3 % of it, and throughput is higher than on two CPUs in either
//! regime, so nothing the program does in parallel is lost to the
//! measurement. `README.md` has the numbers.

use std::os::raw::c_int;

/// Words of the kernel's CPU mask: 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuMask) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuMask) -> c_int;
}

/// Pins the calling thread, and so every thread it spawns from here on,
/// to the highest-numbered CPU it is allowed on (CPU 0 takes the host's
/// interrupts). Returns that CPU's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuMask = [0; MASK_WORDS];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // which is what the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or("the thread is allowed on no CPU")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuMask = [0; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // call only reads.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

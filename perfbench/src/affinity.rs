//! CPU pinning. On a small virtual machine, a request that wakes a
//! thread on the other vCPU pays a wake-up whose cost varies from run to
//! run by tens of percent; keeping the client and the server on one CPU
//! (and each cluster worker on its own) takes that variance out of the
//! measurement. Best effort: where the kernel refuses, nothing is pinned.

#[cfg(target_os = "linux")]
mod sys {
    /// A `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; the kernel writes at most that many bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(pid: u32, set: &CpuSet) -> bool {
        let Ok(pid) = i32::try_from(pid) else { return false };
        // SAFETY: `set` is a live buffer of exactly the size passed; the
        // kernel only reads from it.
        unsafe { sched_setaffinity(pid, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// The CPUs this process may run on, ascending (empty if unknown).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    if let Some(set) = sys::get() {
        return (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect();
    }
    Vec::new()
}

/// Pins process `pid` (0: the calling thread; threads it spawns later
/// inherit the pin) to `cpu`. Returns whether the kernel accepted.
pub fn pin(pid: u32, cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    if cpu < 16 * 64 {
        let mut set: sys::CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        return sys::set(pid, &set);
    }
    let _ = (pid, cpu);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_calling_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        // A scoped thread, so the test harness's other threads keep their
        // affinity.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(pin(0, cpus[0]));
                assert_eq!(allowed_cpus(), vec![cpus[0]]);
            });
        });
    }
}

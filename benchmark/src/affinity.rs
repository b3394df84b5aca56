//! Runs a cluster on one CPU.
//!
//! The sandbox this benchmark is judged on gives it two virtual CPUs of a
//! shared host, and a repetition has five busy threads (four replica loops
//! and the generator). Spread over both vCPUs, every consensus step wakes a
//! thread on the other one, and whenever the host takes either vCPU away the
//! step waiting on it stalls all of them: at 35–50 % steal `spend_closed`
//! ran at a quarter of its quiet throughput. On one vCPU the threads take
//! turns, the vCPU never idles inside a closed loop's window, and the host's
//! interference costs little more than its own share (the README's "How
//! steady it is" has the interleaved comparison).

use std::ffi::c_int;
use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

fn get() -> io::Result<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer whose size
    // is passed alongside; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(set)
}

fn set(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer whose size is passed
    // alongside; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// While this lives, the calling thread — and every thread it spawns, which
/// inherit its mask — may run only on the highest-numbered CPU the thread was
/// allowed before (the lowest-numbered one takes the machine's interrupts).
/// Dropping it gives the calling thread its old mask back.
pub struct OneCpu {
    before: CpuSet,
    /// The CPU chosen.
    pub cpu: usize,
}

impl OneCpu {
    /// Pins the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates a failing `sched_getaffinity` / `sched_setaffinity`.
    pub fn pin() -> io::Result<OneCpu> {
        let before = get()?;
        let cpu = (0..1024)
            .rev()
            .find(|&cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one)?;
        Ok(OneCpu { before, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set(&self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_to_one_cpu_and_drop_restores() {
        let before = get().unwrap();
        let pinned = OneCpu::pin().unwrap();
        let during = get().unwrap();
        assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(during[pinned.cpu / 64] >> (pinned.cpu % 64) & 1, 1);
        let inherited = std::thread::spawn(get).join().unwrap().unwrap();
        assert_eq!(inherited, during);
        drop(pinned);
        assert_eq!(get().unwrap(), before);
    }
}

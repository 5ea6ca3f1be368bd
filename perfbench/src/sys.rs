//! Process accounting from `/proc`, plus the few libc calls `std` does
//! not expose (`ppoll`, process CPU clock, clock-tick rate, timer slack).

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// CPU ticks a process has used, from `/proc/<pid>/stat` (all threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// User-mode ticks (field 14).
    pub utime: u64,
    /// Kernel-mode ticks (field 15).
    pub stime: u64,
}

impl CpuTicks {
    /// User plus kernel ticks.
    pub fn total(&self) -> u64 {
        self.utime + self.stime
    }
}

/// Parses the utime/stime fields of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the command: state is field 3, so utime (14) is the 12th
    // whitespace-separated field of the rest and stime (15) the 13th.
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTicks { utime, stime })
}

/// Reads a process's CPU ticks.
pub fn read_cpu(pid: u32) -> io::Result<CpuTicks> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| io::Error::other(format!("unparseable /proc/{pid}/stat")))
}

/// CPU milliseconds per unit of work between two on-CPU readings in ns.
pub fn cpu_ms_per_unit(before_ns: u64, after_ns: u64, units: u64) -> f64 {
    assert!(units > 0, "cpu_ms_per_unit: zero units");
    after_ns.saturating_sub(before_ns) as f64 / 1e6 / units as f64
}

/// Nanoseconds on CPU of one thread, the first field of
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Nanoseconds on CPU summed over a process's live threads: the
/// nanosecond-resolution counterpart of [`read_cpu`]. Threads that
/// already exited are not counted, so only compare two snapshots taken
/// while the same threads run.
pub fn read_run_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(&path) {
            total += parse_schedstat_ns(&text)
                .ok_or_else(|| io::Error::other(format!("unparseable {}", path.display())))?;
        }
    }
    Ok(total)
}

/// A process's CPU use at one instant, in both resolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSnapshot {
    /// User/kernel split, in ticks.
    pub ticks: CpuTicks,
    /// Total on-CPU time of the live threads, ns.
    pub run_ns: u64,
}

/// Snapshots a process's CPU use.
pub fn snapshot(pid: u32) -> io::Result<CpuSnapshot> {
    Ok(CpuSnapshot {
        ticks: read_cpu(pid)?,
        run_ns: read_run_ns(pid)?,
    })
}

/// Kernel share of the CPU used between two snapshots.
pub fn sys_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total().saturating_sub(before.total());
    if total == 0 {
        return 0.0;
    }
    after.stime.saturating_sub(before.stime) as f64 / total as f64
}

/// Peak resident set (`VmHWM`) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of a process in MiB.
pub fn read_peak_rss_mib(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib = parse_vm_hwm_kib(&text)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))?;
    Ok(kib as f64 / 1024.0)
}

/// Resets this process's peak resident set to its current one, so the
/// next [`read_peak_rss_mib`] reports the peak since now.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Host-wide steal ticks (8th value of the `cpu` line of `/proc/stat`).
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Reads the host's steal ticks, `None` where `/proc/stat` lacks them.
pub fn read_steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

/// CPU time of this process, all threads, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_PROCESS_CPUTIME_ID is always supported on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Caps glibc at one malloc arena for this process. With the default
/// (one arena per thread that meets contention) a pass's peak RSS
/// depends on which arena each `par` worker landed in: 20, 23 or
/// 25 MiB from pass to pass on identical work.
pub fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt takes two integers and changes allocator tuning
    // only; it is called before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Sends SIGKILL to a process.
pub fn kill(pid: u32) {
    const SIGKILL: i32 = 9;
    let Ok(pid) = i32::try_from(pid) else { return };
    // SAFETY: kill takes two integers and touches no memory of this
    // process; a pid that no longer exists only yields ESRCH.
    unsafe {
        libc_kill(pid, SIGKILL);
    }
}

/// Asks the kernel to wake this thread's timed sleeps within 1 µs
/// (default slack is 50 µs), so the load generator sends on schedule.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
    // only this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

/// Waits until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits forever). Returns the count of ready descriptors.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a valid mutable slice of `struct pollfd` of the
    // length passed; `ts_ptr` is null or points at `ts`, which outlives
    // the call; a null sigmask keeps the current mask.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stat line whose command name holds a space and a parenthesis,
    /// with utime = 1200 and stime = 300 ticks.
    const BEFORE: &str = "4242 (rdrp cli) (x) S 1 4242 4242 0 -1 4194560 512 0 0 0 \
                          1200 300 0 0 20 0 3 0 100 10000000 900 18446744073709551615";
    const AFTER: &str = "4242 (rdrp cli) (x) S 1 4242 4242 0 -1 4194560 530 0 0 0 \
                         1560 440 0 0 20 0 3 0 100 10000000 950 18446744073709551615";

    #[test]
    fn kernel_share_from_two_stat_snapshots() {
        let a = parse_stat(BEFORE).unwrap();
        let b = parse_stat(AFTER).unwrap();
        assert_eq!(
            a,
            CpuTicks {
                utime: 1200,
                stime: 300
            }
        );
        assert_eq!(
            b,
            CpuTicks {
                utime: 1560,
                stime: 440
            }
        );
        // 140 of the 500 ticks were kernel time.
        assert!((sys_share(a, b) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn cpu_per_request_from_schedstat_snapshots() {
        // Two threads' schedstat lines before and after 40 000 requests.
        let before: u64 = ["1500000000 20000 90", "250000000 1000 10"]
            .iter()
            .map(|t| parse_schedstat_ns(t).unwrap())
            .sum();
        let after: u64 = ["4100000000 90000 400", "1050000000 3000 30"]
            .iter()
            .map(|t| parse_schedstat_ns(t).unwrap())
            .sum();
        // 3.4 s of CPU over 40 000 requests = 0.085 ms per request.
        let per = cpu_ms_per_unit(before, after, 40_000);
        assert!((per - 0.085).abs() < 1e-12, "{per}");
        let own = read_run_ns(std::process::id()).unwrap();
        assert!(own > 0);
    }

    #[test]
    fn vm_hwm_and_steal_parse() {
        let status = "Name:\trdrp-cli\nVmPeak:\t  9000 kB\nVmHWM:\t    4032 kB\nVmRSS:\t 3900 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(4032));
        let stat = "cpu  10 20 30 40 50 60 70 88 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(88));
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0, "{x}");
    }
}

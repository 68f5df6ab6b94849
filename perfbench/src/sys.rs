//! The few Linux calls the standard library does not expose: waiting on
//! one socket with a nanosecond timeout (`ppoll`), the process's CPU time
//! (`getrusage`), and its resident-set high-water mark (`/proc/self`).

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux: two timevals, then fourteen
/// longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// Block until `fd` is readable (or writable, when `want_write`), or
/// until `timeout` passes. Returns whether it is readable; error and
/// hang-up conditions report as readable so the caller's next read
/// surfaces them.
pub fn wait(fd: RawFd, want_write: bool, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` is one valid, initialised pollfd that outlives the
    // call and `nfds` is 1; `ts` is a valid timespec that lives until the
    // call returns; a null sigmask leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(err);
    }
    Ok(pfd.revents & !POLLOUT != 0)
}

fn rusage() -> RUsage {
    let mut usage = RUsage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` with the
    // Linux layout declared above; RUSAGE_SELF needs nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

/// User plus system CPU time consumed by the whole process so far.
pub fn process_cpu() -> Duration {
    let u = rusage();
    let micros = |tv: &Timeval| tv.tv_sec as u64 * 1_000_000 + tv.tv_usec as u64;
    Duration::from_micros(micros(&u.utime) + micros(&u.stime))
}

/// Reset the process's resident-set high-water mark to its current
/// resident set (`echo 5 > /proc/self/clear_refs`).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset the peak RSS through /proc/self/clear_refs");
}

/// Peak resident set size of the process since start or the last
/// [`reset_peak_rss`], in bytes (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .expect("/proc/self/status has a VmHWM line in kB")
        * 1024
}

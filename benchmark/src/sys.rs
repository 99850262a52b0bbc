//! The host side of a run: confinement to one CPU, CPU-time clocks, the
//! `/proc` counters the report reads, the calibration kernel and the
//! environment record.
//!
//! Linux only. The three libc calls go through std's own libc linkage, the
//! same `extern "C"` pattern `crates/serve/src/poller.rs` uses.

use std::path::Path;
use std::time::Instant;

/// `cpu_set_t`: 1024 CPUs, as glibc defines it.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// The kernel's default timer slack: how much later than asked a sleep may
/// end so that wake-ups can be batched.
pub const DEFAULT_TIMER_SLACK_NS: u64 = 50_000;

/// Sets the calling thread's timer slack. The generator lowers it for the
/// paced phase only — the default adds 50 µs of the harness's own lateness to
/// every probe — and restores it afterwards; threads spawned meanwhile would
/// inherit it, and none are.
pub fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's scheduling parameters.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
}

/// Confines the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU of its allowed set, and verifies the result in
/// `/proc/self/status`. Call before any thread is spawned. Returns the CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return Err("the benchmark pins itself with sched_setaffinity: 64-bit Linux only".into());
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] & (1u64 << (c % 64)) != 0)
        .ok_or("the allowed CPU set is empty")?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed; the call
    // only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let listed = proc_status_field("/proc/self/status", "Cpus_allowed_list")
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    if listed != cpu.to_string() {
        return Err(format!(
            "asked for CPU {cpu} but Cpus_allowed_list reads {listed:?}"
        ));
    }
    Ok(cpu)
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on the
    // 64-bit Linux targets `pin_to_one_cpu` admits); the clock ids are
    // constants the kernel defines for every process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the whole process has consumed, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has consumed, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The value of `field` in a `/proc/<..>/status`-style file, trimmed.
pub fn proc_status_field(path: &str, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == field).then(|| value.trim().to_string())
    })
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Voluntary plus involuntary context switches of every thread of this
/// process (`/proc/self/status` alone only counts the main thread).
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = task.path().join("status");
            let status = status.to_string_lossy();
            ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"]
                .iter()
                .filter_map(|f| proc_status_field(&status, f)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// A fixed single-thread kernel of about 200 ms on the sizing sandbox,
/// timed before and after a run. Recorded so that a noisy-host run can be
/// recognised; never used to normalise a metric.
pub fn calibration_ms() -> f64 {
    const ROUNDS: u64 = 90_000_000;
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// The filesystem type of the mount that holds `path`, from
/// `/proc/self/mountinfo` (the longest mount point that is a prefix).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            let fs_type = tail.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what a run happened, as one line for the report: git rev
/// (`unknown` outside a git checkout), `rustc -V`, the CPUs the process could
/// use before it pinned itself (`nproc`, read by the caller before pinning),
/// `Cpus_allowed_list` after pinning, and the filesystem under the WAL
/// directory (`tmpfs` or a real disk).
pub fn environment(nproc: usize, wal_parent: &Path) -> String {
    format!(
        "git {} | {} | nproc {nproc} | Cpus_allowed_list {} | wal dir on {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        proc_status_field("/proc/self/status", "Cpus_allowed_list")
            .unwrap_or_else(|| "unknown".into()),
        filesystem_of(wal_parent)
    )
}

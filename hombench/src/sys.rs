//! What the run was measured on: CPU count, process CPU time, peak
//! resident memory, and which source tree was built.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `available_parallelism`, as recorded with every result.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Restricts the process to one CPU (the highest-numbered it may use)
/// and returns that CPU. Threads spawned afterwards, the in-process
/// server's included, inherit the restriction. On a small virtual
/// machine, letting the client and server threads wake each other
/// across CPUs made served throughput swing by a factor of three from
/// run to run; on one CPU it holds within a few percent.
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t` on Linux: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the call only reads it. pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    ok.then_some(cpu)
}

/// Linux exposes process times in `/proc` in units of `USER_HZ`, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, the
/// in-process server's included), in seconds. Resolution 10 ms.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick count") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of the process so far, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Resets the process's peak resident set size to its current resident
/// size (`5` to `/proc/self/clear_refs`), so the next
/// [`rss_peak_mb`] reads the peak since this call.
pub fn reset_rss_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The git revision of the working directory when it is a checkout
/// with history, else `"none"`.
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a over the paths and contents of every source file the
/// benchmark builds (`Cargo.*`, `crates/`, `vendor/`, `hombench/`),
/// in sorted order: identifies the measured code when the checkout
/// carries no git history.
pub fn source_fingerprint() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "hombench"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            // Skip build output a developer may have left in-tree.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

//! Host stamp and process memory.

use std::process::{Command, Stdio};
use std::time::Instant;

/// The host clock. Every timing the benchmark takes starts here; no
/// reading feeds a program input.
pub fn now() -> Instant {
    // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): benchmark timing is the measurement itself; clock readings are reported, never passed to the programs under test
    Instant::now()
}

/// Runs `program args` and returns its trimmed stdout, if it succeeded.
/// Git may not search above the working directory: the stamp describes
/// this checkout or nothing.
fn capture(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, `rustc -V` and the git revision (with a dirty flag), as one
/// line. Outside a git checkout the revision reads `none`.
pub fn stamp() -> String {
    // mppm-lint: allow(taint-nondet-to-result): the host stamp is printed for the reader and feeds no program input
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = capture("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let rev = match capture("git", &["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => {
            let dirty = capture("git", &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        None => "none".to_string(),
    };
    format!("nproc={nproc} rustc=\"{rustc}\" git={rev}")
}

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of process `pid` (this process when
/// `None`), in seconds, threads that already exited included.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 per second on
    // Linux).
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let system: f64 = fields.next()?.parse().ok()?;
    Some((user + system) / 100.0)
}

//! Bad input to the one-shot verbs: the daemon's checks and messages,
//! the documented exit codes, no panic, and no store or socket touched.
//!
//! One `#[test]` on purpose: it compares the shared store directory
//! before and after, which a parallel test writing profiles would race.

use std::path::{Path, PathBuf};
use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_mppm-cli");

/// Every file under `dir` with its length (empty when `dir` does not
/// exist).
fn snapshot(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                pending.push(entry.path());
            } else {
                files.push((entry.path(), meta.len()));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn bad_requests_exit_with_the_daemons_checks_before_any_work() {
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/mppm-store");
    // No daemon listens here: a client that reached for the socket would
    // exit 6, not 2.
    let socket = std::env::temp_dir().join(format!("mppm-one-shot-{}.sock", std::process::id()));
    let socket = socket.to_str().expect("utf-8 temp path");
    let mut cases: Vec<(Vec<String>, i32, String)> = Vec::new();
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    for bw in ["0", "-2", "nan"] {
        cases.push((
            args(&format!("predict gcc,lbm --quick --bandwidth {bw}")),
            1,
            "`bandwidth` must be positive".to_string(),
        ));
    }
    for (argv, code, message) in [
        ("predict gamess,lbm --quick --partition 6,6", 1, "ways sum to 12"),
        ("predict gamess,nonesuch --quick", 1, "unknown benchmark `nonesuch`"),
        ("simulate gamess,nonesuch --quick", 1, "unknown benchmark `nonesuch`"),
        ("predict gamess,lbm --quick --contention xyz", 2, "unknown contention model"),
        ("serve --cache-cap 0", 2, "--cache-cap: `0` is not a positive integer"),
        ("serve --cache-cap x", 2, "--cache-cap: `x` is not a positive integer"),
        ("lint --only no-such-rule", 2, "unknown rule `no-such-rule`"),
        ("count 2 extra", 2, "unexpected argument `extra` for `count`"),
        ("record gcc extra --out unwritten.trace --quick", 2, "unexpected argument `extra`"),
        ("list foo", 2, "unexpected argument `foo` for `list`"),
    ] {
        cases.push((args(argv), code, message.to_string()));
    }
    for flag in ["cores", "sample", "seed", "shard-size", "trials"] {
        let refusal = format!("--{flag} must be at least 1");
        cases.push((args(&format!("campaign --quick --{flag} 0")), 2, refusal.clone()));
        cases.push((
            args(&format!("client campaign --quick --{flag} 0 --socket {socket}")),
            2,
            refusal,
        ));
    }

    let before = snapshot(&store);
    for (argv, code, message) in &cases {
        let out = Command::new(CLI).args(argv).output().expect("run mppm-cli");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{argv:?}: {stderr}");
        assert!(stderr.contains(message.as_str()), "{argv:?}: expected `{message}` in {stderr}");
        assert!(
            !stdout.contains("panicked") && !stderr.contains("panicked"),
            "{argv:?}: {stderr}"
        );
    }
    assert_eq!(snapshot(&store), before, "a refused request wrote to the store");
}

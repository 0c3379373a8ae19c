//! A reader that closes the pipe early (`mppm-cli … | head -3`) ends
//! `mppm-cli` quietly: exit 141, as for a SIGPIPE-killed tool, with no
//! panic message.

use std::process::{Command, Stdio};

const CLI: &str = env!("CARGO_BIN_EXE_mppm-cli");

#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    for argv in [&["help"][..], &["lint", "--help"], &["count", "4"]] {
        // The read end is gone before the child starts, so its first
        // write meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(CLI)
            .args(argv)
            .stdout(Stdio::from(writer))
            .stderr(Stdio::piped())
            .output()
            .expect("run mppm-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{argv:?}: {stderr}");
        assert!(stderr.is_empty(), "{argv:?} printed to stderr: {stderr}");
    }
}

//! `mppmd` — the long-lived MPPM campaign/predict daemon.
//!
//! ```text
//! mppmd [--socket PATH] [--store DIR] [--cache-cap N]
//! ```
//!
//! Listens on a Unix domain socket (default `$TMPDIR/mppmd.sock`) and
//! serves `predict`, `simulate`, and `campaign` requests from one warm
//! store. Stop it with a `shutdown` request (`mppm-cli client shutdown`).

use mppm_server::{serve, ServerConfig};

const USAGE: &str = "usage: mppmd [--socket PATH] [--store DIR] [--cache-cap N]

  --socket PATH   Unix socket to listen on (default $TMPDIR/mppmd.sock)
  --store DIR     store root (default <workspace>/target/mppm-store)
  --cache-cap N   response-cache entry cap before LRU eviction (default 1024)";

/// Pairs each flag with its value and hands them to the daemon's one
/// flag parser, [`ServerConfig::from_flags`]. `Err("")` asks for help.
fn parse_args(argv: &[String]) -> Result<ServerConfig, String> {
    let mut flags = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        let name = arg.strip_prefix("--").ok_or_else(|| format!("unknown argument `{arg}`"))?;
        flags.push((name, it.next().map(String::as_str)));
    }
    ServerConfig::from_flags(flags)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&argv) {
        Ok(config) => config,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!("mppmd: listening on {}", config.socket.display());
    if let Err(e) = serve(&config) {
        eprintln!("error: {e}");
        // Exit code 6 is the server-error code across the toolkit
        // (mirrored by `mppm-cli`'s CliError::Server).
        std::process::exit(6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cache_cap_goes_through_the_shared_parser() {
        assert_eq!(args(&["--cache-cap", "64"]).map(|c| c.response_cache_cap), Ok(64));
        for bad in ["0", "x"] {
            assert_eq!(
                args(&["--cache-cap", bad]),
                ServerConfig::from_flags([("cache-cap", Some(bad))]),
                "the same message as `mppm-cli serve`"
            );
        }
        assert_eq!(args(&["--quick"]), Err("unknown flag --quick".to_string()));
        assert_eq!(args(&["quick"]), Err("unknown argument `quick`".to_string()));
        assert_eq!(args(&["--help"]), Err(String::new()));
    }
}

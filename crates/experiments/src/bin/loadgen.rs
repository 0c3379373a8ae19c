//! Load-generates the `mppmd` campaign/predict server and reports
//! latency percentiles and throughput, cold caches vs warm.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin loadgen --
//!         [--quick] [--clients N] [--requests N] [--socket PATH]`
//!
//! By default the harness spawns its own `mppmd` (found next to this
//! binary in the cargo target directory — build `-p mppm-server` first)
//! on a fresh store in a temp directory, so the cold phase is genuinely
//! cold, and shuts it down gracefully afterwards. `--socket PATH`
//! targets an already-running daemon instead; its caches are whatever
//! they are, so cold-phase numbers then measure that daemon's current
//! state rather than a true cold start.

use mppm_experiments::loadgen::{await_socket, request_shutdown, run_load, LoadgenOptions};
use mppm_experiments::table::{find_record, publish};
use mppm_experiments::Scale;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

struct Args {
    opts: LoadgenOptions,
    socket: Option<PathBuf>,
    /// Quick runs write their CSV and JSON under `target/quick-results/`.
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = LoadgenOptions::default();
    let mut socket = None;
    let mut scale = Scale::Full;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => {
                opts.requests_per_client = 4;
                scale = Scale::Quick;
            }
            "--clients" => {
                let v = argv.next().ok_or("--clients needs a value")?;
                opts.clients = v.parse().map_err(|_| format!("bad --clients {v}"))?;
            }
            "--requests" => {
                let v = argv.next().ok_or("--requests needs a value")?;
                opts.requests_per_client =
                    v.parse().map_err(|_| format!("bad --requests {v}"))?;
            }
            "--socket" => {
                socket = Some(PathBuf::from(argv.next().ok_or("--socket needs a path")?));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.clients < 1 || opts.requests_per_client < 1 {
        return Err("--clients and --requests must be at least 1".into());
    }
    Ok(Args { opts, socket, scale })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Either target a running daemon or spawn a private one on a fresh
    // store (the sibling `mppmd` binary in the same target directory).
    let (socket, mut child, store) = match args.socket {
        Some(socket) => (socket, None, None),
        None => {
            let exe = std::env::current_exe().expect("current_exe resolves");
            let mppmd = exe.with_file_name("mppmd");
            if !mppmd.is_file() {
                eprintln!(
                    "loadgen: {} not found; build it first with `cargo build --release -p mppm-server`",
                    mppmd.display()
                );
                std::process::exit(2);
            }
            let tag = format!("mppm-loadgen-{}", std::process::id());
            let socket = std::env::temp_dir().join(format!("{tag}.sock"));
            let store = std::env::temp_dir().join(format!("{tag}-store"));
            let _ = std::fs::remove_dir_all(&store);
            let _ = std::fs::remove_file(&socket);
            let child = Command::new(&mppmd)
                .args(["--socket", &socket.to_string_lossy(), "--store", &store.to_string_lossy()])
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("mppmd spawns");
            (socket, Some(child), Some(store))
        }
    };

    if !await_socket(&socket, Duration::from_secs(20)) {
        eprintln!("loadgen: daemon never bound {}", socket.display());
        std::process::exit(1);
    }

    let records = match run_load(&socket, &args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    let description = format!(
        "mppmd under load: {} clients x {} predict requests per phase, closed-loop cold \
         and warm, open-loop warm",
        args.opts.clients, args.opts.requests_per_client
    );
    if let Err(e) = publish(args.scale, "server", &description, &records) {
        eprintln!("warning: could not write the server records: {e}");
    }

    // Sanity gates: a fresh daemon serves the cold phase uncached and
    // every warm repeat from the response cache.
    if child.is_some() {
        let cold = find_record(&records, "cold-closed", "cached");
        let warm = find_record(&records, "warm-closed", "cached");
        if cold.median != 0.0 || warm.median != warm.n as f64 {
            eprintln!(
                "error: cache accounting off — cold served {} cached, warm {}/{}",
                cold.median, warm.median, warm.n
            );
            std::process::exit(1);
        }
    }

    if let Some(child) = child.as_mut() {
        if let Err(e) = request_shutdown(&socket) {
            eprintln!("warning: graceful shutdown failed ({e}); killing the daemon");
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    if let Some(store) = store {
        let _ = std::fs::remove_dir_all(&store);
    }
}

//! `perfbench`: the MPPM workspace's one benchmark.
//!
//! ```text
//! perfbench --workload campaign|simulate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds its inputs from `--seed`, works in a private
//! directory under `.perfbench-run/` (removed afterwards), checks the
//! programs' outputs, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) wraps the calls into each layer in benchmark-side spans
//! and reports the per-layer metrics. `perfbench/README.md` defines each
//! metric per workload and names the end-to-end metric each per-layer
//! metric should move.
//!
//! The exit code is 0 only when every correctness gate passed.

mod campaign;
mod host;
mod layers;
mod loadgen;
mod report;
mod rng;
mod serve;
mod simulate;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload campaign|simulate|serve --seed N --seconds S --trace 0|1";

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private working directory (store, journals, socket, trace).
    pub dir: PathBuf,
    /// Process start: `setup_s` runs from here to the first timed
    /// operation.
    pub started: Instant,
}

impl Run {
    fn parse(argv: &[String], started: Instant) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["campaign", "simulate", "serve"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let dir =
            PathBuf::from(".perfbench-run").join(format!("{}-{workload}", std::process::id()));
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            dir,
            started,
        })
    }
}

/// Removes a run's directory when dropped, also when a workload panics.
struct RemoveOnDrop<'a>(&'a std::path::Path);

impl Drop for RemoveOnDrop<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

fn main() {
    let started = host::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::DAEMON_ARG) {
        std::process::exit(serve::daemon_main(&argv[1..]));
    }
    let run = match Run::parse(&argv, started) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("host {}", host::stamp());
    println!(
        "workload {} seed {} seconds {} trace {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let mut report = Report::default();
    let outcome = {
        let _cleanup = RemoveOnDrop(&run.dir);
        std::fs::create_dir_all(&run.dir)
            .map_err(|e| format!("creating {}: {e}", run.dir.display()))
            .and_then(|()| match run.workload.as_str() {
                "campaign" => campaign::run(&run, &mut report),
                "simulate" => simulate::run(&run, &mut report),
                _ => serve::run(&run, &mut report),
            })
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let line = report.finish(if run.trace { &PER_LAYER } else { &END_TO_END });
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

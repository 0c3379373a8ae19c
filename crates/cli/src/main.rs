//! `mppm-cli` — command-line interface to the MPPM toolkit.
//!
//! ```text
//! mppm-cli list                         # the 29-benchmark suite, profiled
//! mppm-cli predict gamess,gamess,hmmer,soplex
//! mppm-cli simulate gamess,lbm --config 5
//! mppm-cli count 8                      # how many 8-program mixes exist
//! mppm-cli record gcc --out gcc.trace   # binary trace capture
//! ```
//!
//! Profiles and simulations are cached under `target/mppm-store`, shared
//! with the experiment binaries.

mod args;
mod error;

use args::{parse, Command, USAGE};
use error::CliError;
use mppm::classify::{classify, Thresholds};
use mppm_analyze::outln;
use mppm::mix::count_mixes;
use mppm::{Prediction, SolverScratch};
use mppm_campaign::{
    csv_bundle, design_table, histogram_table, stability_table, write_csvs, Campaign,
};
use mppm_obs::{JsonlSink, Observer, ProgressSink, Sink, Span};
use mppm_experiments::table::{f3, Table};
use mppm_experiments::{Context, Store};
use mppm_server::protocol::cli_geometry;
use mppm_sim::{llc_configs, MachineConfig};
use mppm_trace::{suite, CompiledTrace};

fn main() {
    // When re-executed as a campaign worker (`--workers N` fan-out),
    // serve shards over stdin/stdout and exit — never parse argv.
    mppm_campaign::maybe_serve();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(cmd) => {
            if let Err(e) = run(cmd) {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        }
        Err(e) => {
            // Usage errors keep the conventional exit code 2.
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn print_prediction(pred: &Prediction) {
    let mut t = Table::new(&["program", "CPI isolated", "CPI multi-core", "slowdown"]);
    for (((name, sc), mc), slow) in pred
        .names()
        .iter()
        .zip(pred.cpi_sc())
        .zip(pred.cpi_mc())
        .zip(pred.slowdowns())
    {
        t.row(vec![name.clone(), f3(*sc), f3(*mc), f3(*slow)]);
    }
    outln!("{}", t.render());
    outln!(
        "STP {:.3} (of {} ideal)   ANTT {:.3}   ({} model iterations)",
        pred.stp(),
        pred.names().len(),
        pred.antt(),
        pred.steps()
    );
}

fn run(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            outln!("{USAGE}");
            Ok(())
        }
        Command::Lint(lint) => match lint.run() {
            Ok(0) => Ok(()),
            Ok(code) => std::process::exit(code),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(mppm_analyze::cli::USAGE_ERROR);
            }
        },
        Command::Serve(config) => {
            eprintln!("mppmd: listening on {}", config.socket.display());
            mppm_server::serve(&config).map_err(CliError::from)
        }
        Command::Client { socket, request } => {
            let socket = socket
                .map(std::path::PathBuf::from)
                .unwrap_or_else(mppm_server::default_socket_path);
            let mut client = mppm_server::Client::connect(&socket)?;
            let mut request = request;
            let response = client.request(&mut request)?;
            for event in &response.events {
                eprintln!("event: {}", serde_json::to_string(event).unwrap_or_default());
            }
            eprintln!(
                "{}: cached={}{}",
                response.kind,
                response.cached,
                response
                    .meta
                    .as_ref()
                    .map(|m| format!(" meta={}", serde_json::to_string(m).unwrap_or_default()))
                    .unwrap_or_default()
            );
            // Stdout carries exactly the deterministic payload, so two
            // invocations are diffable.
            outln!(
                "{}",
                serde_json::to_string_pretty(&response.result)
                    .map_err(|e| CliError::Invalid(format!("unprintable response: {e}")))?
            );
            Ok(())
        }
        Command::Count { cores } => {
            let n = suite::spec_suite().len();
            let count =
                count_mixes(n, cores).map_err(|e| CliError::Invalid(e.to_string()))?;
            outln!("{count} distinct {cores}-program workloads over the {n}-benchmark suite");
            Ok(())
        }
        Command::List { config, quick } => {
            let store = Store::open_default()?;
            let machine = MachineConfig::baseline().with_llc(llc_configs()[config]);
            let g = cli_geometry(quick);
            eprintln!(
                "profiling the suite on LLC config #{} ({}KB {}-way, {} cycles)...",
                config + 1,
                machine.llc.size_bytes / 1024,
                machine.llc.assoc,
                machine.llc.latency
            );
            let mut t = Table::new(&[
                "benchmark",
                "CPI",
                "mem CPI",
                "LLC acc/ki",
                "LLC miss/ki",
                "class",
            ]);
            for spec in suite::spec_suite() {
                let p = store.profile(spec, &machine, g);
                t.row(vec![
                    p.name.clone(),
                    f3(p.cpi_sc()),
                    f3(p.cpi_mem()),
                    format!("{:.1}", p.apki()),
                    format!("{:.2}", p.mpki()),
                    classify(&p, Thresholds::default()).to_string(),
                ]);
            }
            outln!("{}", t.render());
            Ok(())
        }
        Command::Predict(m) => {
            let profiles = m.check()?.profiles(&Store::open_default()?)?;
            print_prediction(&m.predict(&profiles, &Span::disabled(), &mut SolverScratch::new())?);
            Ok(())
        }
        Command::Simulate(m) => {
            let mix = m.check()?;
            let store = Store::open_default()?;
            let profiles = mix.profiles(&store)?;
            eprintln!("running the detailed simulator (cached on re-runs)...");
            let record = mix.simulate(&store, &profiles);
            let pred = m.predict(&profiles, &Span::disabled(), &mut SolverScratch::new())?;

            let mut t = Table::new(&["program", "measured CPI", "predicted CPI", "err"]);
            // The record is in canonical (sorted) order; align by name
            // occurrence.
            let mut used = vec![false; record.names.len()];
            for (name, pred_cpi) in pred.names().iter().zip(pred.cpi_mc()) {
                let slot = record
                    .names
                    .iter()
                    .enumerate()
                    .position(|(i, n)| n == name && !used[i])
                    .ok_or_else(|| {
                        CliError::Invalid(format!(
                            "cached record at {:?} does not cover `{name}`; \
                             delete target/mppm-store and re-run",
                            record.names
                        ))
                    })?;
                used[slot] = true;
                let meas = record.cpi_mc[slot];
                t.row(vec![
                    name.clone(),
                    f3(meas),
                    f3(*pred_cpi),
                    format!("{:+.1}%", (pred_cpi - meas) / meas * 100.0),
                ]);
            }
            outln!("{}", t.render());
            outln!(
                "measured STP {:.3} ANTT {:.3} | predicted STP {:.3} ANTT {:.3}",
                record.stp(),
                record.antt(),
                pred.stp(),
                pred.antt()
            );
            outln!("(detailed simulation took {:.2}s)", record.sim_seconds);
            Ok(())
        }
        Command::Record { benchmark, out, quick } => {
            let spec = suite::benchmark(&benchmark)
                .ok_or_else(|| format!("unknown benchmark `{benchmark}`"))?;
            let g = cli_geometry(quick);
            let trace = CompiledTrace::compile(spec.clone(), g);
            let bytes = trace.to_bytes();
            mppm_experiments::atomic_write_bytes(std::path::Path::new(&out), &bytes)?;
            outln!(
                "recorded {} instructions ({} ops in {} phase runs, {} bytes) to {out}",
                g.trace_insns(),
                trace.ops(),
                trace.runs().len(),
                bytes.len()
            );
            Ok(())
        }
        Command::Campaign { request, trace, progress, workers, journal, bundle } => {
            let (spec, options, scale) = request.campaign();
            let ctx = Context::new(scale);
            let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
            if progress {
                sinks.push(Box::new(ProgressSink));
            }
            if let Some(path) = &trace {
                sinks.push(Box::new(JsonlSink::new(path)));
            }
            let observer =
                if sinks.is_empty() { Observer::disabled() } else { Observer::with_sinks(sinks) };
            let result = {
                let root = observer.root("campaign");
                let mut campaign =
                    Campaign::new(&spec).options(&options).workers(workers).observer(&root);
                if let Some(dir) = &journal {
                    campaign = campaign.journal(std::path::Path::new(dir));
                }
                campaign.run(&ctx)?
            };
            observer.finish()?;
            if let Some(path) = &trace {
                outln!("wrote JSONL trace to {path}");
            }
            outln!(
                "campaign {}: {} mixes x {} designs ({} cores)\n",
                result.plan_id,
                result.mixes,
                result.designs.len(),
                result.cores
            );
            outln!("{}", design_table(&result).render());
            outln!("{}", histogram_table(&result).render());
            outln!("{}", stability_table(&result).render());
            outln!(
                "shards: {} total, {} resumed, {} computed",
                result.stats.total_shards, result.stats.resumed_shards, result.stats.computed_shards
            );
            if let Some(tp) = result.stats.throughput() {
                outln!(
                    "throughput: {tp:.1} mixes/s ({} evaluations in {:.2}s)",
                    result.stats.evaluated_mixes, result.stats.compute_seconds
                );
            }
            if let Some(path) = &bundle {
                let bytes = csv_bundle(&result).into_bytes();
                mppm_experiments::atomic_write_bytes(std::path::Path::new(path), &bytes)?;
                outln!("wrote csv bundle to {path}");
            }
            // Full-scale output owns results/; quick smoke runs land in
            // target/quick-results/ to protect the committed bundle.
            let dir = mppm_experiments::table::results_dir_for(scale);
            write_csvs(&result, &dir, &mppm_campaign::RunProvenance::current(scale))?;
            outln!("wrote campaign CSVs to {}", dir.display());
            Ok(())
        }
    }
}

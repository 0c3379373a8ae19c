//! Hand-rolled argument parsing for the CLI (kept dependency-free).

use std::fmt;

/// Which contention model a prediction uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentionKind {
    /// Frequency-of-access (the paper's choice).
    Foa,
    /// Stack-distance competition.
    SdcCompetition,
    /// Simplified inductive probability.
    Prob,
    /// Static way partition with the given allocation.
    Partition(Vec<u32>),
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Show the benchmark suite with isolated-profile statistics.
    List {
        /// Table 2 LLC config, 0-based.
        config: usize,
        /// Smoke-test geometry instead of full traces.
        quick: bool,
    },
    /// Predict a mix analytically.
    Predict {
        /// Benchmark names, one per core.
        mix: Vec<String>,
        config: usize,
        quick: bool,
        contention: ContentionKind,
        /// Shared memory bandwidth (accesses/cycle), if limited.
        bandwidth: Option<f64>,
    },
    /// Run the detailed simulator on a mix and compare with the model.
    Simulate {
        /// Benchmark names, one per core.
        mix: Vec<String>,
        config: usize,
        quick: bool,
    },
    /// Print how many distinct mixes exist for `cores` programs.
    Count {
        /// Programs per mix.
        cores: usize,
    },
    /// Record one trace pass of a benchmark to a binary file.
    Record {
        /// Benchmark name.
        benchmark: String,
        /// Output path.
        out: String,
        quick: bool,
    },
    /// Run a design-space exploration campaign over the mix space.
    Campaign {
        /// Programs per mix.
        cores: usize,
        /// Table 2 LLC configs, 0-based.
        configs: Vec<usize>,
        /// Stratified sample size; `None` enumerates the full space.
        sample: Option<usize>,
        /// Sample seed (ignored without `sample`).
        seed: u64,
        /// Mixes per checkpoint shard.
        shard_size: usize,
        /// Random subsets per ranking-stability point.
        trials: usize,
        quick: bool,
        /// JSONL event-trace output path, if requested.
        trace: Option<String>,
        /// Mirror campaign milestones to stderr.
        progress: bool,
        /// Worker processes to fan shards out to (0 = in-process).
        workers: usize,
        /// Shard-journal directory override (default: inside the store).
        journal: Option<String>,
        /// Also write the CSV bundle to this file (a byte-compare aid).
        bundle: Option<String>,
    },
    /// Run the `mppmd` daemon in the foreground.
    Serve {
        /// Socket path override (default `$TMPDIR/mppmd.sock`).
        socket: Option<String>,
        /// Store root override (default `target/mppm-store`).
        store: Option<String>,
    },
    /// Send one request to a running `mppmd` daemon.
    Client {
        /// Socket path override (default `$TMPDIR/mppmd.sock`).
        socket: Option<String>,
        /// The wire request to send (kind + parameters).
        request: mppm_server::protocol::Request,
    },
    /// Run the determinism lint pass over the workspace sources.
    Lint {
        /// Exit non-zero on any violation (the CI gate).
        deny: bool,
        /// Machine-readable report.
        json: bool,
        /// Report only these rules (empty = all).
        only: Vec<String>,
        /// Drop these rules from the report.
        exclude: Vec<String>,
    },
    /// Show usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
mppm-cli — the Multi-Program Performance Model toolkit

USAGE:
  mppm-cli list [--config N] [--quick]
  mppm-cli predict <bench,bench,...> [--config N] [--quick]
              [--contention foa|sdc|prob] [--partition w1,w2,...]
              [--bandwidth ACC_PER_CYCLE]
  mppm-cli simulate <bench,bench,...> [--config N] [--quick]
  mppm-cli count <cores>
  mppm-cli record <bench> --out FILE [--quick]
  mppm-cli campaign [--cores N] [--configs A,B,...] [--sample N] [--seed S]
              [--shard-size N] [--trials N] [--quick]
              [--workers N] [--journal DIR] [--bundle FILE]
              [--trace FILE] [--progress]
  mppm-cli serve [--socket PATH] [--store DIR]
  mppm-cli client ping|stats|shutdown [--socket PATH]
  mppm-cli client predict|simulate <bench,...> [--config N] [--quick]
              [--contention foa|sdc|prob] [--partition w1,w2,...]
              [--bandwidth B] [--subscribe] [--socket PATH]
  mppm-cli client campaign [--cores N] [--configs A,B,...] [--sample N]
              [--seed S] [--shard-size N] [--trials N] [--quick]
              [--subscribe] [--socket PATH]
  mppm-cli lint [--deny] [--json] [--only RULE[,RULE]]
              [--exclude RULE[,RULE]]
  mppm-cli help

Benchmarks are the 29 synthetic SPEC CPU2006 stand-ins (see `list`).
--config selects the Table 2 LLC configuration 1..6 (default 1).
--quick uses short traces for instant results.
`campaign` sweeps every mix (or a seeded stratified --sample) over each
--configs design point, checkpointing shards so a killed run resumes;
--workers N fans shards out to N worker processes sharing one journal
(the result is byte-identical for any worker count), --journal DIR
overrides where shards checkpoint, --bundle FILE also writes the CSV
bundle to FILE for byte comparison, --trace writes a deterministic JSONL
event trace and --progress mirrors milestones to stderr.
`lint` runs the mppm-analyze determinism rules over the workspace's own
sources; --deny makes violations fatal (the CI gate), and --only /
--exclude (repeatable, comma-separable) narrow the report to named
rules — unknown rule names are usage errors.
`serve` runs the long-lived `mppmd` daemon (warm caches, request
batching); `client` sends it one request — results are byte-identical
to the one-shot commands, repeats are answered from the warm cache, and
--subscribe streams progress events.";

fn parse_config(value: &str) -> Result<usize, ParseError> {
    let n: usize = value
        .parse()
        .map_err(|_| ParseError(format!("--config expects a number 1..6, got `{value}`")))?;
    if !(1..=6).contains(&n) {
        return Err(ParseError(format!("--config must be 1..6, got {n}")));
    }
    Ok(n - 1)
}

fn parse_mix(value: &str) -> Result<Vec<String>, ParseError> {
    let mix: Vec<String> =
        value.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if mix.is_empty() {
        return Err(ParseError("mix must contain at least one benchmark".into()));
    }
    Ok(mix)
}

/// Parses an argv (excluding the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`ParseError`] with a user-facing message for anything
/// malformed.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str).peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };

    // Collect flags generically: `--name value` or bare `--quick`.
    let rest: Vec<&str> = it.collect();
    let mut positional = Vec::new();
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            if name == "quick"
                || name == "deny"
                || name == "json"
                || name == "progress"
                || name == "subscribe"
            {
                flags.push((name, None));
                i += 1;
            } else {
                let value = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError(format!("--{name} expects a value")))?;
                flags.push((name, Some(value)));
                i += 2;
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    let flag = |name: &str| flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let number = |name: &str, default: u64| -> Result<u64, ParseError> {
        match flag(name) {
            Some(Some(v)) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name} expects a number, got `{v}`"))),
            _ => Ok(default),
        }
    };
    let quick = flag("quick").is_some();
    let config = match flag("config") {
        Some(Some(v)) => parse_config(v)?,
        _ => 0,
    };
    let known_flags: &[&str] = match cmd {
        "predict" => &["quick", "config", "contention", "partition", "bandwidth"],
        "list" | "simulate" => &["quick", "config"],
        "record" => &["quick", "out"],
        "campaign" => &[
            "quick", "cores", "configs", "sample", "seed", "shard-size", "trials", "trace",
            "progress", "workers", "journal", "bundle",
        ],
        "lint" => &["deny", "json", "only", "exclude"],
        "serve" => &["socket", "store"],
        "client" => &[
            "socket", "quick", "config", "contention", "partition", "bandwidth", "cores",
            "configs", "sample", "seed", "shard-size", "trials", "subscribe",
        ],
        _ => &[],
    };
    for (name, _) in &flags {
        if !known_flags.contains(name) {
            return Err(ParseError(format!("unknown flag --{name} for `{cmd}`")));
        }
    }

    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List { config, quick }),
        "count" => {
            let cores = positional
                .first()
                .ok_or_else(|| ParseError("count expects the number of cores".into()))?;
            let cores: usize = cores
                .parse()
                .map_err(|_| ParseError(format!("count expects a number, got `{cores}`")))?;
            if cores == 0 {
                return Err(ParseError("count expects at least one core".into()));
            }
            Ok(Command::Count { cores })
        }
        "predict" => {
            let mix = parse_mix(
                positional.first().ok_or_else(|| ParseError("predict expects a mix".into()))?,
            )?;
            let contention = match (flag("contention"), flag("partition")) {
                (Some(_), Some(_)) => {
                    return Err(ParseError(
                        "--contention and --partition are mutually exclusive".into(),
                    ))
                }
                (None, None) => ContentionKind::Foa,
                (Some(Some("foa")), None) => ContentionKind::Foa,
                (Some(Some("sdc")), None) => ContentionKind::SdcCompetition,
                (Some(Some("prob")), None) => ContentionKind::Prob,
                (Some(Some(other)), None) => {
                    return Err(ParseError(format!(
                        "unknown contention model `{other}` (foa|sdc|prob)"
                    )))
                }
                (Some(None), _) | (None, Some(None)) => {
                    return Err(ParseError("missing flag value".into()))
                }
                (None, Some(Some(spec))) => {
                    let ways: Result<Vec<u32>, _> =
                        spec.split(',').map(|w| w.trim().parse::<u32>()).collect();
                    let ways = ways.map_err(|_| {
                        ParseError(format!("--partition expects way counts, got `{spec}`"))
                    })?;
                    if ways.len() != mix.len() {
                        return Err(ParseError(format!(
                            "--partition needs one way count per program ({} vs {})",
                            ways.len(),
                            mix.len()
                        )));
                    }
                    ContentionKind::Partition(ways)
                }
            };
            let bandwidth = match flag("bandwidth") {
                Some(Some(v)) => Some(v.parse::<f64>().map_err(|_| {
                    ParseError(format!("--bandwidth expects a number, got `{v}`"))
                })?),
                _ => None,
            };
            Ok(Command::Predict { mix, config, quick, contention, bandwidth })
        }
        "simulate" => {
            let mix = parse_mix(
                positional.first().ok_or_else(|| ParseError("simulate expects a mix".into()))?,
            )?;
            Ok(Command::Simulate { mix, config, quick })
        }
        "lint" => {
            // `--only` / `--exclude` are repeatable and comma-separable;
            // rule names are validated here so typos exit 2 like any
            // other usage error.
            let collect = |name: &str| -> Vec<String> {
                flags
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .filter_map(|(_, v)| *v)
                    .flat_map(|v| v.split(','))
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect()
            };
            let only = collect("only");
            let exclude = collect("exclude");
            let known = mppm_analyze::known_rule_names();
            for rule in only.iter().chain(&exclude) {
                if !known.contains(&rule.as_str()) {
                    return Err(ParseError(format!(
                        "unknown rule `{rule}` (known rules: {})",
                        known.join(", ")
                    )));
                }
            }
            Ok(Command::Lint {
                deny: flag("deny").is_some(),
                json: flag("json").is_some(),
                only,
                exclude,
            })
        }
        "serve" => Ok(Command::Serve {
            socket: flag("socket").flatten().map(String::from),
            store: flag("store").flatten().map(String::from),
        }),
        "client" => {
            let verb = *positional
                .first()
                .ok_or_else(|| ParseError("client expects a request kind".into()))?;
            let mut request = mppm_server::protocol::Request::default();
            request.kind = verb.to_string();
            match verb {
                "predict" | "simulate" => {
                    let mix = positional.get(1).ok_or_else(|| {
                        ParseError(format!("client {verb} expects a mix"))
                    })?;
                    parse_mix(mix)?; // syntactic check; the daemon re-validates
                    request.mix = (*mix).to_string();
                }
                "campaign" | "ping" | "stats" | "shutdown" => {}
                other => {
                    return Err(ParseError(format!(
                        "unknown client request `{other}` \
                         (ping|stats|predict|simulate|campaign|shutdown)"
                    )))
                }
            }
            // The wire speaks 1-based configs, like the flags do.
            request.config = (config + 1) as u64;
            request.quick = quick;
            request.subscribe = flag("subscribe").is_some();
            if let Some(Some(v)) = flag("contention") {
                request.contention = v.to_string();
            }
            if let Some(Some(v)) = flag("partition") {
                request.partition = v.to_string();
            }
            if let Some(Some(v)) = flag("bandwidth") {
                request.bandwidth = Some(v.parse::<f64>().map_err(|_| {
                    ParseError(format!("--bandwidth expects a number, got `{v}`"))
                })?);
            }
            if let Some(Some(v)) = flag("configs") {
                request.configs = v.to_string();
            }
            // 0 = wire default.
            request.cores = number("cores", 0)?;
            request.sample = number("sample", 0)?;
            request.seed = number("seed", 0)?;
            request.shard_size = number("shard-size", 0)?;
            request.trials = number("trials", 0)?;
            Ok(Command::Client {
                socket: flag("socket").flatten().map(String::from),
                request,
            })
        }
        "record" => {
            let benchmark = positional
                .first()
                .ok_or_else(|| ParseError("record expects a benchmark name".into()))?
                .to_string();
            let out = match flag("out") {
                Some(Some(v)) => v.to_string(),
                _ => return Err(ParseError("record needs --out FILE".into())),
            };
            Ok(Command::Record { benchmark, out, quick })
        }
        "campaign" => {
            let cores = number("cores", 2)? as usize;
            let configs = match flag("configs") {
                Some(Some(list)) => list
                    .split(',')
                    .map(|s| parse_config(s.trim()))
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|e| ParseError(format!("--configs: {e}")))?,
                _ => vec![0, 1],
            };
            let sample = match flag("sample") {
                Some(_) => Some(number("sample", 0)? as usize),
                None => None,
            };
            Ok(Command::Campaign {
                cores,
                configs,
                sample,
                seed: number("seed", 1)?,
                shard_size: number("shard-size", 64)? as usize,
                trials: number("trials", 200)? as usize,
                quick,
                trace: flag("trace").flatten().map(String::from),
                progress: flag("progress").is_some(),
                workers: number("workers", 0)? as usize,
                journal: flag("journal").flatten().map(String::from),
                bundle: flag("bundle").flatten().map(String::from),
            })
        }
        other => Err(ParseError(format!("unknown command `{other}`; try `mppm-cli help`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err().0
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse_ok(&["help"]), Command::Help);
    }

    fn lint(deny: bool, json: bool, only: &[&str], exclude: &[&str]) -> Command {
        Command::Lint {
            deny,
            json,
            only: only.iter().map(|s| s.to_string()).collect(),
            exclude: exclude.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn lint_flags() {
        assert_eq!(parse_ok(&["lint"]), lint(false, false, &[], &[]));
        assert_eq!(parse_ok(&["lint", "--deny"]), lint(true, false, &[], &[]));
        assert_eq!(parse_ok(&["lint", "--deny", "--json"]), lint(true, true, &[], &[]));
        assert!(parse_err(&["lint", "--quick"]).contains("unknown flag"));
    }

    #[test]
    fn lint_rule_filters() {
        assert_eq!(
            parse_ok(&["lint", "--only", "taint-nondet-to-result"]),
            lint(false, false, &["taint-nondet-to-result"], &[])
        );
        // Repeatable and comma-separable, on both flags.
        assert_eq!(
            parse_ok(&[
                "lint",
                "--only",
                "unwrap-in-lib,lossy-counter-cast",
                "--only",
                "wallclock-in-sim",
                "--exclude",
                "unused-suppression"
            ]),
            lint(
                false,
                false,
                &["unwrap-in-lib", "lossy-counter-cast", "wallclock-in-sim"],
                &["unused-suppression"]
            )
        );
        // Unknown rule names are usage errors (exit 2 in main).
        let err = parse_err(&["lint", "--only", "no-such-rule"]);
        assert!(err.contains("unknown rule `no-such-rule`"), "{err}");
        assert!(err.contains("taint-nondet-to-result"), "lists the known rules: {err}");
        let err = parse_err(&["lint", "--exclude", "nope"]);
        assert!(err.contains("unknown rule `nope`"), "{err}");
    }

    #[test]
    fn list_defaults() {
        assert_eq!(parse_ok(&["list"]), Command::List { config: 0, quick: false });
        assert_eq!(
            parse_ok(&["list", "--config", "3", "--quick"]),
            Command::List { config: 2, quick: true }
        );
    }

    #[test]
    fn config_bounds() {
        assert!(parse_err(&["list", "--config", "0"]).contains("1..6"));
        assert!(parse_err(&["list", "--config", "7"]).contains("1..6"));
        assert!(parse_err(&["list", "--config", "x"]).contains("number"));
    }

    #[test]
    fn predict_mix_and_model() {
        let cmd = parse_ok(&["predict", "gamess,lbm", "--contention", "prob"]);
        assert_eq!(
            cmd,
            Command::Predict {
                mix: vec!["gamess".into(), "lbm".into()],
                config: 0,
                quick: false,
                contention: ContentionKind::Prob,
                bandwidth: None,
            }
        );
    }

    #[test]
    fn predict_partition() {
        let cmd = parse_ok(&["predict", "gamess,lbm", "--partition", "6,2"]);
        match cmd {
            Command::Predict { contention: ContentionKind::Partition(w), .. } => {
                assert_eq!(w, vec![6, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_err(&["predict", "a,b", "--partition", "6"]).contains("one way count"));
        assert!(parse_err(&["predict", "a,b", "--partition", "6,2", "--contention", "foa"])
            .contains("mutually exclusive"));
    }

    #[test]
    fn predict_bandwidth() {
        let cmd = parse_ok(&["predict", "lbm,mcf", "--bandwidth", "0.05"]);
        match cmd {
            Command::Predict { bandwidth, .. } => assert_eq!(bandwidth, Some(0.05)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_parses() {
        assert_eq!(parse_ok(&["count", "4"]), Command::Count { cores: 4 });
        assert!(parse_err(&["count"]).contains("expects"));
        assert!(parse_err(&["count", "0"]).contains("at least one"));
    }

    #[test]
    fn record_needs_out() {
        assert_eq!(
            parse_ok(&["record", "gcc", "--out", "/tmp/gcc.trace"]),
            Command::Record { benchmark: "gcc".into(), out: "/tmp/gcc.trace".into(), quick: false }
        );
        assert!(parse_err(&["record", "gcc"]).contains("--out"));
    }

    #[test]
    fn campaign_defaults_and_flags() {
        assert_eq!(
            parse_ok(&["campaign"]),
            Command::Campaign {
                cores: 2,
                configs: vec![0, 1],
                sample: None,
                seed: 1,
                shard_size: 64,
                trials: 200,
                quick: false,
                trace: None,
                progress: false,
                workers: 0,
                journal: None,
                bundle: None,
            }
        );
        assert_eq!(
            parse_ok(&[
                "campaign", "--quick", "--cores", "4", "--configs", "1,3,6", "--sample", "500",
                "--seed", "9", "--shard-size", "32", "--trials", "100", "--trace",
                "/tmp/t.jsonl", "--progress", "--workers", "4", "--journal", "/tmp/j",
                "--bundle", "/tmp/b.csv",
            ]),
            Command::Campaign {
                cores: 4,
                configs: vec![0, 2, 5],
                sample: Some(500),
                seed: 9,
                shard_size: 32,
                trials: 100,
                quick: true,
                trace: Some("/tmp/t.jsonl".into()),
                progress: true,
                workers: 4,
                journal: Some("/tmp/j".into()),
                bundle: Some("/tmp/b.csv".into()),
            }
        );
        assert!(parse_err(&["campaign", "--configs", "0,1"]).contains("1..6"));
        assert!(parse_err(&["campaign", "--sample", "lots"]).contains("number"));
        assert!(parse_err(&["predict", "a,b", "--trace", "x"]).contains("unknown flag"));
    }

    #[test]
    fn serve_parses_overrides() {
        assert_eq!(parse_ok(&["serve"]), Command::Serve { socket: None, store: None });
        assert_eq!(
            parse_ok(&["serve", "--socket", "/tmp/d.sock", "--store", "/tmp/store"]),
            Command::Serve {
                socket: Some("/tmp/d.sock".into()),
                store: Some("/tmp/store".into())
            }
        );
        assert!(parse_err(&["serve", "--quick"]).contains("unknown flag"));
    }

    #[test]
    fn client_builds_wire_requests() {
        let Command::Client { socket, request } = parse_ok(&["client", "ping"]) else {
            panic!("client command")
        };
        assert_eq!(socket, None);
        assert_eq!(request.kind, "ping");
        assert_eq!(request.config, 1, "wire config is 1-based");

        let Command::Client { request, .. } = parse_ok(&[
            "client", "predict", "gamess,lbm", "--config", "3", "--quick", "--subscribe",
            "--bandwidth", "0.05",
        ]) else {
            panic!("client command")
        };
        assert_eq!(request.kind, "predict");
        assert_eq!(request.mix, "gamess,lbm");
        assert_eq!(request.config, 3);
        assert!(request.quick && request.subscribe);
        assert_eq!(request.bandwidth, Some(0.05));

        let Command::Client { request, .. } = parse_ok(&[
            "client", "campaign", "--cores", "4", "--configs", "1,6", "--sample", "100",
            "--seed", "9", "--shard-size", "8", "--trials", "50",
        ]) else {
            panic!("client command")
        };
        assert_eq!(request.kind, "campaign");
        assert_eq!(request.cores, 4);
        assert_eq!(request.configs, "1,6");
        assert_eq!((request.sample, request.seed), (100, 9));
        assert_eq!((request.shard_size, request.trials), (8, 50));

        assert!(parse_err(&["client"]).contains("request kind"));
        assert!(parse_err(&["client", "frobnicate"]).contains("unknown client request"));
        assert!(parse_err(&["client", "predict"]).contains("expects a mix"));
    }

    #[test]
    fn unknown_flags_and_commands_are_rejected() {
        assert!(parse_err(&["list", "--bogus", "1"]).contains("unknown flag"));
        assert!(parse_err(&["frobnicate"]).contains("unknown command"));
    }
}

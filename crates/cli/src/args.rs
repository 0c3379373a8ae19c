//! Hand-rolled argument parsing for the CLI (kept dependency-free).
//!
//! `predict`, `simulate` and `campaign` (one-shot or through `client`)
//! build the daemon's wire [`Request`] from their flags in one place,
//! [`request`], and the one-shot verbs resolve it here with the
//! daemon's [`resolve`], so both front ends share defaults and checks.

use mppm_server::protocol::{resolve, CampaignRequest, MixRequest, Request, Resolved};
use std::fmt;

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
    Predict(MixRequest),
    /// Run the detailed simulator on a mix and compare with the model.
    Simulate(MixRequest),
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
        /// The campaign, resolved as the daemon resolves it.
        request: CampaignRequest,
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
    /// Run the `mppmd` daemon in the foreground, configured by the
    /// daemon's own flag parser.
    Serve(mppm_server::ServerConfig),
    /// Send one request to a running `mppmd` daemon.
    Client {
        /// Socket path override (default `$TMPDIR/mppmd.sock`).
        socket: Option<String>,
        /// The wire request to send (kind + parameters).
        request: Request,
    },
    /// Run the determinism lint pass over the workspace sources, parsed
    /// and run by `mppm-analyze`'s own front end.
    Lint(mppm_analyze::cli::Lint),
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
  mppm-cli serve [--socket PATH] [--store DIR] [--cache-cap N]
  mppm-cli client ping|stats|shutdown [--socket PATH]
  mppm-cli client predict|simulate <bench,...> [--config N] [--quick]
              [--contention foa|sdc|prob] [--partition w1,w2,...]
              [--bandwidth B] [--subscribe] [--socket PATH]
  mppm-cli client campaign [--cores N] [--configs A,B,...] [--sample N]
              [--seed S] [--shard-size N] [--trials N] [--quick]
              [--subscribe] [--socket PATH]
  mppm-cli lint [--deny] [--json] [--root DIR] [--only RULE[,RULE]]
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
sources and takes `mppm-analyze`'s flags: --deny makes violations fatal
(exit 1, the CI gate), and --only / --exclude (repeatable,
comma-separated) narrow the report to named rules — unknown rule names
are usage errors.
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

/// The flags of one invocation: `--name value` pairs and bare switches.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.0.iter().filter(|(n, _)| *n == name).find_map(|(_, v)| *v)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, ParseError> {
        self.value(name)
            .map(|v| {
                v.parse().map_err(|_| ParseError(format!("--{name} expects a number, got `{v}`")))
            })
            .transpose()
    }

    /// A count the wire carries with 0 meaning "absent, use the
    /// default": 0 when the flag is left out, refused when given as 0.
    fn count(&self, name: &str) -> Result<u64, ParseError> {
        match self.number(name)? {
            Some(0) => Err(ParseError(format!(
                "--{name} must be at least 1 (leave it out for the default)"
            ))),
            n => Ok(n.unwrap_or(0)),
        }
    }
}

/// Builds the wire request for `kind` from the flags, the one mapping
/// the one-shot verbs and `client` share, and resolves it with the
/// daemon's [`resolve`]: a malformed field is a usage error before any
/// store or socket is touched. Flags left out stay 0 or empty, which
/// `resolve` reads as its defaults.
fn request(
    kind: &str,
    mix: Option<&str>,
    flags: &Flags,
) -> Result<(Request, Resolved), ParseError> {
    let mut request = Request { kind: kind.to_string(), ..Request::default() };
    if matches!(kind, "predict" | "simulate") {
        request.mix = mix.ok_or_else(|| ParseError(format!("{kind} expects a mix")))?.to_string();
    }
    if let Some(v) = flags.value("config") {
        // The wire speaks 1-based configs, like the flag does.
        request.config = parse_config(v)? as u64 + 1;
    }
    request.quick = flags.has("quick");
    request.subscribe = flags.has("subscribe");
    request.contention = flags.value("contention").unwrap_or_default().to_string();
    request.partition = flags.value("partition").unwrap_or_default().to_string();
    request.bandwidth = flags
        .value("bandwidth")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| ParseError(format!("--bandwidth expects a number, got `{v}`")))
        })
        .transpose()?;
    request.configs = flags.value("configs").unwrap_or_default().to_string();
    request.cores = flags.count("cores")?;
    request.sample = flags.count("sample")?;
    request.seed = flags.count("seed")?;
    request.shard_size = flags.count("shard-size")?;
    request.trials = flags.count("trials")?;
    let resolved = resolve(&request).map_err(|e| ParseError(e.message))?;
    Ok((request, resolved))
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
    if cmd == "lint" {
        return mppm_analyze::cli::parse(&args[1..]).map(Command::Lint).map_err(ParseError);
    }

    // Collect flags generically: `--name value` or bare `--quick`.
    let rest: Vec<&str> = it.collect();
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            if name == "quick" || name == "progress" || name == "subscribe" {
                flags.push((name, None));
                i += 1;
            } else {
                let value = rest
                    .get(i + 1)
                    .ok_or_else(|| ParseError(format!("--{name} expects a value")))?;
                flags.push((name, Some(*value)));
                i += 2;
            }
        } else {
            positional.push(a);
            i += 1;
        }
    }
    let flags = Flags(flags);
    let quick = flags.has("quick");
    let known_flags: &[&str] = match cmd {
        "predict" => &["quick", "config", "contention", "partition", "bandwidth"],
        "list" | "simulate" => &["quick", "config"],
        "record" => &["quick", "out"],
        "campaign" => &[
            "quick", "cores", "configs", "sample", "seed", "shard-size", "trials", "trace",
            "progress", "workers", "journal", "bundle",
        ],
        "serve" => mppm_server::DAEMON_FLAGS,
        "client" => &[
            "socket", "quick", "config", "contention", "partition", "bandwidth", "cores",
            "configs", "sample", "seed", "shard-size", "trials", "subscribe",
        ],
        _ => &[],
    };
    for (name, _) in &flags.0 {
        if !known_flags.contains(name) {
            return Err(ParseError(format!("unknown flag --{name} for `{cmd}`")));
        }
    }
    // Positional arguments each verb reads; one more is a usage error,
    // never silently dropped.
    let takes = match cmd {
        "help" | "--help" | "-h" | "list" | "campaign" | "serve" => Some(0),
        "count" | "record" | "predict" | "simulate" => Some(1),
        "client" => Some(match positional.first() {
            Some(&("predict" | "simulate")) => 2,
            _ => 1,
        }),
        _ => None,
    };
    if let Some(extra) = takes.and_then(|n| positional.get(n)) {
        return Err(ParseError(format!("unexpected argument `{extra}` for `{cmd}`")));
    }

    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List {
            config: flags.value("config").map(parse_config).transpose()?.unwrap_or(0),
            quick,
        }),
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
        "predict" | "simulate" | "campaign" => {
            match request(cmd, positional.first().copied(), &flags)?.1 {
                Resolved::Predict(m) => Ok(Command::Predict(m)),
                Resolved::Simulate(m) => Ok(Command::Simulate(m)),
                Resolved::Campaign(request) => Ok(Command::Campaign {
                    request,
                    trace: flags.value("trace").map(String::from),
                    progress: flags.has("progress"),
                    workers: flags.number("workers")?.unwrap_or(0) as usize,
                    journal: flags.value("journal").map(String::from),
                    bundle: flags.value("bundle").map(String::from),
                }),
                other => unreachable!("`{cmd}` resolved to {other:?}"),
            }
        }
        "serve" => {
            mppm_server::ServerConfig::from_flags(flags.0.iter().copied())
                .map(Command::Serve)
                .map_err(ParseError)
        }
        "client" => {
            let (&verb, rest) = positional
                .split_first()
                .ok_or_else(|| ParseError("client expects a request kind".into()))?;
            if !matches!(verb, "ping" | "stats" | "predict" | "simulate" | "campaign" | "shutdown") {
                return Err(ParseError(format!(
                    "unknown client request `{verb}` \
                     (ping|stats|predict|simulate|campaign|shutdown)"
                )));
            }
            Ok(Command::Client {
                socket: flags.value("socket").map(String::from),
                request: request(verb, rest.first().copied(), &flags)?.0,
            })
        }
        "record" => {
            let benchmark = positional
                .first()
                .ok_or_else(|| ParseError("record expects a benchmark name".into()))?
                .to_string();
            let out = flags
                .value("out")
                .ok_or_else(|| ParseError("record needs --out FILE".into()))?
                .to_string();
            Ok(Command::Record { benchmark, out, quick })
        }
        other => Err(ParseError(format!("unknown command `{other}`; try `mppm-cli help`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm_server::protocol::{cli_geometry, codes, Contention};
    use mppm_server::ServerConfig;

    fn parse_ok(args: &[&str]) -> Command {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err().0
    }

    #[test]
    fn extra_positional_arguments_are_usage_errors() {
        for (argv, extra) in [
            (&["count", "2", "extra"][..], "extra"),
            (&["record", "gcc", "extra", "--out", "f", "--quick"], "extra"),
            (&["list", "foo"], "foo"),
            (&["help", "me"], "me"),
            (&["campaign", "gcc"], "gcc"),
            (&["serve", "x"], "x"),
            (&["predict", "gcc,lbm", "mcf"], "mcf"),
            (&["simulate", "gcc,lbm", "--quick", "mcf"], "mcf"),
            (&["client", "ping", "now"], "now"),
            (&["client", "predict", "gcc,lbm", "mcf"], "mcf"),
        ] {
            let cmd = argv[0];
            assert_eq!(
                parse_err(argv),
                format!("unexpected argument `{extra}` for `{cmd}`"),
                "{argv:?}"
            );
        }
        // The arguments each verb reads still parse.
        assert_eq!(parse_ok(&["count", "2"]), Command::Count { cores: 2 });
        assert!(matches!(parse_ok(&["client", "stats"]), Command::Client { .. }));
        assert!(matches!(parse_ok(&["client", "predict", "gcc,lbm"]), Command::Client { .. }));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse_ok(&["help"]), Command::Help);
    }

    #[test]
    fn lint_is_mppm_analyzes_command() {
        for args in [
            &[][..],
            &["--deny", "--json"],
            &["--root", ".", "--only", "taint-nondet-to-result, panic-reaches-handler"],
            &["--exclude", "unused-suppression,,", "--help"],
        ] {
            let lint = mppm_analyze::cli::parse(args).expect("valid lint flags");
            assert_eq!(parse_ok(&[&["lint"][..], args].concat()), Command::Lint(lint), "{args:?}");
        }
        for args in [&["--quick"][..], &["--only", "no-such-rule"], &["--only"]] {
            let err = mppm_analyze::cli::parse(args).expect_err("a usage error");
            assert_eq!(parse_err(&[&["lint"][..], args].concat()), err, "{args:?}");
        }
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
            Command::Predict(MixRequest {
                names: vec!["gamess".into(), "lbm".into()],
                config: 0,
                geometry: cli_geometry(false),
                contention: Contention::Prob,
                bandwidth: None,
            })
        );
        let Command::Simulate(m) = parse_ok(&["simulate", "gamess,lbm", "--quick"]) else {
            panic!("simulate command")
        };
        assert_eq!((m.contention, m.geometry), (Contention::Foa, cli_geometry(true)));
        assert!(parse_err(&["predict", "gamess", "--contention", "xyz"])
            .contains("unknown contention model"));
        assert!(parse_err(&["predict"]).contains("expects a mix"));
    }

    #[test]
    fn predict_partition() {
        let cmd = parse_ok(&["predict", "gamess,lbm", "--partition", "6,2"]);
        match cmd {
            Command::Predict(MixRequest { contention: Contention::Partition(w), .. }) => {
                assert_eq!(w, vec![6, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_err(&["predict", "a,b", "--partition", "6"]).contains("one way count"));
        assert!(parse_err(&["predict", "a,b", "--partition", "6,2", "--contention", "foa"])
            .contains("mutually exclusive"));
        // The sum against the LLC's ways is the daemon's check, run
        // before anything is profiled.
        let Command::Predict(m) = parse_ok(&["predict", "gamess,lbm", "--partition", "6,6"])
        else {
            panic!("predict command")
        };
        assert!(m.check().unwrap_err().message.contains("ways sum to 12"));
    }

    #[test]
    fn predict_bandwidth() {
        let cmd = parse_ok(&["predict", "lbm,mcf", "--bandwidth", "0.05"]);
        match cmd {
            Command::Predict(m) => {
                assert_eq!(m.bandwidth, Some(0.05));
                assert!(m.check().is_ok());
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan"] {
            let Command::Predict(m) = parse_ok(&["predict", "lbm,mcf", "--bandwidth", bad]) else {
                panic!("predict command")
            };
            let err = m.check().unwrap_err();
            assert_eq!(err.code, codes::BAD_REQUEST);
            assert!(err.message.contains("must be positive"), "{bad}: {}", err.message);
        }
        assert!(parse_err(&["predict", "lbm", "--bandwidth", "lots"]).contains("number"));
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

    const ZERO_REFUSED: [&str; 5] = ["cores", "sample", "seed", "shard-size", "trials"];

    #[test]
    fn campaign_defaults_and_flags() {
        // The defaults are the daemon's: the CLI adds none of its own.
        let Resolved::Campaign(defaults) =
            resolve(&Request { kind: "campaign".into(), ..Request::default() }).unwrap()
        else {
            panic!("campaign request")
        };
        assert_eq!(
            parse_ok(&["campaign"]),
            Command::Campaign {
                request: defaults,
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
                request: CampaignRequest {
                    cores: 4,
                    designs: vec![0, 2, 5],
                    sample: Some(500),
                    seed: 9,
                    shard_size: 32,
                    trials: 100,
                    quick: true,
                },
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
        // The wire reads 0 as "use the default", so an explicit 0 is refused.
        for flag in ZERO_REFUSED {
            let err = parse_err(&["campaign", &format!("--{flag}"), "0"]);
            assert!(err.contains(&format!("--{flag} must be at least 1")), "{err}");
        }
    }

    #[test]
    fn serve_parses_overrides() {
        let daemon = |flags: &[(&'static str, &'static str)]| {
            ServerConfig::from_flags(flags.iter().map(|&(n, v)| (n, Some(v))))
        };
        assert_eq!(parse_ok(&["serve"]), Command::Serve(daemon(&[]).unwrap()));
        assert_eq!(
            parse_ok(&["serve", "--socket", "/tmp/d.sock", "--store", "/tmp/store"]),
            Command::Serve(daemon(&[("socket", "/tmp/d.sock"), ("store", "/tmp/store")]).unwrap())
        );
        let Command::Serve(config) = parse_ok(&["serve", "--cache-cap", "64"]) else {
            panic!("serve command")
        };
        assert_eq!(config.response_cache_cap, 64);
        // `mppmd` refuses a bad cap with this same message.
        for bad in ["0", "x"] {
            assert_eq!(
                parse_err(&["serve", "--cache-cap", bad]),
                daemon(&[("cache-cap", bad)]).unwrap_err()
            );
        }
        assert!(parse_err(&["serve", "--quick"]).contains("unknown flag"));
    }

    #[test]
    fn client_builds_wire_requests() {
        let Command::Client { socket, request } = parse_ok(&["client", "ping"]) else {
            panic!("client command")
        };
        assert_eq!(socket, None);
        assert_eq!(request.kind, "ping");
        assert_eq!(request.config, 0, "a left-out flag stays 0, the wire's default");

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
        // The same builder and checks as the one-shot verbs.
        assert!(parse_err(&["client", "predict", "a", "--contention", "xyz"])
            .contains("unknown contention model"));
        for flag in ZERO_REFUSED {
            let err = parse_err(&["client", "campaign", &format!("--{flag}"), "0"]);
            assert!(err.contains(&format!("--{flag} must be at least 1")), "{err}");
        }
    }

    #[test]
    fn unknown_flags_and_commands_are_rejected() {
        assert!(parse_err(&["list", "--bogus", "1"]).contains("unknown flag"));
        assert!(parse_err(&["frobnicate"]).contains("unknown command"));
    }
}

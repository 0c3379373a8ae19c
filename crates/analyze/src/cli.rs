//! The lint command line, shared by `mppm-analyze` and `mppm-cli lint`:
//! one parser and one runner, so both front ends take the same flags,
//! print the same bytes and exit with the same codes.
//!
//! ```text
//! --deny            exit 1 on any violation (the CI gate)
//! --json            machine-readable report
//! --root <dir>      workspace root (default: nearest ancestor with Cargo.toml + crates/)
//! --only <rules>    report only the named rules (repeatable, comma-separated)
//! --exclude <rules> drop the named rules from the report
//! ```
//!
//! Rule lists are trimmed and empty names dropped, so `--only "a, b"`
//! and `--only "a,,"` name rules `a` and `b`, and `a`. Exit codes: 0 for
//! a report, 1 for violations under `--deny`, [`USAGE_ERROR`] (2) for an
//! unknown flag or rule name, a missing workspace root or an unreadable
//! tree.

use crate::{analyze_workspace, find_workspace_root, known_rule_names, report, RuleFilter};
use std::path::PathBuf;

/// The exit code of a usage error.
pub const USAGE_ERROR: i32 = 2;

/// The flag summary `--help` prints, above the list of known rules.
pub const USAGE: &str = "\
usage: mppm-analyze | mppm-cli lint
         [--deny] [--json] [--root <dir>] [--only <rule>[,<rule>]] [--exclude <rule>[,<rule>]]

Determinism lint pass over the MPPM workspace sources.
--deny      exit 1 on any violation (CI gate)
--json      machine-readable report
--root      workspace root (default: nearest ancestor with Cargo.toml + crates/)
--only      report only the named rule(s); repeatable, comma-separated
--exclude   drop the named rule(s) from the report";

/// A parsed lint invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lint {
    /// Print the usage text and the known rules.
    Help,
    /// Scan the workspace and print its report.
    Scan {
        /// Exit 1 on any violation.
        deny: bool,
        /// Print the JSON report instead of the human one.
        json: bool,
        /// Workspace root; `None` searches upwards from the current
        /// directory.
        root: Option<PathBuf>,
        /// The rules reported.
        filter: RuleFilter,
    },
}

/// Parses the lint flags (the argv after the program name, or after
/// `mppm-cli lint`).
///
/// # Errors
///
/// A usage message for an unknown flag, a flag without its value, or an
/// unknown rule name.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Lint, String> {
    let (mut deny, mut json, mut root) = (false, false, None);
    let (mut only, mut exclude) = (Vec::new(), Vec::new());
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        match arg {
            "--deny" => deny = true,
            "--json" => json = true,
            "--help" | "-h" => return Ok(Lint::Help),
            "--root" | "--only" | "--exclude" => {
                let value = args.next().ok_or_else(|| format!("{arg} expects a value"))?;
                let rules = value.split(',').map(str::trim).filter(|r| !r.is_empty());
                match arg {
                    "--root" => root = Some(PathBuf::from(value)),
                    "--only" => only.extend(rules.map(String::from)),
                    _ => exclude.extend(rules.map(String::from)),
                }
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Lint::Scan { deny, json, root, filter: RuleFilter::new(&only, &exclude)? })
}

impl Lint {
    /// Runs the invocation: prints the usage or the report on stdout and
    /// returns the exit code, 0 for a report and 1 for violations under
    /// `--deny`.
    ///
    /// # Errors
    ///
    /// A message, for exit code [`USAGE_ERROR`], when no workspace root
    /// is found or the tree cannot be read.
    pub fn run(&self) -> Result<i32, String> {
        let Lint::Scan { deny, json, root, filter } = self else {
            println!("{USAGE}\n\nknown rules: {}", known_rule_names().join(", "));
            return Ok(0);
        };
        let root = root
            .clone()
            .or_else(|| find_workspace_root(&std::env::current_dir().ok()?))
            .ok_or("could not locate the workspace root; pass --root <dir>")?;
        let analysis = analyze_workspace(&root, filter)
            .map_err(|e| format!("analyzing {}: {e}", root.display()))?;
        print!("{}", if *json { report::json(&analysis) } else { report::human(&analysis) });
        Ok(i32::from(*deny && !analysis.is_clean()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(args: &[&str]) -> (bool, bool, Option<PathBuf>, RuleFilter) {
        match parse(args) {
            Ok(Lint::Scan { deny, json, root, filter }) => (deny, json, root, filter),
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    fn filter(only: &[&str], exclude: &[&str]) -> RuleFilter {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        RuleFilter::new(&names(only), &names(exclude)).expect("known rules")
    }

    fn parse_err(args: &[&str]) -> String {
        parse(args).expect_err("a usage error")
    }

    #[test]
    fn lint_flags() {
        assert_eq!(scan(&[]), (false, false, None, RuleFilter::default()));
        assert_eq!(scan(&["--deny"]), (true, false, None, RuleFilter::default()));
        assert_eq!(scan(&["--deny", "--json"]), (true, true, None, RuleFilter::default()));
        assert_eq!(scan(&["--root", "/x"]).2, Some(PathBuf::from("/x")));
        assert_eq!(parse(&["--json", "--help"]), Ok(Lint::Help));
        assert!(parse_err(&["--quick"]).contains("unknown argument `--quick`"));
        assert!(parse_err(&["--root"]).contains("--root expects a value"));
        assert!(parse_err(&["--deny", "--only"]).contains("--only expects a value"));
    }

    #[test]
    fn lint_rule_filters() {
        assert_eq!(
            scan(&["--only", "taint-nondet-to-result"]).3,
            filter(&["taint-nondet-to-result"], &[])
        );
        // Repeatable and comma-separated, on both flags.
        assert_eq!(
            scan(&[
                "--only",
                "unwrap-in-lib,lossy-counter-cast",
                "--only",
                "wallclock-in-sim",
                "--exclude",
                "unused-suppression"
            ])
            .3,
            filter(
                &["unwrap-in-lib", "lossy-counter-cast", "wallclock-in-sim"],
                &["unused-suppression"]
            )
        );
        // Names are trimmed and empty ones dropped.
        assert_eq!(
            scan(&["--only", "taint-nondet-to-result, panic-reaches-handler"]).3,
            filter(&["taint-nondet-to-result", "panic-reaches-handler"], &[])
        );
        assert_eq!(
            scan(&["--only", "taint-nondet-to-result,,"]).3,
            filter(&["taint-nondet-to-result"], &[])
        );
        // Unknown rule names are usage errors.
        let err = parse_err(&["--only", "no-such-rule"]);
        assert!(err.contains("unknown rule `no-such-rule`"), "{err}");
        assert!(err.contains("taint-nondet-to-result"), "lists the known rules: {err}");
        let err = parse_err(&["--exclude", "nope"]);
        assert!(err.contains("unknown rule `nope`"), "{err}");
    }

    #[test]
    fn an_unreadable_root_is_an_error_not_a_report() {
        let lint = Lint::Scan {
            deny: false,
            json: false,
            root: Some(PathBuf::from("/nonexistent/mppm-analyze-root")),
            filter: RuleFilter::default(),
        };
        let err = lint.run().expect_err("an unreadable tree");
        assert!(err.contains("analyzing /nonexistent/mppm-analyze-root"), "{err}");
    }
}

//! `mppm-analyze` — a self-hosted, dependency-free static-analysis pass
//! over the MPPM workspace's own Rust sources.
//!
//! MPPM's value as a debunking tool rests on bit-exact reproducibility.
//! Earlier PRs *proved* the schedulers and caches equivalent with
//! differential oracles and resume byte-identical — but nothing
//! statically prevented the next change from reintroducing the exact bug
//! classes those PRs fixed. This crate encodes them as lint rules that
//! run on every build (see [`rules`] for the catalog):
//!
//! | rule | bug class |
//! |------|-----------|
//! | `float-partial-order`  | partial float orderings in sorts/merges (PR 3 `SchedKey`) |
//! | `nondet-map-iteration` | hash-order-dependent results |
//! | `non-atomic-write`     | torn store/journal/results files (PR 2) |
//! | `wallclock-in-sim`     | host-clock reads in simulated time |
//! | `unwrap-in-lib`        | undocumented panics in library code |
//! | `lossy-counter-cast`   | silent truncation of 64-bit counters |
//! | `uncompiled-hot-loop`  | per-item trace iteration outside the `reference_*` substrate |
//! | `blocking-in-handler`  | unbounded socket reads in server code, or reachable from a handler |
//! | `alloc-in-steady-loop` | heap allocation inside the simulator's steady-state loops, the profiler's chunk fill or the solver's step kernel |
//! | `taint-nondet-to-result` | nondeterminism laundered through helpers into results/journals/wire frames |
//! | `panic-reaches-handler` | panic sites reachable from a daemon request handler |
//!
//! The environment has no `clippy`/`syn`, so the pass is hand-rolled: a
//! small lexer ([`lexer`]) strips comments and literals; token-stream
//! rules emit per-line findings; and an item-level parser ([`parse`])
//! builds an intra-workspace call graph ([`callgraph`]) for the
//! inter-procedural determinism rules ([`taint`]), whose findings carry
//! the full source→…→sink call chain. Per-file facts are cached keyed on
//! a content fingerprint ([`facts`]) so warm runs only re-parse what
//! changed. Intentional exceptions are written in the code as
//!
//! ```text
//! // mppm-lint: allow(<rule>, <rule>...): <justification>
//! ```
//!
//! on (or directly above) the offending line. The justification is
//! mandatory; an allow without one, for an unknown rule, or that no
//! longer suppresses anything is itself a violation — suppressions rot
//! otherwise.

pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod taint;

use facts::{AllowFact, Candidate, FactCache, FileFacts};
use lexer::Lexed;
use rules::{all_rules, mark_test_regions, rule_names, Rule, Scope};
use std::path::{Path, PathBuf};

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Per-token flag: inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Whole file is test code (`#![cfg(test)]`).
    pub file_is_test: bool,
}

impl SourceFile {
    /// Lexes one in-memory source.
    pub fn parse(path: impl Into<String>, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let (in_test, file_is_test) = mark_test_regions(&lexed.toks);
        Self { path: path.into(), lexed, in_test, file_is_test }
    }

    pub(crate) fn in_tests_tree(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }

    fn is_lib_source(&self) -> bool {
        self.path.starts_with("crates/")
            && self.path.contains("/src/")
            && !self.path.contains("/src/bin/")
            && !self.path.ends_with("/main.rs")
    }

    /// Whether a rule with `scope` applies to the token at `tok`.
    fn scope_admits(&self, scope: Scope, tok: usize) -> bool {
        match scope {
            Scope::Everywhere => true,
            Scope::NonTest => {
                !self.file_is_test && !self.in_tests_tree() && !self.in_test[tok]
            }
            Scope::Lib => {
                self.is_lib_source()
                    && !self.file_is_test
                    && !self.in_tests_tree()
                    && !self.in_test[tok]
            }
        }
    }
}

/// One hop of an inter-procedural finding's call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Qualified function name (`Type::method` or bare fn name).
    pub func: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (the fact site for endpoint hops, else the fn decl).
    pub line: usize,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (includes the suppression meta-rules).
    pub rule: String,
    /// Explanation.
    pub message: String,
    /// Source→…→sink call chain for inter-procedural findings; empty
    /// for token-rule and meta findings.
    pub chain: Vec<ChainHop>,
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Files scanned.
    pub files: usize,
    /// Violations that survived suppression, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Findings silenced by a justified allow directive.
    pub suppressed: usize,
}

impl Analysis {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The reporting-only meta rules (not valid inside `allow(...)`, but
/// valid for `--only`/`--exclude`).
pub const META_RULES: &[&str] = &["invalid-suppression", "unused-suppression"];

/// Every rule name the CLI filters accept: checkable rules plus the
/// suppression meta rules.
pub fn known_rule_names() -> Vec<&'static str> {
    let mut names = rule_names();
    names.extend_from_slice(META_RULES);
    names
}

/// An `--only` / `--exclude` rule filter. Construction validates rule
/// names; an empty filter admits everything.
#[derive(Debug, Clone, Default)]
pub struct RuleFilter {
    only: Vec<String>,
    exclude: Vec<String>,
}

impl RuleFilter {
    /// Builds a filter, rejecting unknown rule names.
    ///
    /// # Errors
    ///
    /// A usage message naming the unknown rule and the known set.
    pub fn new(only: &[String], exclude: &[String]) -> Result<RuleFilter, String> {
        let known = known_rule_names();
        for name in only.iter().chain(exclude) {
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "unknown rule `{name}` (known rules: {})",
                    known.join(", ")
                ));
            }
        }
        Ok(RuleFilter { only: only.to_vec(), exclude: exclude.to_vec() })
    }

    /// Whether findings of `rule` are reported under this filter.
    pub fn admits(&self, rule: &str) -> bool {
        (self.only.is_empty() || self.only.iter().any(|r| r == rule))
            && !self.exclude.iter().any(|r| r == rule)
    }
}

/// Engine options: report filtering and the optional fact cache.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Rule filter applied at reporting time (facts are always complete,
    /// so the cache is filter-independent).
    pub filter: RuleFilter,
    /// Fact-cache file; `None` runs cold and writes nothing.
    pub cache: Option<PathBuf>,
}

/// The directive marker looked up inside line comments.
const MARKER: &str = "mppm-lint:";

/// Parses the allow directives of one file into `facts.allows`.
/// Malformed directives become `invalid-suppression` findings in
/// `facts.invalids`. One directive may name several rules:
/// `allow(a, b): why`.
fn parse_allows(file: &SourceFile, facts: &mut FileFacts) {
    let known = rule_names();
    for comment in &file.lexed.comments {
        // Only plain `//` comments issue directives. `///` / `//!` doc
        // comments (whose text starts with the third `/` or a `!`) may
        // legitimately *describe* the directive syntax.
        if comment.text.starts_with('/') || comment.text.starts_with('!') {
            continue;
        }
        let text = comment.text.trim();
        let Some(pos) = text.find(MARKER) else { continue };
        let invalid = |msg: String| Candidate {
            line: comment.line,
            rule: "invalid-suppression".into(),
            message: msg,
        };
        let directive = text[pos + MARKER.len()..].trim();
        let Some(rest) = directive.strip_prefix("allow(") else {
            facts.invalids.push(invalid(format!(
                "unrecognized mppm-lint directive `{directive}`; expected \
                 `mppm-lint: allow(<rule>): <justification>`"
            )));
            continue;
        };
        let Some(close) = rest.find(')') else {
            facts.invalids.push(invalid("unterminated `allow(` directive".into()));
            continue;
        };
        let rules: Vec<String> =
            rest[..close].split(',').map(|r| r.trim().to_string()).collect();
        let mut bad = false;
        for (i, rule) in rules.iter().enumerate() {
            if rule.is_empty() {
                facts.invalids.push(invalid(
                    "empty rule name in `allow(...)`; list each rule once, comma-separated"
                        .into(),
                ));
                bad = true;
            } else if !known.contains(&rule.as_str()) {
                facts.invalids.push(invalid(format!(
                    "allow names unknown rule `{rule}` (known: {})",
                    known.join(", ")
                )));
                bad = true;
            } else if rules[..i].contains(rule) {
                facts.invalids.push(invalid(format!(
                    "allow lists rule `{rule}` twice; name each rule once"
                )));
                bad = true;
            }
        }
        if bad {
            continue;
        }
        let after = rest[close + 1..].trim();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.is_empty() {
            let list = rules.join(", ");
            facts.invalids.push(invalid(format!(
                "allow({list}) carries no justification; write \
                 `mppm-lint: allow({list}): <why this site is sound>`"
            )));
            continue;
        }
        facts.allows.push(AllowFact {
            line: comment.line,
            rules,
            justification: justification.to_string(),
        });
    }
}

/// Computes the full fact set for one file: token-rule candidates
/// (post scope and path policy), suppression directives, and the parsed
/// `fn` items the call graph consumes.
fn compute_file_facts(path: &str, src: &str, rules: &[Box<dyn Rule>]) -> FileFacts {
    let file = SourceFile::parse(path, src);
    let mut facts = FileFacts {
        path: path.to_string(),
        fingerprint: facts::fingerprint(src),
        ..FileFacts::default()
    };
    parse_allows(&file, &mut facts);
    for rule in rules {
        if !rule.applies_to(&file.path) {
            continue;
        }
        for finding in rule.check(&file) {
            if !file.scope_admits(rule.scope(), finding.tok) {
                continue;
            }
            facts.candidates.push(Candidate {
                line: file.lexed.toks[finding.tok].line,
                rule: rule.name().into(),
                message: finding.message,
            });
        }
    }
    let parsed = parse::items(&file);
    facts.fns = parsed.fns;
    facts.aliases = parsed.aliases;
    facts.invalids.extend(parsed.invalids);
    facts
}

/// Analyzes in-memory `(path, source)` pairs with default options.
pub fn analyze_sources<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> Analysis {
    analyze_sources_opts(files, &AnalyzeOptions::default())
}

/// Analyzes in-memory `(path, source)` pairs. This is the whole engine;
/// [`analyze_workspace`] merely feeds it files from disk. With a cache
/// path in `opts`, per-file facts are reused when the content
/// fingerprint matches and the cache is rewritten afterwards (atomic
/// temp-file + rename; cache I/O failures degrade to a cold run, never
/// an error).
pub fn analyze_sources_opts<P: AsRef<str>, S: AsRef<str>>(
    files: &[(P, S)],
    opts: &AnalyzeOptions,
) -> Analysis {
    let rules = all_rules();
    let cache = opts.cache.as_deref().map(|p| FactCache::load(p, facts::cache_salt()));
    let mut all: Vec<FileFacts> = Vec::with_capacity(files.len());
    for (path, src) in files {
        let (path, src) = (path.as_ref(), src.as_ref());
        let fp = facts::fingerprint(src);
        let cached = cache.as_ref().and_then(|c| c.lookup(path, fp)).cloned();
        all.push(cached.unwrap_or_else(|| compute_file_facts(path, src, &rules)));
    }
    if let (Some(mut cache), Some(path)) = (cache, opts.cache.as_deref()) {
        cache.replace_all(&all);
        // Best-effort: a read-only tree still analyzes fine, just cold.
        let _ = cache.save(path);
    }
    assemble(&all, &opts.filter)
}

/// Cross-file assembly: builds the call graph, runs the graph rules,
/// applies suppression and the report filter, and sorts the report.
fn assemble(all: &[FileFacts], filter: &RuleFilter) -> Analysis {
    let graph = callgraph::Graph::build(all);
    let graph_findings = taint::check(&graph);
    let mut analysis = Analysis { files: all.len(), ..Analysis::default() };
    for facts in all {
        // Per-(directive, rule) usage tracking for unused-suppression.
        let mut used: Vec<Vec<bool>> =
            facts.allows.iter().map(|a| vec![false; a.rules.len()]).collect();
        let admit = |rule: &str, line: usize, used: &mut Vec<Vec<bool>>| -> Option<bool> {
            let mut hit = false;
            for (ai, allow) in facts.allows.iter().enumerate() {
                if allow.line != line && allow.line + 1 != line {
                    continue;
                }
                if let Some(ri) = allow.rules.iter().position(|r| r == rule) {
                    used[ai][ri] = true;
                    hit = true;
                }
            }
            // Usage is tracked even for filtered-out rules so `--only`
            // never manufactures unused-suppression noise.
            filter.admits(rule).then_some(hit)
        };
        for cand in &facts.candidates {
            match admit(&cand.rule, cand.line, &mut used) {
                Some(true) => analysis.suppressed += 1,
                Some(false) => analysis.violations.push(Violation {
                    file: facts.path.clone(),
                    line: cand.line,
                    rule: cand.rule.clone(),
                    message: cand.message.clone(),
                    chain: Vec::new(),
                }),
                None => {}
            }
        }
        for gf in graph_findings.iter().filter(|gf| gf.file == facts.path) {
            match admit(gf.rule, gf.line, &mut used) {
                Some(true) => analysis.suppressed += 1,
                Some(false) => analysis.violations.push(Violation {
                    file: facts.path.clone(),
                    line: gf.line,
                    rule: gf.rule.into(),
                    message: gf.message.clone(),
                    chain: gf.chain.clone(),
                }),
                None => {}
            }
        }
        if filter.admits("invalid-suppression") {
            for inv in &facts.invalids {
                analysis.violations.push(Violation {
                    file: facts.path.clone(),
                    line: inv.line,
                    rule: inv.rule.clone(),
                    message: inv.message.clone(),
                    chain: Vec::new(),
                });
            }
        }
        if filter.admits("unused-suppression") {
            for (ai, allow) in facts.allows.iter().enumerate() {
                for (ri, rule) in allow.rules.iter().enumerate() {
                    if used[ai][ri] {
                        continue;
                    }
                    analysis.violations.push(Violation {
                        file: facts.path.clone(),
                        line: allow.line,
                        rule: "unused-suppression".into(),
                        message: format!(
                            "allow({rule}) suppresses nothing (justified as: {}); remove it",
                            allow.justification
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }
    analysis
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    analysis
}

/// Collects the workspace's own `.rs` sources under `root`, skipping
/// build artifacts (`target/`), hidden directories, and the offline
/// dependency stand-ins (`crates/compat/` mimic *external* crates whose
/// APIs are outside our invariants). Paths come back sorted so analysis
/// order — and therefore report order — is deterministic.
///
/// # Errors
///
/// Any I/O error from walking or reading the tree.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "compat" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes the workspace rooted at `root` with default options (no
/// cache, no filter).
///
/// # Errors
///
/// Any I/O error from reading the tree.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze_sources(&workspace_sources(root)?))
}

/// Analyzes the workspace rooted at `root` with explicit options.
///
/// # Errors
///
/// Any I/O error from reading the tree.
pub fn analyze_workspace_opts(root: &Path, opts: &AnalyzeOptions) -> std::io::Result<Analysis> {
    Ok(analyze_sources_opts(&workspace_sources(root)?, opts))
}

/// Locates the workspace root by walking up from `start` to the first
/// directory holding both a `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

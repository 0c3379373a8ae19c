//! The determinism rule set.
//!
//! Each rule is a pure function over a lexed source file: it emits
//! candidate findings as token indices, and the engine in [`crate`]
//! applies scope filtering (test code, path policies) and suppression
//! comments. Rules are token-stream patterns — deliberately simple
//! enough to audit by eye, at the cost of being over-approximations
//! that the `// mppm-lint: allow(...)` escape hatch compensates for.

use crate::lexer::{Tok, TokKind};
use crate::SourceFile;

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// All scanned code, including tests and examples.
    Everywhere,
    /// Skips `#[cfg(test)]` / `#[test]` regions and `tests/` trees.
    NonTest,
    /// [`Scope::NonTest`] restricted to library sources
    /// (`crates/*/src/**`, excluding `src/bin/` and `main.rs`).
    Lib,
}

/// One candidate finding: the token it anchors on plus the message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Index into the file's token stream.
    pub tok: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// A lint rule.
pub trait Rule {
    /// Stable kebab-case rule name (used in `allow(...)` comments).
    fn name(&self) -> &'static str;
    /// One-line description for `--list` style output and docs.
    fn description(&self) -> &'static str;
    /// Scope policy.
    fn scope(&self) -> Scope;
    /// Per-file path policy on top of the scope (default: everywhere).
    fn applies_to(&self, _path: &str) -> bool {
        true
    }
    /// Emits candidate findings for one file.
    fn check(&self, file: &SourceFile) -> Vec<Finding>;
}

/// The full rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatPartialOrder),
        Box::new(NondetMapIteration),
        Box::new(NonAtomicWrite),
        Box::new(WallclockInSim),
        Box::new(UnwrapInLib),
        Box::new(LossyCounterCast),
        Box::new(UncompiledHotLoop),
        Box::new(BlockingInHandler),
        Box::new(AllocInSteadyLoop),
    ]
}

/// All checkable rule names — token rules plus the inter-procedural
/// graph rules ([`crate::taint`]) — for suppression validation and the
/// doc-catalog check. `blocking-in-handler` appears once: the token and
/// graph passes share the name (and suppressions).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    for name in crate::taint::graph_rule_names() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(Tok::ident)
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Matches `a::b` at token `i` (`i` is `a`).
fn path_pair(toks: &[Tok], i: usize, a: &str, b: &str) -> bool {
    ident_at(toks, i) == Some(a)
        && punct_at(toks, i + 1, ':')
        && punct_at(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some(b)
}

/// `float-partial-order` — the PR 3 `SchedKey` bug class: ordering floats
/// with `partial_cmp` is a *partial* order; a NaN (or a future refactor
/// that introduces one) makes sorts and merges order-dependent and
/// non-reproducible. Method-call positions (`.partial_cmp(`) are flagged;
/// `fn partial_cmp` definitions inside `PartialOrd` impls are not.
pub struct FloatPartialOrder;

impl Rule for FloatPartialOrder {
    fn name(&self) -> &'static str {
        "float-partial-order"
    }
    fn description(&self) -> &'static str {
        "float ordering via `.partial_cmp(...)` (incl. inside `sort_by`) instead of `mppm::stats::total_cmp`"
    }
    fn scope(&self) -> Scope {
        Scope::Everywhere
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 1..toks.len() {
            if ident_at(toks, i) == Some("partial_cmp") && punct_at(toks, i - 1, '.') {
                out.push(Finding {
                    tok: i,
                    message: "`.partial_cmp(...)` is a partial order (NaN poisons sort/merge \
                              determinism); use `mppm::stats::total_cmp` or `f64::total_cmp`"
                        .into(),
                });
            }
        }
        out
    }
}

/// `nondet-map-iteration` — `HashMap`/`HashSet` iteration order varies
/// across processes (and std versions), so any result that flows through
/// map iteration is non-reproducible. Result-producing code must use the
/// BTree variants; provably iteration-free uses carry a justified allow.
pub struct NondetMapIteration;

impl Rule for NondetMapIteration {
    fn name(&self) -> &'static str {
        "nondet-map-iteration"
    }
    fn description(&self) -> &'static str {
        "`HashMap`/`HashSet` in result-producing code; iteration order is nondeterministic"
    }
    fn scope(&self) -> Scope {
        Scope::NonTest
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
                out.push(Finding {
                    tok: i,
                    message: format!(
                        "`{name}` iteration order is nondeterministic; use `{}` in \
                         result-producing code, or justify that this map is never iterated",
                        if name == "HashMap" { "BTreeMap" } else { "BTreeSet" }
                    ),
                });
            }
        }
        out
    }
}

/// `non-atomic-write` — a `std::fs::write`/`File::create` that a kill can
/// tear mid-buffer, leaving a corrupt store entry, journal shard or
/// results table behind (the gap PR 2 closed for JSON caches). The
/// campaign journal appends records without a rename: each is
/// checksummed, and its readers end a segment at the first torn one.
pub struct NonAtomicWrite;

impl Rule for NonAtomicWrite {
    fn name(&self) -> &'static str {
        "non-atomic-write"
    }
    fn description(&self) -> &'static str {
        "`fs::write`/`File::create` outside the atomic temp-file+rename writers; the one \
         sanctioned non-rename writer is the campaign journal's checksummed record append"
    }
    fn scope(&self) -> Scope {
        Scope::Everywhere
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if path_pair(toks, i, "fs", "write") || path_pair(toks, i, "File", "create") {
                out.push(Finding {
                    tok: i,
                    message: "non-atomic file write can be torn by a kill; route through \
                              `mppm_experiments::atomic_write_bytes`/`atomic_write_json` \
                              (temp file + rename)"
                        .into(),
                });
            }
        }
        out
    }
}

/// Files whose wall-clock reads are the *measurement*: benchmark code and
/// the `speed` harness. `wallclock-in-sim` skips them and the taint pass
/// takes no nondeterminism sources from them.
pub(crate) fn timing_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path == "crates/experiments/src/speed.rs"
}

/// `wallclock-in-sim` — host-clock reads (`Instant::now`, `SystemTime`)
/// anywhere but benchmarking/speed-measurement code. Simulated time must
/// come from the simulator; wall-clock telemetry is legitimate only where
/// it is the *measurement*, and such sites carry a justified allow.
pub struct WallclockInSim;

impl Rule for WallclockInSim {
    fn name(&self) -> &'static str {
        "wallclock-in-sim"
    }
    fn description(&self) -> &'static str {
        "`Instant::now`/`SystemTime` outside bench/speed timing code"
    }
    fn scope(&self) -> Scope {
        Scope::Everywhere
    }
    fn applies_to(&self, path: &str) -> bool {
        !timing_exempt(path)
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            let hit = path_pair(toks, i, "Instant", "now")
                || ident_at(toks, i) == Some("SystemTime");
            if hit {
                out.push(Finding {
                    tok: i,
                    message: "wall-clock read in simulation code: simulated time must be \
                              deterministic; only bench/speed timing may read the host clock"
                        .into(),
                });
            }
        }
        out
    }
}

/// `unwrap-in-lib` — `.unwrap()` in library code, and `.expect(...)`
/// whose argument is not a non-empty string literal. A panic in library
/// code kills a whole campaign shard; where a panic is genuinely an
/// invariant, `.expect("why this cannot fail")` documents it — that
/// form is the blessed fix, anything terser is flagged.
pub struct UnwrapInLib;

impl Rule for UnwrapInLib {
    fn name(&self) -> &'static str {
        "unwrap-in-lib"
    }
    fn description(&self) -> &'static str {
        "`.unwrap()` (or `.expect` without a static message) in library code outside `#[cfg(test)]`"
    }
    fn scope(&self) -> Scope {
        Scope::Lib
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 1..toks.len() {
            if !punct_at(toks, i - 1, '.') {
                continue;
            }
            match ident_at(toks, i) {
                Some("unwrap") if punct_at(toks, i + 1, '(') => out.push(Finding {
                    tok: i,
                    message: "`.unwrap()` in library code: return an error or document the \
                              invariant with `.expect(\"...\")`"
                        .into(),
                }),
                Some("expect") if punct_at(toks, i + 1, '(') => {
                    let arg_ok = toks
                        .get(i + 2)
                        .is_some_and(|t| t.kind == TokKind::Str && !t.text.trim().is_empty());
                    if !arg_ok {
                        out.push(Finding {
                            tok: i,
                            message: "`.expect(...)` without a non-empty string-literal message: \
                                      state the invariant that makes the panic unreachable"
                                .into(),
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// `lossy-counter-cast` — `as` casts to a sub-64-bit integer type can
/// silently truncate `u64`/`u128` counters (instruction counts, cycle
/// clocks, mix ranks). Use `try_from` with a documented invariant, or
/// justify the bound in an allow comment on hot paths.
pub struct LossyCounterCast;

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

impl Rule for LossyCounterCast {
    fn name(&self) -> &'static str {
        "lossy-counter-cast"
    }
    fn description(&self) -> &'static str {
        "narrowing `as` cast that can silently truncate 64-bit counters"
    }
    fn scope(&self) -> Scope {
        Scope::NonTest
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 0..toks.len() {
            if ident_at(toks, i) == Some("as") {
                if let Some(target) = ident_at(toks, i + 1) {
                    if NARROW_TARGETS.contains(&target) {
                        out.push(Finding {
                            tok: i,
                            message: format!(
                                "`as {target}` silently truncates wider counters; use \
                                 `{target}::try_from(...)` with a documented invariant"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// `uncompiled-hot-loop` — direct per-item `TraceStream` driving
/// (`.next_item()` calls) in simulation code. Hot simulation loops
/// replay trace items as packed op words: chunks a generator thread
/// streams in (`PhaseRun::refill` generates in bulk) or copies from the
/// runs of a `CompiledTrace`. Per-item generation survives only as the
/// differential reference substrate, and such loops must live in
/// functions named `reference_*` so the differential harness can find
/// them — anywhere else, a per-item loop is either a perf regression or
/// an unchecked fork of the execution semantics. The generator/compiler
/// crate (`crates/trace/src/`) is exempt: it *defines* `next_item` and
/// the op-word filler.
pub struct UncompiledHotLoop;

impl Rule for UncompiledHotLoop {
    fn name(&self) -> &'static str {
        "uncompiled-hot-loop"
    }
    fn description(&self) -> &'static str {
        "per-item `.next_item()` loop outside `reference_*` functions; replay packed ops instead"
    }
    fn scope(&self) -> Scope {
        Scope::NonTest
    }
    fn applies_to(&self, path: &str) -> bool {
        !path.starts_with("crates/trace/src/")
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let in_reference = mark_reference_fns(toks);
        let mut out = Vec::new();
        for (i, &in_reference) in in_reference.iter().enumerate().skip(1) {
            if ident_at(toks, i) == Some("next_item")
                && punct_at(toks, i - 1, '.')
                && punct_at(toks, i + 1, '(')
                && !in_reference
            {
                out.push(Finding {
                    tok: i,
                    message: "per-item `.next_item()` drive in simulation code: replay \
                              packed ops (`CompiledTrace` blocks or streamed chunks), or name \
                              the enclosing fn `reference_*` if this loop *is* the \
                              differential reference"
                        .into(),
                });
            }
        }
        out
    }
}

/// `blocking-in-handler` — unbounded reads (`.read_to_end(...)`,
/// `.read_to_string(...)`) in the server crate. A connection handler
/// that waits for EOF before parsing can be stalled indefinitely by one
/// slow or malicious client, and sidesteps the `MAX_LINE` bound the
/// line-framed protocol enforces; server code must drain sockets
/// through the bounded `FrameReader`. The rule covers the whole crate
/// (tests included): a blocked test hangs CI just as effectively.
///
/// This token pass polices literal sites inside `crates/server`; the
/// call-graph pass in [`crate::taint`] extends the same rule name to
/// unbounded reads in *any* crate whose containing function is
/// reachable from a daemon handler.
pub struct BlockingInHandler;

impl Rule for BlockingInHandler {
    fn name(&self) -> &'static str {
        "blocking-in-handler"
    }
    fn description(&self) -> &'static str {
        "unbounded `.read_to_end`/`.read_to_string` in server code; use the bounded `FrameReader`"
    }
    fn scope(&self) -> Scope {
        Scope::Everywhere
    }
    fn applies_to(&self, path: &str) -> bool {
        path.starts_with("crates/server/")
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let mut out = Vec::new();
        for i in 1..toks.len() {
            if let Some(name @ ("read_to_end" | "read_to_string")) = ident_at(toks, i) {
                if punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(') {
                    out.push(Finding {
                        tok: i,
                        message: format!(
                            "`.{name}(...)` blocks until EOF, so one stalled client wedges \
                             the handler and the 1 MiB line bound is never enforced; read \
                             frames through the bounded `FrameReader`"
                        ),
                    });
                }
            }
        }
        out
    }
}

/// `alloc-in-steady-loop` — heap allocation (`Vec::new()`, `vec![...]`,
/// `Box::new(...)`) inside the steady-state loops: the simulator's
/// fed burst loops and scheduler interleave loop, and the model
/// solver's per-step window kernel. Since the `SimArena` and
/// `SolverScratch` landed, warm mixes are allocation-free in both
/// (proven by the counting-allocator test and the per-step scratch
/// reuse); an allocation introduced into these bodies silently regresses
/// that guarantee long before the bench notices. `reference_*` functions
/// (the differential substrates) and test code are exempt.
pub struct AllocInSteadyLoop;

/// Function bodies that constitute the allocation-free steady state:
/// the fed burst loops (`burst` and `walk` around `run_fed_until_llc`
/// and `run_fed`), their op walk and LLC commit, the chunk refeeds, the
/// skip-ahead burst (`try_skip` with its `binade_advance` and
/// `skip_segment`, the `catch_up` walk, the recording's
/// `close_segment`), the per-engine drive dispatcher, the chunk cuts
/// (the generator loop and chunk refill — run on the generator thread,
/// which must not allocate — and a cached replay's cut and copy), the
/// generator's per-op draws (`draw_index`, the gap table's `gap_of` with
/// its `exact_gap` tail, `sample_access` with `region_of` and
/// `is_store`), the set kernel's signature match (`find_way`, `signature`,
/// `lanes_equal` with `lane_bits`, `with_lane`), the
/// scheduler interleave loop, and the solver: its step loop (`solve`),
/// the lockstep window walks (run once per program-step) with their
/// whole-interval helpers, the window SDC's write-back, and the
/// contention models' per-step extra misses. Every entry names a live `fn`
/// (`steady_loop_fns_name_live_kernels` below), so a rename cannot
/// silently drop a kernel from the rule.
const STEADY_LOOP_FNS: &[&str] = &[
    "burst",
    "walk",
    "run_fed_until_llc",
    "run_fed",
    "walk_ops",
    "refeed",
    "try_skip",
    "binade_advance",
    "skip_segment",
    "catch_up",
    "close_segment",
    "commit_llc",
    "run_until_llc",
    "generate_items",
    "refill",
    "draw_index",
    "gap_of",
    "exact_gap",
    "sample_access",
    "region_of",
    "is_store",
    "find_way",
    "signature",
    "lanes_equal",
    "lane_bits",
    "with_lane",
    "cut",
    "copy_from",
    "event_interleave_into",
    "lockstep_window_cycles",
    "lockstep_advance",
    "lockstep_windows",
    "interval_after",
    "land",
    "add_counters",
    "solve",
    "extra_misses",
];

impl Rule for AllocInSteadyLoop {
    fn name(&self) -> &'static str {
        "alloc-in-steady-loop"
    }
    fn description(&self) -> &'static str {
        "`Vec::new`/`vec![]`/`Box::new` inside the burst kernel, the profiler's chunk fill, the scheduler event loop or the solver step kernel"
    }
    fn scope(&self) -> Scope {
        Scope::NonTest
    }
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let toks = &file.lexed.toks;
        let in_steady = mark_fn_bodies(toks, |name| STEADY_LOOP_FNS.contains(&name));
        let mut out = Vec::new();
        for (i, &in_steady) in in_steady.iter().enumerate() {
            if !in_steady {
                continue;
            }
            let what = if path_pair(toks, i, "Vec", "new") || path_pair(toks, i, "Box", "new") {
                // Avoid double-reporting `Vec::new` at the `new` token.
                Some(format!(
                    "`{}::new`",
                    ident_at(toks, i).expect("path_pair matched an ident")
                ))
            } else if ident_at(toks, i) == Some("vec") && punct_at(toks, i + 1, '!') {
                Some("`vec![...]`".to_string())
            } else {
                None
            };
            if let Some(what) = what {
                out.push(Finding {
                    tok: i,
                    message: format!(
                        "{what} allocates inside a steady-state loop; warm mixes must stay \
                         allocation-free — reuse a `SimArena` or `SolverScratch` pool (sized \
                         outside the loop) instead"
                    ),
                });
            }
        }
        out
    }
}

/// Marks tokens inside the bodies of functions named `reference_*` —
/// the blessed per-item differential substrate. Brace-matched from each
/// `fn reference_…` keyword through its body's closing `}`.
fn mark_reference_fns(toks: &[Tok]) -> Vec<bool> {
    mark_fn_bodies(toks, |name| name.starts_with("reference_"))
}

/// Marks tokens inside the bodies of functions whose name satisfies
/// `matches`. Brace-matched from each `fn` keyword through its body's
/// closing `}`.
fn mark_fn_bodies(toks: &[Tok], matches: impl Fn(&str) -> bool) -> Vec<bool> {
    let mut inside = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let is_ref_fn = ident_at(toks, i) == Some("fn")
            && ident_at(toks, i + 1).is_some_and(&matches);
        if !is_ref_fn {
            i += 1;
            continue;
        }
        // Find the body's opening `{` (a `;` means a trait-method
        // signature with no body — nothing to mark).
        let mut k = i + 2;
        while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
            k += 1;
        }
        if !punct_at(toks, k, '{') {
            i = k + 1;
            continue;
        }
        let mut braces = 0usize;
        let mut m = k;
        while m < toks.len() {
            if punct_at(toks, m, '{') {
                braces += 1;
            } else if punct_at(toks, m, '}') {
                braces -= 1;
                if braces == 0 {
                    break;
                }
            }
            m += 1;
        }
        for flag in inside.iter_mut().take(m.min(toks.len() - 1) + 1).skip(i) {
            *flag = true;
        }
        i = m + 1;
    }
    inside
}

/// Marks which tokens sit inside test-only code: any item annotated
/// `#[test]` or `#[cfg(test)]` (including `cfg(all(test, ...))`, but not
/// `cfg(not(test))`), plus whole files carrying an inner `#![cfg(test)]`.
///
/// Returns the per-token flags and whether the entire file is test code.
pub fn mark_test_regions(toks: &[Tok]) -> (Vec<bool>, bool) {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !punct_at(toks, i, '#') {
            i += 1;
            continue;
        }
        let inner = punct_at(toks, i + 1, '!');
        let open = i + 1 + usize::from(inner);
        if !punct_at(toks, open, '[') {
            i += 1;
            continue;
        }
        // Collect identifier texts inside the attribute brackets.
        let mut depth = 0usize;
        let mut j = open;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            if punct_at(toks, j, '[') {
                depth += 1;
            } else if punct_at(toks, j, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(id) = ident_at(toks, j) {
                idents.push(id);
            }
            j += 1;
        }
        let is_test_attr = idents.contains(&"test")
            && !idents.contains(&"not")
            && matches!(idents.first(), Some(&"test") | Some(&"cfg"));
        if is_test_attr {
            if inner {
                return (vec![true; toks.len()], true);
            }
            // Mark up to the end of the annotated item: the block after
            // the next `{`, or through the `;` for block-less items.
            let mut k = j + 1;
            while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
                k += 1;
            }
            let end = if punct_at(toks, k, '{') {
                let mut braces = 0usize;
                let mut m = k;
                while m < toks.len() {
                    if punct_at(toks, m, '{') {
                        braces += 1;
                    } else if punct_at(toks, m, '}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                m
            } else {
                k
            };
            for flag in in_test.iter_mut().take(end.min(toks.len() - 1) + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
            continue;
        }
        i = j + 1;
    }
    (in_test, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn steady_loop_fns_name_live_kernels() {
        let root = crate::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the analyzer builds inside the workspace");
        let sources = crate::workspace_sources(&root).expect("workspace sources are readable");
        let defined: std::collections::BTreeSet<String> = sources
            .iter()
            .flat_map(|(path, src)| crate::parse::items(&SourceFile::parse(path.as_str(), src)).fns)
            .map(|f| f.name)
            .collect();
        for name in STEADY_LOOP_FNS {
            assert!(
                defined.contains(*name),
                "STEADY_LOOP_FNS names `{name}`, which no non-test source defines"
            );
        }
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {} #[cfg(test)] mod tests { fn helper() {} } fn live2() {}";
        let l = lex(src);
        let (flags, whole) = mark_test_regions(&l.toks);
        assert!(!whole);
        let by_name = |name: &str| {
            l.toks
                .iter()
                .position(|t| t.ident() == Some(name))
                .map(|i| flags[i])
                .expect("token present")
        };
        assert!(!by_name("live"));
        assert!(by_name("helper"));
        assert!(!by_name("live2"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))] fn prod() {}";
        let l = lex(src);
        let (flags, _) = mark_test_regions(&l.toks);
        assert!(flags.iter().all(|f| !f), "cfg(not(test)) is not test code");
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn anything() {}";
        let l = lex(src);
        let (flags, whole) = mark_test_regions(&l.toks);
        assert!(whole);
        assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn reference_fn_bodies_are_marked_exactly() {
        let src = "fn hot() { s.next_item(); } \
                   fn reference_drive(s: &mut S) { loop { s.next_item(); } } \
                   fn hot2() { s.next_item(); }";
        let l = lex(src);
        let flags = mark_reference_fns(&l.toks);
        let calls: Vec<bool> = l
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("next_item"))
            .map(|(i, _)| flags[i])
            .collect();
        assert_eq!(calls, [false, true, false]);
    }

    #[test]
    fn should_panic_attr_is_not_test_marker() {
        // `expected = "..."` carries no `test` ident; and a bare
        // `#[should_panic]` must not hide the fn body either.
        let src = "#[should_panic(expected = \"boom\")] fn f() { x.g(); }";
        let l = lex(src);
        let (flags, _) = mark_test_regions(&l.toks);
        assert!(flags.iter().all(|f| !f));
    }
}

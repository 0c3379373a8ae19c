//! Per-file analysis facts.
//!
//! Everything the engine needs from one source file is distilled into a
//! [`FileFacts`] value: token-rule candidates, suppression directives,
//! and the `fn`-item facts the call graph ([`crate::callgraph`]) is
//! built from. The per-file pass computes them; the cross-file pass
//! reads only these, never the tokens.

/// One post-scope candidate finding from a token rule, or a meta finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// 1-based source line.
    pub line: usize,
    /// Rule name.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// A parsed `// mppm-lint: allow(rule, ...): justification` directive.
/// One directive can name several rules; each is tracked separately for
/// the `unused-suppression` meta rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// The rules named inside `allow(...)`, in written order.
    pub rules: Vec<String>,
    /// The mandatory justification text.
    pub justification: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(...)` — resolved by name: same file, then same crate,
    /// then workspace-unique.
    Free,
    /// `Type::method(...)` / `module::helper(...)` — resolved through
    /// the qualifier.
    Path,
    /// `.method(...)` — bound to *every* workspace method of that name
    /// (the over-approximation that stands in for dynamic dispatch).
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// 1-based line of the callee name.
    pub line: usize,
    /// Resolution strategy.
    pub kind: CallKind,
    /// Innermost path qualifier (`Type` in `Type::method`); empty for
    /// [`CallKind::Free`] and [`CallKind::Method`].
    pub qualifier: String,
    /// Callee name.
    pub name: String,
}

/// One intra-function fact site: a nondeterminism source, a panic site,
/// or a blocking read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFact {
    /// 1-based source line.
    pub line: usize,
    /// Site class (`wallclock`, `env-read`, `panic`, `blocking`, ...).
    pub kind: String,
    /// The matched pattern, for messages (`Instant::now`, `.unwrap()`).
    pub what: String,
}

/// One non-test `fn` item with everything the call graph needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFact {
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an `impl` block, else the bare name.
    pub qual: String,
    /// Declared a determinism sink via `// mppm-taint: sink`.
    pub is_sink: bool,
    /// Declared a request handler via `// mppm-taint: handler`.
    pub is_handler: bool,
    /// Call sites, in source order.
    pub calls: Vec<CallFact>,
    /// Nondeterminism sources, in source order.
    pub sources: Vec<SiteFact>,
    /// Panic sites, in source order.
    pub panics: Vec<SiteFact>,
    /// Unbounded blocking reads, in source order.
    pub blocking: Vec<SiteFact>,
}

/// Everything the engine needs from one source file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Post-scope token-rule candidates (pre-suppression).
    pub candidates: Vec<Candidate>,
    /// Malformed-directive findings (never suppressible).
    pub invalids: Vec<Candidate>,
    /// Suppression directives.
    pub allows: Vec<AllowFact>,
    /// `use ... as alias` renames: `(alias, real last segment)`.
    pub aliases: Vec<(String, String)>,
    /// Non-test `fn` items, in source order.
    pub fns: Vec<FnFact>,
}

//! Item-level parsing on top of the lexer: `fn` items with brace-matched
//! bodies, `impl` blocks, `use` aliases, and the per-function facts the
//! call graph consumes (call sites, nondeterminism sources, panic sites,
//! blocking reads, and `mppm-taint` annotations).
//!
//! Like the token rules, this is an over-approximation by design: calls
//! are resolved later by name (see [`crate::callgraph`]), and anything
//! ambiguous binds to every plausible callee. Test code (`#[cfg(test)]`
//! regions, `tests/` trees) contributes no items — the inter-procedural
//! rules reason about the shipped call graph only.
//!
//! Sink and handler roles are declared in the code itself with a line
//! comment directly above (within three lines of) the `fn` item:
//!
//! ```text
//! // mppm-taint: sink
//! // mppm-taint: handler
//! ```
//!
//! A directive that attaches to no `fn`, or misspells the role, is an
//! `invalid-suppression` finding — annotations must not rot either.

use crate::facts::{CallFact, CallKind, Candidate, FnFact, SiteFact};
use crate::lexer::{Tok, TokKind};
use crate::SourceFile;

/// The taint-annotation marker looked up inside line comments.
const TAINT_MARKER: &str = "mppm-taint:";

/// Identifiers that precede `(` without being calls.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "mut",
    "ref", "unsafe", "dyn", "impl", "use", "pub", "where", "break", "continue", "struct", "enum",
    "trait", "type", "const", "static", "crate", "super", "self", "Self", "mod", "extern",
    "async", "await", "yield", "fn", "box",
];

/// Panic-producing macros tracked by `panic-reaches-handler`. The assert
/// family is deliberately absent: asserts state invariants and litter hot
/// paths; the rule targets unconditional aborts and unchecked accesses.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The parsed items of one file.
#[derive(Debug, Default)]
pub struct ParsedItems {
    /// Non-test `fn` items in source order.
    pub fns: Vec<FnFact>,
    /// `use ... as alias` renames: `(alias, real last segment)`.
    pub aliases: Vec<(String, String)>,
    /// Malformed or unattached `mppm-taint` directives.
    pub invalids: Vec<Candidate>,
}

/// A discovered `fn` item before fact attachment.
struct RawFn {
    name: String,
    qual: String,
    line: usize,
    /// Token span of the body, `[open brace, close brace]`.
    body: (usize, usize),
    is_test: bool,
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

/// Index of the brace matching the `{` at `open` (or the last token).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if punct_at(toks, i, '{') {
            depth += 1;
        } else if punct_at(toks, i, '}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Parses the items of one file. Test files contribute nothing.
pub fn items(file: &SourceFile) -> ParsedItems {
    let mut out = ParsedItems::default();
    if file.file_is_test || file.in_tests_tree() {
        return out;
    }
    let toks = &file.lexed.toks;
    let raw = collect_fns(file);
    attach_annotations(file, &raw, &mut out);
    collect_aliases(toks, &mut out.aliases);

    // Innermost-wins owner map: nested fns are discovered after their
    // enclosing fn, so later writes attribute shared tokens correctly.
    let mut owner = vec![usize::MAX; toks.len()];
    for (idx, f) in raw.iter().enumerate() {
        for o in owner.iter_mut().take(f.body.1 + 1).skip(f.body.0) {
            *o = idx;
        }
    }

    let exempt = crate::rules::timing_exempt(&file.path);
    let mut calls: Vec<Vec<CallFact>> = raw.iter().map(|_| Vec::new()).collect();
    let mut sources: Vec<Vec<SiteFact>> = raw.iter().map(|_| Vec::new()).collect();
    let mut panics: Vec<Vec<SiteFact>> = raw.iter().map(|_| Vec::new()).collect();
    let mut blocking: Vec<Vec<SiteFact>> = raw.iter().map(|_| Vec::new()).collect();
    for i in 0..toks.len() {
        let o = owner[i];
        if o == usize::MAX || raw[o].is_test || file.in_test[i] {
            continue;
        }
        let line = toks[i].line;
        if let Some(name) = toks[i].ident() {
            if punct_at(toks, i + 1, '(') && ident_at(toks, i.wrapping_sub(1)) != Some("fn") {
                if let Some(call) = classify_call(toks, i, name) {
                    calls[o].push(CallFact { line, ..call });
                }
            }
            if punct_at(toks, i + 1, '!') && PANIC_MACROS.contains(&name) {
                panics[o].push(SiteFact {
                    line,
                    kind: "panic".into(),
                    what: format!("{name}!"),
                });
            }
            if name == "unwrap" && punct_at(toks, i.wrapping_sub(1), '.') && punct_at(toks, i + 1, '(')
            {
                panics[o].push(SiteFact { line, kind: "panic".into(), what: ".unwrap()".into() });
            }
            if matches!(name, "read_to_end" | "read_to_string")
                && punct_at(toks, i.wrapping_sub(1), '.')
                && punct_at(toks, i + 1, '(')
            {
                blocking[o].push(SiteFact {
                    line,
                    kind: "blocking".into(),
                    what: format!(".{name}(...)"),
                });
            }
            if !exempt {
                if let Some(site) = classify_source(toks, i, name) {
                    sources[o].push(SiteFact { line, ..site });
                }
            }
        }
        if slice_index_at(toks, i) {
            panics[o].push(SiteFact {
                line,
                kind: "panic".into(),
                what: "slice index `[...]`".into(),
            });
        }
    }

    // `attach_annotations` pre-seeded `out.fns` with the non-test fns in
    // the same source order; zip the extracted facts back positionally.
    let mut fact_idx = 0;
    for (idx, f) in raw.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let fact = &mut out.fns[fact_idx];
        fact_idx += 1;
        fact.calls = std::mem::take(&mut calls[idx]);
        fact.sources = std::mem::take(&mut sources[idx]);
        fact.panics = std::mem::take(&mut panics[idx]);
        fact.blocking = std::mem::take(&mut blocking[idx]);
    }
    out
}

/// Whether the token at `i` names a call, and how.
fn classify_call(toks: &[Tok], i: usize, name: &str) -> Option<CallFact> {
    if punct_at(toks, i.wrapping_sub(1), '.') {
        return Some(CallFact {
            line: 0,
            kind: CallKind::Method,
            qualifier: String::new(),
            name: name.to_string(),
        });
    }
    if i >= 3
        && punct_at(toks, i - 1, ':')
        && punct_at(toks, i - 2, ':')
        && ident_at(toks, i - 3).is_some()
    {
        let qualifier = ident_at(toks, i - 3).unwrap_or_default().to_string();
        return Some(CallFact {
            line: 0,
            kind: CallKind::Path,
            qualifier,
            name: name.to_string(),
        });
    }
    if NON_CALL_IDENTS.contains(&name) {
        return None;
    }
    Some(CallFact { line: 0, kind: CallKind::Free, qualifier: String::new(), name: name.to_string() })
}

/// Classifies the nondeterminism-source patterns at token `i`.
fn classify_source(toks: &[Tok], i: usize, name: &str) -> Option<SiteFact> {
    let site = |kind: &str, what: String| Some(SiteFact { line: 0, kind: kind.into(), what });
    if path_pair(toks, i, "Instant", "now") {
        return site("wallclock", "Instant::now".into());
    }
    if name == "SystemTime" {
        return site("wallclock", "SystemTime".into());
    }
    // `std::env::var` and friends: ambient process state. `env::args` is
    // deliberately *not* a source — argv is the program's explicit input.
    if matches!(name, "var" | "var_os" | "vars" | "vars_os")
        && i >= 3
        && punct_at(toks, i - 1, ':')
        && punct_at(toks, i - 2, ':')
        && ident_at(toks, i - 3) == Some("env")
    {
        return site("env-read", format!("env::{name}"));
    }
    if path_pair(toks, i, "thread", "current") {
        return site("thread-id", "thread::current".into());
    }
    if name == "available_parallelism" {
        return site("thread-count", "available_parallelism".into());
    }
    if matches!(name, "thread_rng" | "from_entropy" | "OsRng" | "getrandom") {
        return site("entropy", name.to_string());
    }
    if matches!(name, "HashMap" | "HashSet") {
        return site("hash-order", name.to_string());
    }
    None
}

/// Whether the `[` at token `i` is a fallible index expression: the
/// previous token ends a value (`ident`, `)`, `]`), and the index is not
/// a leading constant (`buf[0]`, `buf[0..n]`) or the infallible full
/// range (`buf[..]`).
fn slice_index_at(toks: &[Tok], i: usize) -> bool {
    if !punct_at(toks, i, '[') {
        return false;
    }
    let prev_is_value = i > 0
        && (toks[i - 1].kind == TokKind::Ident
            || toks[i - 1].is_punct(')')
            || toks[i - 1].is_punct(']'));
    if !prev_is_value {
        return false;
    }
    if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Num) {
        return false;
    }
    let full_range =
        punct_at(toks, i + 1, '.') && punct_at(toks, i + 2, '.') && punct_at(toks, i + 3, ']');
    !full_range
}

/// Walks the token stream collecting `fn` items with an `impl`-type
/// stack for qualification. Nested fns are discovered in outer-to-inner
/// order (the owner map relies on this).
fn collect_fns(file: &SourceFile) -> Vec<RawFn> {
    let toks = &file.lexed.toks;
    let mut out = Vec::new();
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while impls.last().is_some_and(|(_, close)| *close < i) {
            impls.pop();
        }
        match ident_at(toks, i) {
            Some("impl") => {
                // Scan the header for the implemented-on type: the last
                // angle-depth-0 identifier before the body (stopping at
                // `where`), which handles `impl Trait for path::Type<T>`.
                let mut ty = String::new();
                let mut angle = 0usize;
                let mut k = i + 1;
                while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
                    if punct_at(toks, k, '<') {
                        angle += 1;
                    } else if punct_at(toks, k, '>') {
                        angle = angle.saturating_sub(1);
                    } else if angle == 0 {
                        match ident_at(toks, k) {
                            Some("where") => break,
                            Some("for") => {}
                            Some(id) => ty = id.to_string(),
                            None => {}
                        }
                    }
                    k += 1;
                }
                while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
                    k += 1;
                }
                if punct_at(toks, k, '{') {
                    impls.push((ty, match_brace(toks, k)));
                }
                i = k + 1;
            }
            Some("fn") => {
                let Some(name) = ident_at(toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let mut k = i + 2;
                while k < toks.len() && !punct_at(toks, k, '{') && !punct_at(toks, k, ';') {
                    k += 1;
                }
                if punct_at(toks, k, '{') {
                    let close = match_brace(toks, k);
                    let qual = match impls.last() {
                        Some((ty, _)) if !ty.is_empty() => format!("{ty}::{name}"),
                        _ => name.clone(),
                    };
                    out.push(RawFn {
                        name,
                        qual,
                        line: toks[i].line,
                        body: (k, close),
                        is_test: file.in_test[i],
                    });
                }
                i = k + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses `mppm-taint` directives and attaches them to the nearest `fn`
/// at or within three lines below the comment; pre-seeds `out.fns` with
/// one [`FnFact`] per non-test fn.
fn attach_annotations(file: &SourceFile, raw: &[RawFn], out: &mut ParsedItems) {
    for f in raw {
        if !f.is_test {
            out.fns.push(FnFact {
                line: f.line,
                name: f.name.clone(),
                qual: f.qual.clone(),
                ..FnFact::default()
            });
        }
    }
    for comment in &file.lexed.comments {
        // Doc comments may describe the syntax without issuing it.
        if comment.text.starts_with('/') || comment.text.starts_with('!') {
            continue;
        }
        let text = comment.text.trim();
        let Some(pos) = text.find(TAINT_MARKER) else { continue };
        let directive = text[pos + TAINT_MARKER.len()..].trim();
        let role = directive
            .split(|c: char| c == ':' || c.is_whitespace())
            .next()
            .unwrap_or_default();
        if !matches!(role, "sink" | "handler") {
            out.invalids.push(Candidate {
                line: comment.line,
                rule: "invalid-suppression".into(),
                message: format!(
                    "unrecognized mppm-taint role `{role}`; expected `mppm-taint: sink` or \
                     `mppm-taint: handler`"
                ),
            });
            continue;
        }
        let target = out
            .fns
            .iter_mut()
            .filter(|f| f.line >= comment.line && f.line - comment.line <= 3)
            .min_by_key(|f| f.line);
        let Some(target) = target else {
            out.invalids.push(Candidate {
                line: comment.line,
                rule: "invalid-suppression".into(),
                message: format!(
                    "`mppm-taint: {role}` attaches to no fn item within 3 lines; move it \
                     directly above the function it describes"
                ),
            });
            continue;
        };
        if role == "sink" {
            target.is_sink = true;
        } else {
            target.is_handler = true;
        }
    }
}

/// Collects `use ... as alias` renames (including inside brace groups).
fn collect_aliases(toks: &[Tok], out: &mut Vec<(String, String)>) {
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) != Some("use") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && !punct_at(toks, j, ';') {
            if ident_at(toks, j) == Some("as") {
                if let (Some(real), Some(alias)) = (ident_at(toks, j - 1), ident_at(toks, j + 1)) {
                    if alias != "_" {
                        out.push((alias.to_string(), real.to_string()));
                    }
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> ParsedItems {
        items(&SourceFile::parse(path, src))
    }

    fn fn_named<'a>(items: &'a ParsedItems, name: &str) -> &'a FnFact {
        items.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn fn_items_get_impl_quals_and_bodies() {
        let src = "struct S;\n\
                   impl S {\n    fn method(&self) { helper(); }\n}\n\
                   impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n\
                   fn helper() {}\n";
        let p = parse("crates/x/src/lib.rs", src);
        assert_eq!(fn_named(&p, "method").qual, "S::method");
        assert_eq!(fn_named(&p, "clone").qual, "S::clone");
        assert_eq!(fn_named(&p, "helper").qual, "helper");
        let calls: Vec<&str> =
            fn_named(&p, "method").calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, ["helper"]);
    }

    #[test]
    fn call_kinds_are_classified() {
        let src = "fn f() { helper(); Type::assoc(); value.method(); if x() {} match (y)() {} }\n\
                   fn helper() {}";
        let p = parse("crates/x/src/lib.rs", src);
        let f = fn_named(&p, "f");
        let kinds: Vec<(CallKind, &str)> =
            f.calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert!(kinds.contains(&(CallKind::Free, "helper")));
        assert!(kinds.contains(&(CallKind::Path, "assoc")));
        assert!(kinds.contains(&(CallKind::Method, "method")));
        assert!(kinds.contains(&(CallKind::Free, "x")), "call in if condition");
        assert!(!kinds.iter().any(|(_, n)| *n == "if" || *n == "match"));
        let assoc = f.calls.iter().find(|c| c.name == "assoc").expect("assoc");
        assert_eq!(assoc.qualifier, "Type");
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let src = "fn outer() {\n    fn inner() { danger.unwrap(); }\n    inner();\n}";
        let p = parse("crates/x/src/lib.rs", src);
        assert!(fn_named(&p, "outer").panics.is_empty(), "unwrap belongs to inner");
        assert_eq!(fn_named(&p, "inner").panics.len(), 1);
        assert_eq!(fn_named(&p, "outer").calls.len(), 1, "outer calls inner");
    }

    #[test]
    fn sources_panics_and_blocking_are_extracted() {
        let src = "fn f(r: &mut impl std::io::Read) {\n\
                   let t = std::time::Instant::now();\n\
                   let v = std::env::var(\"X\");\n\
                   let n = std::thread::available_parallelism();\n\
                   let mut s = String::new();\n\
                   r.read_to_string(&mut s).unwrap();\n\
                   let x = xs[i];\n\
                   let y = xs[0];\n\
                   let z = &xs[..];\n\
                   panic!(\"boom\");\n}";
        let p = parse("crates/x/src/lib.rs", src);
        let f = fn_named(&p, "f");
        let kinds: Vec<&str> = f.sources.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, ["wallclock", "env-read", "thread-count"]);
        let panics: Vec<&str> = f.panics.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(panics, [".unwrap()", "slice index `[...]`", "panic!"]);
        assert_eq!(f.blocking.len(), 1);
    }

    #[test]
    fn env_args_is_not_a_source() {
        let src = "fn f() { let a: Vec<String> = std::env::args().collect(); }";
        let p = parse("crates/x/src/lib.rs", src);
        assert!(fn_named(&p, "f").sources.is_empty(), "argv is explicit input");
    }

    #[test]
    fn bench_paths_are_source_exempt() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let p = parse("crates/experiments/src/speed.rs", src);
        assert!(fn_named(&p, "f").sources.is_empty());
    }

    #[test]
    fn taint_annotations_attach_and_rot() {
        let src = "// mppm-taint: sink\npub fn emit() {}\n\n\
                   // mppm-taint: handler\n#[inline]\npub fn serve() {}\n\n\
                   // mppm-taint: sink\n\nstruct NoFn;\n\n\
                   // mppm-taint: laundry\nfn misc() {}\n";
        let p = parse("crates/x/src/lib.rs", src);
        assert!(fn_named(&p, "emit").is_sink);
        assert!(fn_named(&p, "serve").is_handler, "window spans attributes");
        assert!(!fn_named(&p, "misc").is_sink && !fn_named(&p, "misc").is_handler);
        let msgs: Vec<&str> = p.invalids.iter().map(|c| c.message.as_str()).collect();
        assert_eq!(msgs.len(), 2, "unattached + unknown role: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("attaches to no fn")));
        assert!(msgs.iter().any(|m| m.contains("unrecognized mppm-taint role `laundry`")));
    }

    #[test]
    fn test_code_contributes_no_items() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}";
        let p = parse("crates/x/src/lib.rs", src);
        assert_eq!(p.fns.len(), 1);
        let whole = parse("crates/x/tests/it.rs", "fn anything() {}");
        assert!(whole.fns.is_empty(), "tests/ tree is excluded");
    }

    #[test]
    fn use_aliases_are_collected() {
        let src = "use mppm_campaign as camp;\nuse crate::x::{a as b, c};\nfn f() { let y = 1 as u8; }";
        let p = parse("crates/x/src/lib.rs", src);
        assert_eq!(
            p.aliases,
            vec![("camp".to_string(), "mppm_campaign".to_string()), ("b".into(), "a".into())]
        );
    }
}

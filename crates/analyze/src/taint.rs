//! The inter-procedural determinism rules.
//!
//! Token rules see one line; these rules see the whole call graph
//! ([`crate::callgraph`]) and close the laundering gap: a wallclock read
//! buried two helpers deep is exactly as fatal to byte-reproducibility
//! as one written inline.
//!
//! **`taint-nondet-to-result`** — the headline. The taint lattice is the
//! two-point clean/tainted with sources (wall-clock reads, ambient
//! `std::env` reads, thread-id/thread-count reads, entropy-seeded RNG,
//! hash-ordered containers — see [`crate::parse`]) and sinks (functions
//! whose output becomes a `MixResult`, a shard journal, a golden
//! snapshot, or an mppmd wire frame). Because nondeterminism flows
//! through *values* (arguments and returns) and we resolve only calls, a
//! finding fires when any function transitively calls both a
//! source-containing function and a sink: the join point where a tainted
//! value can reach deterministic output. Each finding reports the full
//! source → … → sink call chain.
//!
//! **`panic-reaches-handler`** — any `panic!`-family macro, `.unwrap()`,
//! or fallible slice index reachable from a daemon request handler,
//! within the handler's crate. A panic below `handle` tears down the
//! connection (or a whole campaign job) instead of producing an error
//! frame. `.expect("why")` is deliberately exempt: it is the blessed,
//! documented-invariant form that `unwrap-in-lib` steers code toward.
//!
//! **`blocking-in-handler`** (graph part) — unbounded `.read_to_end` /
//! `.read_to_string` in *any* crate when the containing function is
//! reachable from a handler; the token rule keeps policing literal sites
//! inside `crates/server` itself.
//!
//! Sinks and handlers come from a built-in manifest of the known
//! boundary functions plus in-code `// mppm-taint: sink` / `handler`
//! annotations.

use crate::callgraph::{crate_of, Graph};
use crate::ChainHop;
use std::collections::BTreeSet;

/// Headline rule name.
pub const TAINT_RULE: &str = "taint-nondet-to-result";
/// Panic-reachability rule name.
pub const PANIC_RULE: &str = "panic-reaches-handler";
/// Blocking-read rule name (shared with the token rule).
pub const BLOCKING_RULE: &str = "blocking-in-handler";

/// The graph-rule names, in reporting order.
pub fn graph_rule_names() -> Vec<&'static str> {
    vec![TAINT_RULE, PANIC_RULE, BLOCKING_RULE]
}

/// Known deterministic sinks: `(file, fn name)`. Results, shard
/// journals, and mppmd wire frames are the repo's reproducibility
/// contract surfaces.
const SINK_MANIFEST: &[(&str, &str)] = &[
    ("crates/server/src/protocol.rs", "ok_frame"),
    ("crates/server/src/protocol.rs", "err_frame"),
    ("crates/campaign/src/journal.rs", "store"),
    ("crates/experiments/src/store.rs", "simulate"),
    ("crates/cmpsim/src/multi.rs", "run"),
    ("crates/cmpsim/src/multi.rs", "run_into"),
];

/// Known daemon request-handler roots: `(file, fn name)`.
const HANDLER_MANIFEST: &[(&str, &str)] = &[
    ("crates/server/src/handlers.rs", "handle"),
    ("crates/server/src/daemon.rs", "run_campaign_job"),
];

/// One inter-procedural finding, pre-suppression.
#[derive(Debug, Clone)]
pub struct GraphFinding {
    /// File the finding anchors in.
    pub file: String,
    /// 1-based anchor line (the source/panic/blocking site).
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Explanation.
    pub message: String,
    /// The call chain justifying the finding.
    pub chain: Vec<ChainHop>,
}

fn manifest_has(manifest: &[(&str, &str)], path: &str, name: &str) -> bool {
    manifest.iter().any(|&(f, n)| f == path && n == name)
}

/// Runs all three graph rules over a resolved call graph. Findings come
/// back grouped by rule, then in node order — fully deterministic.
pub fn check(graph: &Graph<'_>) -> Vec<GraphFinding> {
    let mut sinks = Vec::new();
    let mut handlers = Vec::new();
    for id in 0..graph.len() {
        let fact = graph.fact(id);
        if fact.is_sink || manifest_has(SINK_MANIFEST, graph.path(id), &fact.name) {
            sinks.push(id);
        }
        if fact.is_handler || manifest_has(HANDLER_MANIFEST, graph.path(id), &fact.name) {
            handlers.push(id);
        }
    }
    let mut out = Vec::new();
    check_taint(graph, &sinks, &mut out);
    check_panics(graph, &handlers, &mut out);
    check_blocking(graph, &handlers, &mut out);
    out
}

/// A chain hop for node `id`, anchored at `line` (the fn's declaration
/// line unless the hop pinpoints a fact site).
fn hop(graph: &Graph<'_>, id: usize, line: usize) -> ChainHop {
    ChainHop { func: graph.fact(id).qual.clone(), file: graph.path(id).to_string(), line }
}

fn describe_source(kind: &str) -> &'static str {
    match kind {
        "wallclock" => "wall-clock read",
        "env-read" => "ambient environment read",
        "thread-id" => "thread-id read",
        "thread-count" => "thread-count read",
        "entropy" => "entropy-seeded RNG",
        _ => "hash-ordered container",
    }
}

fn check_taint(graph: &Graph<'_>, sinks: &[usize], out: &mut Vec<GraphFinding>) {
    let sink_set: BTreeSet<usize> = sinks.iter().copied().collect();
    let reaches_sink = graph.reaches_any(sinks);
    for id in 0..graph.len() {
        if graph.fact(id).sources.is_empty() {
            continue;
        }
        // Walk the callers of the source fn upward until one of them can
        // also reach a sink: that join is where a tainted value and
        // deterministic output meet.
        let (up_order, up_parent) = graph.bfs(id, true, None);
        let Some(&join) = up_order.iter().find(|&&v| reaches_sink[v]) else { continue };
        let up_path = graph.unwind(&up_parent, join);
        let (down_order, down_parent) = graph.bfs(join, false, None);
        let sink = down_order
            .iter()
            .copied()
            .find(|v| sink_set.contains(v))
            .expect("join was chosen because it reaches a sink");
        let down_path = graph.unwind(&down_parent, sink);
        for site in &graph.fact(id).sources {
            let mut chain = vec![hop(graph, id, site.line)];
            // `up_path` runs id → … → join in caller direction; append
            // it minus the source fn itself, then the downward leg
            // join → … → sink minus the duplicated join.
            chain.extend(up_path.iter().skip(1).map(|&v| hop(graph, v, graph.fact(v).line)));
            chain.extend(down_path.iter().skip(1).map(|&v| hop(graph, v, graph.fact(v).line)));
            out.push(GraphFinding {
                file: graph.path(id).to_string(),
                line: site.line,
                rule: TAINT_RULE,
                message: format!(
                    "{} `{}` in `{}` can reach deterministic sink `{}`: results, journals, \
                     and wire frames must be byte-reproducible — thread the value through \
                     explicit inputs or justify with an allow",
                    describe_source(&site.kind),
                    site.what,
                    graph.fact(id).qual,
                    graph.fact(sink).qual,
                ),
                chain,
            });
        }
    }
}

fn check_panics(graph: &Graph<'_>, handlers: &[usize], out: &mut Vec<GraphFinding>) {
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for &h in handlers {
        // Crate-bounded: the handler's own crate is the request path we
        // guarantee; panics across crate boundaries are the simulator's
        // documented invariants, policed by `unwrap-in-lib`.
        let bound = crate_of(graph.path(h));
        let (order, parent) = graph.bfs(h, false, Some(bound));
        for &p in &order {
            for site in &graph.fact(p).panics {
                let key = (graph.path(p).to_string(), site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let mut chain: Vec<ChainHop> = graph
                    .unwind(&parent, p)
                    .iter()
                    .map(|&v| hop(graph, v, graph.fact(v).line))
                    .collect();
                if let Some(last) = chain.last_mut() {
                    last.line = site.line;
                }
                let hops = chain.len() - 1;
                out.push(GraphFinding {
                    file: graph.path(p).to_string(),
                    line: site.line,
                    rule: PANIC_RULE,
                    message: format!(
                        "`{}` can panic {hops} call(s) below daemon handler `{}`; a panic \
                         here kills the connection or campaign job mid-request — return an \
                         error frame, use `.expect(\"invariant\")`, or justify with an allow",
                        site.what,
                        graph.fact(h).qual,
                    ),
                    chain,
                });
            }
        }
    }
}

fn check_blocking(graph: &Graph<'_>, handlers: &[usize], out: &mut Vec<GraphFinding>) {
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for &h in handlers {
        let (order, parent) = graph.bfs(h, false, None);
        for &p in &order {
            // Literal sites inside crates/server are the token rule's
            // turf; the graph part chases helpers in other crates.
            if graph.path(p).starts_with("crates/server/") {
                continue;
            }
            for site in &graph.fact(p).blocking {
                if !seen.insert((graph.path(p).to_string(), site.line)) {
                    continue;
                }
                let mut chain: Vec<ChainHop> = graph
                    .unwind(&parent, p)
                    .iter()
                    .map(|&v| hop(graph, v, graph.fact(v).line))
                    .collect();
                if let Some(last) = chain.last_mut() {
                    last.line = site.line;
                }
                out.push(GraphFinding {
                    file: graph.path(p).to_string(),
                    line: site.line,
                    rule: BLOCKING_RULE,
                    message: format!(
                        "`{}` blocks until EOF and is reachable from daemon handler `{}`; \
                         one stalled client wedges the request path — drain sockets through \
                         the bounded `FrameReader`",
                        site.what,
                        graph.fact(h).qual,
                    ),
                    chain,
                });
            }
        }
    }
}

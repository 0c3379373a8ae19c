//! The intra-workspace call graph.
//!
//! Nodes are the non-test `fn` items parsed from every scanned file
//! ([`crate::parse`]); edges are call sites resolved *by name* — there
//! is no type inference here, so resolution is a deliberate
//! over-approximation biased toward more edges:
//!
//! * **Free calls** `helper(...)` bind to same-file functions of that
//!   name, else same-crate, else a workspace-unique match.
//! * **Path calls** `Qual::f(...)` bind through the qualifier: an
//!   `impl Qual` method, else functions in a file named `qual.rs`, else
//!   functions in the crate whose library name is `qual` (after
//!   rewriting `use ... as` aliases; `crate`/`self`/`super` mean the
//!   calling crate). Unresolved qualifiers (`Vec::new`) bind nothing.
//! * **Method calls** `.m(...)` bind to *every* workspace method named
//!   `m` — the static stand-in for dynamic dispatch.
//!
//! Everything is ordered: nodes follow the (sorted) file walk, edge
//! lists are sorted and deduplicated, and the BFS helpers visit
//! neighbors in index order, so reachability — and therefore every
//! graph-rule finding and its reported chain — is deterministic.

use crate::facts::{CallKind, FileFacts, FnFact};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crate-directory name owning `path` (`crates/<name>/...`), or `root`
/// for top-level `examples/`, `tests/`, and `src/` files.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
}

/// Library-identifier → crate-directory mapping for path resolution
/// (`mppm_sim::plan(...)` lives under `crates/cmpsim/`).
const LIB_CRATES: &[(&str, &str)] = &[
    ("mppm", "core"),
    ("mppm_sim", "cmpsim"),
    ("mppm_cache", "cache"),
    ("mppm_trace", "trace"),
    ("mppm_campaign", "campaign"),
    ("mppm_obs", "obs"),
    ("mppm_server", "server"),
    ("mppm_experiments", "experiments"),
    ("mppm_analyze", "analyze"),
];

/// File stem (`journal` for `crates/campaign/src/journal.rs`).
fn stem(path: &str) -> &str {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.strip_suffix(".rs").unwrap_or(name)
}

/// The resolved call graph over a set of file facts.
#[derive(Debug)]
pub struct Graph<'a> {
    files: &'a [FileFacts],
    /// `(file index, fn index)` per node, in file/source order.
    nodes: Vec<(usize, usize)>,
    /// Callee node ids per node, sorted and deduplicated.
    edges: Vec<Vec<usize>>,
    /// Caller node ids per node (the transpose).
    redges: Vec<Vec<usize>>,
}

impl<'a> Graph<'a> {
    /// Builds and resolves the graph.
    pub fn build(files: &'a [FileFacts]) -> Graph<'a> {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ni, _) in file.fns.iter().enumerate() {
                nodes.push((fi, ni));
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, &(fi, ni)) in nodes.iter().enumerate() {
            let fact = &files[fi].fns[ni];
            by_name.entry(&fact.name).or_default().push(id);
            if fact.qual != fact.name {
                by_qual.entry(&fact.qual).or_default().push(id);
            }
        }
        let aliases: Vec<BTreeMap<&str, &str>> = files
            .iter()
            .map(|f| f.aliases.iter().map(|(a, r)| (a.as_str(), r.as_str())).collect())
            .collect();

        let mut graph = Graph { files, nodes, edges: Vec::new(), redges: Vec::new() };
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(graph.nodes.len());
        for id in 0..graph.nodes.len() {
            let (fi, _) = graph.nodes[id];
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            for call in &graph.fact(id).calls {
                resolve(&graph, &by_name, &by_qual, &aliases[fi], fi, call.kind, &call.qualifier, &call.name, &mut targets);
            }
            edges.push(targets.into_iter().collect());
        }
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
        for (from, outs) in edges.iter().enumerate() {
            for &to in outs {
                redges[to].push(from);
            }
        }
        graph.edges = edges;
        graph.redges = redges;
        graph
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The fn facts behind node `id`.
    pub fn fact(&self, id: usize) -> &FnFact {
        let (fi, ni) = self.nodes[id];
        &self.files[fi].fns[ni]
    }

    /// The workspace-relative path of node `id`'s file.
    pub fn path(&self, id: usize) -> &str {
        &self.files[self.nodes[id].0].path
    }

    /// Direct callees of `id`.
    pub fn callees(&self, id: usize) -> &[usize] {
        &self.edges[id]
    }

    /// Marks every node that can reach one of `targets` along call
    /// edges (the targets themselves included).
    pub fn reaches_any(&self, targets: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &t in targets {
            if !seen[t] {
                seen[t] = true;
                queue.push_back(t);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &u in &self.redges[v] {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        seen
    }

    /// Breadth-first traversal from `start`, returning the visit order
    /// and a parent map (the node each was first reached from;
    /// `usize::MAX` for `start`). `reverse` walks caller edges instead
    /// of callee edges; `crate_bound` confines the walk to one crate.
    pub fn bfs(&self, start: usize, reverse: bool, crate_bound: Option<&str>) -> (Vec<usize>, Vec<usize>) {
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let next = if reverse { &self.redges[v] } else { &self.edges[v] };
            for &u in next {
                if seen[u] {
                    continue;
                }
                if crate_bound.is_some_and(|c| crate_of(self.path(u)) != c) {
                    continue;
                }
                seen[u] = true;
                parent[u] = v;
                queue.push_back(u);
            }
        }
        (order, parent)
    }

    /// The path `start → … → end` implied by a parent map from
    /// [`Graph::bfs`] (walks `end`'s parents back to the root).
    pub fn unwind(&self, parent: &[usize], end: usize) -> Vec<usize> {
        let mut path = vec![end];
        let mut cur = end;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// Resolves one call site into `targets` (see the module docs for the
/// resolution rules).
#[allow(clippy::too_many_arguments)]
fn resolve(
    graph: &Graph<'_>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_qual: &BTreeMap<&str, Vec<usize>>,
    aliases: &BTreeMap<&str, &str>,
    file_idx: usize,
    kind: CallKind,
    qualifier: &str,
    name: &str,
    targets: &mut BTreeSet<usize>,
) {
    let named: &[usize] = by_name.get(name).map_or(&[], Vec::as_slice);
    match kind {
        CallKind::Method => {
            // Bind to every impl method of that name: the static
            // over-approximation of receiver dispatch.
            targets.extend(
                named.iter().copied().filter(|&id| graph.fact(id).qual != graph.fact(id).name),
            );
        }
        CallKind::Path => {
            let q = aliases.get(qualifier).copied().unwrap_or(qualifier);
            let qual_key = format!("{q}::{name}");
            if let Some(hits) = by_qual.get(qual_key.as_str()) {
                targets.extend(hits.iter().copied());
                return;
            }
            let by_stem: Vec<usize> =
                named.iter().copied().filter(|&id| stem(graph.path(id)) == q).collect();
            if !by_stem.is_empty() {
                targets.extend(by_stem);
                return;
            }
            let target_crate = if matches!(q, "crate" | "self" | "super") {
                Some(crate_of(&graph.files[file_idx].path))
            } else {
                LIB_CRATES.iter().find(|(lib, _)| *lib == q).map(|(_, dir)| *dir)
            };
            if let Some(target_crate) = target_crate {
                targets.extend(
                    named.iter().copied().filter(|&id| crate_of(graph.path(id)) == target_crate),
                );
            }
        }
        CallKind::Free => {
            let same_file: Vec<usize> =
                named.iter().copied().filter(|&id| graph.nodes[id].0 == file_idx).collect();
            if !same_file.is_empty() {
                targets.extend(same_file);
                return;
            }
            let this_crate = crate_of(&graph.files[file_idx].path);
            let same_crate: Vec<usize> = named
                .iter()
                .copied()
                .filter(|&id| crate_of(graph.path(id)) == this_crate)
                .collect();
            if !same_crate.is_empty() {
                targets.extend(same_crate);
                return;
            }
            if let [only] = named {
                targets.insert(*only);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::SourceFile;

    fn facts(files: &[(&str, &str)]) -> Vec<FileFacts> {
        files
            .iter()
            .map(|(path, src)| {
                let file = SourceFile::parse(*path, src);
                let parsed = parse::items(&file);
                FileFacts {
                    path: (*path).to_string(),
                    fns: parsed.fns,
                    aliases: parsed.aliases,
                    ..FileFacts::default()
                }
            })
            .collect()
    }

    fn node(graph: &Graph<'_>, qual: &str) -> usize {
        (0..graph.len()).find(|&id| graph.fact(id).qual == qual).expect("node present")
    }

    #[test]
    fn free_calls_prefer_file_then_crate_then_unique() {
        let files = facts(&[
            ("crates/a/src/lib.rs", "fn caller() { shared(); unique(); }\nfn shared() {}"),
            ("crates/a/src/other.rs", "fn shared() {}"),
            ("crates/b/src/lib.rs", "fn shared() {}\nfn unique() {}"),
        ]);
        let g = Graph::build(&files);
        let caller = node(&g, "caller");
        let callees: Vec<&str> = g.callees(caller).iter().map(|&id| g.path(id)).collect();
        assert_eq!(
            callees,
            ["crates/a/src/lib.rs", "crates/b/src/lib.rs"],
            "same-file shared() wins; unique() resolves workspace-wide"
        );
    }

    #[test]
    fn path_calls_resolve_impl_stem_and_lib_crate() {
        let files = facts(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { Widget::build(); journal::flush(); mppm_sim::plan(); crate::local(); }\nfn local() {}",
            ),
            ("crates/a/src/widget.rs", "struct Widget;\nimpl Widget { fn build() {} }"),
            ("crates/a/src/journal.rs", "pub fn flush() {}"),
            ("crates/cmpsim/src/lib.rs", "pub fn plan() {}"),
        ]);
        let g = Graph::build(&files);
        let callees: BTreeSet<&str> =
            g.callees(node(&g, "caller")).iter().map(|&id| g.fact(id).qual.as_str()).collect();
        assert_eq!(
            callees,
            ["Widget::build", "flush", "plan", "local"].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn method_calls_bind_all_impl_methods_only() {
        let files = facts(&[
            ("crates/a/src/lib.rs", "fn caller(x: T) { x.store(1); }\nfn store() {}"),
            ("crates/b/src/lib.rs", "struct J;\nimpl J { fn store(&self) {} }"),
            ("crates/c/src/lib.rs", "struct S;\nimpl S { fn store(&self) {} }"),
        ]);
        let g = Graph::build(&files);
        let callees: BTreeSet<&str> =
            g.callees(node(&g, "caller")).iter().map(|&id| g.fact(id).qual.as_str()).collect();
        assert_eq!(
            callees,
            ["J::store", "S::store"].into_iter().collect::<BTreeSet<_>>(),
            "free fn `store` is not a method target"
        );
    }

    #[test]
    fn use_aliases_rewrite_path_qualifiers() {
        let files = facts(&[
            ("crates/a/src/lib.rs", "use crate::journal as jr;\nfn caller() { jr::flush(); }"),
            ("crates/a/src/journal.rs", "pub fn flush() {}"),
        ]);
        let g = Graph::build(&files);
        assert_eq!(g.callees(node(&g, "caller")).len(), 1);
    }

    #[test]
    fn bfs_is_deterministic_and_crate_bounded() {
        let files = facts(&[
            ("crates/a/src/lib.rs", "fn top() { mid(); }\nfn mid() { leaf(); cross(); }\nfn leaf() {}"),
            ("crates/b/src/lib.rs", "pub fn cross() { deeper(); }\nfn deeper() {}"),
        ]);
        let g = Graph::build(&files);
        let top = node(&g, "top");
        let (order, parent) = g.bfs(top, false, None);
        assert_eq!(order.len(), 5, "workspace-wide walk sees everything");
        let leaf = node(&g, "leaf");
        assert_eq!(g.unwind(&parent, leaf), vec![top, node(&g, "mid"), leaf]);
        let (bounded, _) = g.bfs(top, false, Some("a"));
        assert_eq!(bounded.len(), 3, "crate bound stops at cross()");
        let reach = g.reaches_any(&[node(&g, "deeper")]);
        assert!(reach[top] && reach[node(&g, "cross")] && !reach[leaf]);
    }
}

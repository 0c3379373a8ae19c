//! Benchmark-side tracing: spans around calls into each layer's public
//! functions, written through `mppm_obs`'s `JsonlSink` and folded back
//! into per-call self time.
//!
//! A span is named `<layer>:<call>:<n>`. Its self time is its duration
//! minus the durations of its direct benchmark-side children; spans the
//! program opens itself (names without `:`) are part of their parent's
//! self time.

use mppm_obs::{JsonlSink, Observer, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Total self time and span count of one `<layer>:<call>`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTime {
    pub spans: u64,
    pub self_s: f64,
}

/// An enabled observer writing a JSONL trace, plus a counter for unique
/// span names.
pub struct Tracer {
    observer: Observer,
    path: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Tracer {
    pub fn new(path: &Path) -> Self {
        Self {
            observer: Observer::new(Box::new(JsonlSink::new(path))),
            path: path.to_path_buf(),
            next: std::cell::Cell::new(0),
        }
    }

    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Opens the root span.
    pub fn root(&self) -> Span {
        self.observer.root("bench")
    }

    /// Runs `f` inside a child span `<layer>:<call>:<n>` of `parent`.
    pub fn time<T>(&self, parent: &Span, call: &str, f: impl FnOnce(&Span) -> T) -> T {
        let n = self.next.get();
        self.next.set(n + 1);
        let span = parent.child(&format!("{call}:{n}"));
        f(&span)
    }

    /// Flushes the trace and folds it into per-call self time, keyed by
    /// `<layer>:<call>`. Call after the root span has dropped.
    pub fn fold(self) -> Result<BTreeMap<String, CallTime>, String> {
        self.observer
            .finish()
            .map_err(|e| format!("writing trace: {e}"))?;
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("reading {}: {e}", self.path.display()))?;
        fold_jsonl(&text)
    }
}

/// Folds a JSONL trace into self time per `<layer>:<call>`.
pub fn fold_jsonl(text: &str) -> Result<BTreeMap<String, CallTime>, String> {
    // Elapsed microseconds of every benchmark-side span, by scope path.
    let mut elapsed: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let event: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("trace line {line:?}: {e}"))?;
        if event.get("name").and_then(|n| n.as_str()) != Some("span-end") {
            continue;
        }
        let scope = event
            .get("scope")
            .and_then(|s| s.as_str())
            .unwrap_or_default();
        let us = event
            .get("elapsed_us")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if leaf(scope).contains(':') {
            elapsed.insert(scope.to_string(), us);
        }
    }
    let mut child_us: BTreeMap<&str, f64> = BTreeMap::new();
    for (scope, us) in &elapsed {
        let parent = scope.rsplit_once('/').map_or("", |(p, _)| p);
        *child_us.entry(parent).or_default() += us;
    }
    let mut calls: BTreeMap<String, CallTime> = BTreeMap::new();
    for (scope, us) in &elapsed {
        let call = leaf(scope).rsplit_once(':').map_or(leaf(scope), |(c, _)| c);
        let own = us - child_us.get(scope.as_str()).copied().unwrap_or(0.0);
        let entry = calls.entry(call.to_string()).or_default();
        entry.spans += 1;
        entry.self_s += own.max(0.0) / 1e6;
    }
    Ok(calls)
}

fn leaf(scope: &str) -> &str {
    scope.rsplit('/').next().unwrap_or(scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_benchmark_children_only() {
        let trace = [
            r#"{"seq":0,"scope":"bench","index":0,"name":"span-end","elapsed_us":900}"#,
            r#"{"seq":1,"scope":"bench/campaign:execute:0","index":0,"name":"span-start"}"#,
            r#"{"seq":2,"scope":"bench/campaign:execute:0","index":1,"name":"span-end","elapsed_us":500}"#,
            r#"{"seq":3,"scope":"bench/campaign:execute:0/core:solve:1","index":0,"name":"span-end","elapsed_us":200}"#,
            r#"{"seq":4,"scope":"bench/campaign:execute:0/shard-d0","index":0,"name":"span-end","elapsed_us":300}"#,
            r#"{"seq":5,"scope":"bench/core:solve:2","index":0,"name":"span-end","elapsed_us":100}"#,
        ]
        .join("\n");
        let calls = fold_jsonl(&trace).unwrap();
        assert_eq!(calls.len(), 2);
        let execute = calls["campaign:execute"];
        assert_eq!(execute.spans, 1);
        assert!((execute.self_s - 300e-6).abs() < 1e-12, "{execute:?}");
        let solve = calls["core:solve"];
        assert_eq!(solve.spans, 2);
        assert!((solve.self_s - 300e-6).abs() < 1e-12, "{solve:?}");
    }

    #[test]
    fn tracer_round_trips_through_the_jsonl_sink() {
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tracer = Tracer::new(&dir.join("trace.jsonl"));
        {
            let root = tracer.root();
            tracer.time(&root, "trace:compile", |span| {
                tracer.time(span, "cache:probe", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        }
        let calls = tracer.fold().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(calls["trace:compile"].spans, 1);
        assert!(calls["cache:probe"].self_s >= 0.002);
    }
}

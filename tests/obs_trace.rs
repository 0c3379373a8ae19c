//! Observability trace determinism across worker-thread counts.
//!
//! The JSONL sink orders events by `(scope, index)` — never by arrival
//! time — and parent-scope counters are only touched by the owning
//! thread, so the same campaign must serialize to the **same trace**
//! whether it runs on one worker or four. Only the wall-clock
//! `elapsed_us` field on span-end events may differ; everything else is
//! byte-for-byte identical.
//!
//! This test owns its process (its own `[[test]]` target) because it
//! sets `MPPM_THREADS`.

use mppm_campaign::{AggregateOptions, Campaign, CampaignSpec, MixSource};
use mppm_experiments::{Context, Scale, Store};
use mppm_obs::{JsonlSink, Observer, Sink};
use std::path::PathBuf;

fn run_traced(threads: &str, tag: &str) -> Vec<serde_json::Value> {
    std::env::set_var("MPPM_THREADS", threads);
    let root = std::env::temp_dir()
        .join(format!("mppm-obs-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ctx = Context::with_store(Scale::Quick, Store::open(&root).unwrap());
    let spec = CampaignSpec {
        cores: 2,
        designs: vec![0, 1],
        source: MixSource::Stratified { count: 12, seed: 7 },
        shard_size: 4,
    };
    let options = AggregateOptions { stability_trials: 20, ..Default::default() };

    let trace: PathBuf = root.join("trace.jsonl");
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(JsonlSink::new(trace.clone()))];
    let observer = Observer::with_sinks(sinks);
    {
        let span = observer.root("campaign");
        Campaign::new(&spec).options(&options).observer(&span).run(&ctx).unwrap();
    }
    observer.finish().unwrap();

    let text = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    text.lines()
        .map(|line| {
            let mut v: serde_json::Value = serde_json::from_str(line).unwrap();
            // The only wall-clock field in the format; everything else
            // must be thread-count-invariant.
            if let serde_json::Value::Object(entries) = &mut v {
                entries.retain(|(k, _)| k != "elapsed_us");
            }
            v
        })
        .collect()
}

#[test]
fn jsonl_trace_is_invariant_under_worker_thread_count() {
    let serial = run_traced("1", "serial");
    let parallel = run_traced("4", "parallel");

    assert!(!serial.is_empty(), "trace must not be empty");
    assert_eq!(serial.len(), parallel.len(), "event counts diverge");
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "event {i} diverges between 1 and 4 workers");
    }

    // Sanity on the format itself: the root scope opens the file, `seq`
    // is the line number, and the plan event precedes every shard scope.
    assert_eq!(serial[0]["name"].as_str(), Some("span-start"));
    assert_eq!(serial[0]["scope"].as_str(), Some("campaign"));
    assert_eq!(serial[1]["name"].as_str(), Some("plan"));
    for (i, line) in serial.iter().enumerate() {
        assert_eq!(line["seq"].as_u64(), Some(i as u64), "seq mirrors file order");
    }
    assert!(
        serial.iter().any(|l| l["name"].as_str() == Some("checkpoint")),
        "shards must checkpoint into the trace"
    );
    assert!(
        serial.iter().any(|l| l["name"].as_str() == Some("solver")),
        "per-mix solver events must reach the trace"
    );
}

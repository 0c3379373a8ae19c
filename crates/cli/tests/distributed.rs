//! Multi-process fan-out: worker-count invariance and kill/resume.
//!
//! One `#[test]` on purpose: the kill scenarios toggle the
//! `MPPM_WORKER_FAIL_AFTER` environment variable, which would race
//! against the other scenarios under the parallel test harness.

use mppm_campaign::{
    csv_bundle, AggregateOptions, Campaign, CampaignSpec, MixSource, FAIL_AFTER_ENV,
};
use mppm_experiments::{Context, Scale, Store};
use std::path::Path;

/// The real `mppm-cli` binary, re-entered as a worker via
/// `MPPM_CAMPAIGN_WORKER` (its `main` calls `mppm_campaign::maybe_serve`
/// before it parses argv).
const WORKER_EXE: &str = env!("CARGO_BIN_EXE_mppm-cli");

/// Byte ranges of the records in a journal segment, from each header's
/// core and mix counts (36-byte header, `mixes × (2 × cores + 24)` bytes
/// of outcomes, 8-byte checksum).
fn record_bounds(segment: &[u8]) -> Vec<std::ops::Range<usize>> {
    let u32_at = |off: usize| u32::from_le_bytes(segment[off..off + 4].try_into().unwrap());
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < segment.len() {
        let (cores, mixes) = (u32_at(start + 20) as usize, u32_at(start + 24) as usize);
        let end = start + 36 + mixes * (2 * cores + 24) + 8;
        bounds.push(start..end);
        start = end;
    }
    bounds
}

#[test]
fn distributed_campaigns_match_in_process_byte_for_byte() {
    let root = std::env::temp_dir().join(format!("mppm-dist-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = CampaignSpec {
        cores: 2,
        designs: vec![0, 1],
        source: MixSource::Stratified { count: 36, seed: 5 },
        shard_size: 4,
    };
    let options = AggregateOptions { stability_trials: 40, ..Default::default() };

    // Reference: in-process on the shared store (which also warms the
    // trace and profile caches the worker processes will read).
    let ctx = Context::with_store(Scale::Quick, Store::open(root.join("store")).unwrap());
    let reference = Campaign::new(&spec).options(&options).run(&ctx).unwrap();
    let reference_bundle = csv_bundle(&reference);

    // Worker-count invariance: every fan-out lands on the same bytes.
    let mut two_worker_plan = String::new();
    for workers in [1usize, 2, 4] {
        let journal = root.join(format!("journal-{workers}"));
        let result = Campaign::new(&spec)
            .options(&options)
            .workers(workers)
            .worker_exe(Path::new(WORKER_EXE))
            .journal(&journal)
            .run(&ctx)
            .unwrap();
        assert_eq!(
            result.stats.total_shards,
            result.stats.computed_shards + result.stats.resumed_shards,
            "fresh journal, all work accounted for (workers={workers})"
        );
        assert_eq!(csv_bundle(&result), reference_bundle, "workers={workers}");
        if workers == 2 {
            two_worker_plan = result.plan_id.clone();
        }
    }

    // A torn segment in the multi-process path: cut the 2-worker run's
    // longest segment in the middle of a record, as a kill mid-append
    // would. Exactly the records from the cut on are recomputed.
    let dir = root.join("journal-2").join("campaigns").join(&two_worker_plan);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let (plan_json, segments) = names.split_first().unwrap();
    assert_eq!(plan_json, "plan.json", "only segments beside the summary: {names:?}");
    assert!(segments.iter().all(|n| n.starts_with("seg-")), "{names:?}");
    assert!((1..=2).contains(&segments.len()), "one segment per storing worker: {names:?}");
    let longest = segments.iter().map(|n| dir.join(n)).max_by_key(|p| p.metadata().unwrap().len());
    let longest = longest.unwrap();
    let bytes = std::fs::read(&longest).unwrap();
    let records = record_bounds(&bytes);
    let cut = records.len() / 2;
    // mppm-lint: allow(non-atomic-write): deliberately tears a worker's segment mid-record
    std::fs::write(&longest, &bytes[..records[cut].start + 50]).unwrap();
    let repaired = Campaign::new(&spec)
        .options(&options)
        .workers(2)
        .worker_exe(Path::new(WORKER_EXE))
        .journal(&root.join("journal-2"))
        .run(&ctx)
        .unwrap();
    let lost = records.len() - cut;
    assert_eq!(repaired.stats.computed_shards, lost, "the torn record and every later one");
    assert_eq!(repaired.stats.resumed_shards, repaired.stats.total_shards - lost);
    assert_eq!(csv_bundle(&repaired), reference_bundle, "a torn worker segment is invisible");

    // Kill one of two workers mid-campaign (simulated SIGKILL after its
    // first computed shard): the survivor drains the queue and the run
    // still completes with identical output.
    std::env::set_var(FAIL_AFTER_ENV, "1");
    let survived = Campaign::new(&spec)
        .options(&options)
        .workers(2)
        .worker_exe(Path::new(WORKER_EXE))
        .journal(&root.join("journal-kill"))
        .run(&ctx);
    std::env::remove_var(FAIL_AFTER_ENV);
    assert_eq!(
        csv_bundle(&survived.expect("one worker died, the campaign must not")),
        reference_bundle,
        "output is unchanged by a mid-campaign worker death"
    );

    // Kill the *only* worker: the run fails, but its journaled shards
    // survive, and a plain re-run resumes onto the same bytes.
    std::env::set_var(FAIL_AFTER_ENV, "2");
    let journal = root.join("journal-kill-all");
    let doomed = Campaign::new(&spec)
        .options(&options)
        .workers(1)
        .worker_exe(Path::new(WORKER_EXE))
        .journal(&journal)
        .run(&ctx);
    std::env::remove_var(FAIL_AFTER_ENV);
    assert!(doomed.is_err(), "sole worker died: the run cannot finish");
    let resumed = Campaign::new(&spec)
        .options(&options)
        .workers(1)
        .worker_exe(Path::new(WORKER_EXE))
        .journal(&journal)
        .run(&ctx)
        .unwrap();
    assert!(resumed.stats.resumed_shards >= 2, "the dead worker's shards persisted");
    assert_eq!(csv_bundle(&resumed), reference_bundle, "resume after losing every worker");

    let _ = std::fs::remove_dir_all(&root);
}

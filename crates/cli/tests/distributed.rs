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
    }

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

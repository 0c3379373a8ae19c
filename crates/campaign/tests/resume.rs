//! Kill/resume bit-identity: a campaign that dies mid-flight and resumes
//! must produce byte-identical output to a one-shot run, at any worker
//! thread count.
//!
//! One `#[test]` on purpose: it toggles the `MPPM_THREADS` environment
//! variable, which would race against itself if split across Rust's
//! default parallel test harness.

use mppm_campaign::{
    csv_bundle, AggregateOptions, Campaign, CampaignPlan, CampaignSpec, Journal, MixSource,
};
use mppm_experiments::{Context, Scale, Store};
use std::ops::Range;
use std::path::{Path, PathBuf};

fn fresh_context(tag: &str) -> (std::path::PathBuf, Context) {
    let root = std::env::temp_dir()
        .join(format!("mppm-resume-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ctx = Context::with_store(Scale::Quick, Store::open(&root).unwrap());
    (root, ctx)
}

/// The journal's segment files, in name order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
        .collect();
    found.sort();
    found
}

/// Byte ranges of the records in a segment, from each header's core and
/// mix counts (record format: 36-byte header, `mixes × (2 × cores + 24)`
/// bytes of outcomes, 8-byte checksum).
fn record_bounds(segment: &[u8]) -> Vec<Range<usize>> {
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
fn killed_campaign_resumes_bit_identically_across_thread_counts() {
    // The paper's full 2-program mix space (435 mixes) on two LLC design
    // points, quick-scale traces: every subsystem layer at real size.
    let spec = CampaignSpec {
        cores: 2,
        designs: vec![0, 1],
        source: MixSource::Exhaustive,
        shard_size: 32,
    };
    let options = AggregateOptions { stability_trials: 60, ..Default::default() };
    let mut bundles = Vec::new();

    for threads in ["1", "0"] {
        if threads == "1" {
            std::env::set_var("MPPM_THREADS", "1");
        } else {
            std::env::remove_var("MPPM_THREADS"); // harness default
        }

        // Reference: one uninterrupted run.
        let (root_a, ctx_a) = fresh_context(&format!("oneshot-{threads}"));
        let one_shot = Campaign::new(&spec).options(&options).run(&ctx_a).unwrap();
        assert_eq!(one_shot.mixes, 435, "exhaustive 2-core space");
        assert_eq!(one_shot.stats.computed_shards, one_shot.stats.total_shards);

        // Victim: run to completion, then damage its journal the ways a
        // kill, bit rot and a requeue do, each with an exact cost.
        let (root_b, ctx_b) = fresh_context(&format!("killed-{threads}"));
        let first = Campaign::new(&spec).options(&options).run(&ctx_b).unwrap();
        let plan = CampaignPlan::build(
            &spec,
            mppm_trace::suite::spec_suite().len(),
            ctx_b.geometry(),
        )
        .unwrap();
        let journal = Journal::open(ctx_b.store().root(), &plan).unwrap();
        let dir = journal.dir();
        let written = segments(dir);
        assert_eq!(written.len(), 1, "one run, one writer, one segment");
        let segment = &written[0];
        let pristine = std::fs::read(segment).unwrap();
        let records = record_bounds(&pristine);
        assert_eq!(records.len(), 28, "14 shards on each of 2 designs");

        // A kill tears the tail: cut record 20 in half, losing records
        // 20..28. Then flip a checksum byte of record 10, which ends the
        // segment there and loses records 10..20 as well.
        let mut damaged = pristine[..records[20].start + records[20].len() / 2].to_vec();
        damaged[records[10].end - 3] ^= 0x10;
        // mppm-lint: allow(non-atomic-write): deliberately tears and corrupts the segment to exercise resume
        std::fs::write(segment, &damaged).unwrap();
        // A second segment holds duplicates: record 3 (still valid in
        // the first segment, so absorbed once) and record 12 (lost
        // there, so it resumes from here instead of recomputing).
        let copies = [&pristine[records[3].clone()], &pristine[records[12].clone()]].concat();
        // mppm-lint: allow(non-atomic-write): plants a duplicate segment the way a requeued shard leaves one
        std::fs::write(dir.join("seg-0-0.bin"), copies).unwrap();

        let resumed = Campaign::new(&spec).options(&options).run(&ctx_b).unwrap();
        assert_eq!(resumed.stats.computed_shards, 17, "18 lost records, one found elsewhere");
        assert_eq!(resumed.stats.resumed_shards, 11, "10 intact + 1 duplicate");
        assert_eq!(segments(dir).len(), 3, "the resumed run appends to a segment of its own");
        let again = Campaign::new(&spec).options(&options).run(&ctx_b).unwrap();
        assert_eq!(again.stats.computed_shards, 0, "nothing left to recompute");

        // Bit identity, not approximate equality: the full CSV bundle of
        // the resumed run matches both the victim's own first run and the
        // untouched one-shot reference.
        let reference = csv_bundle(&one_shot);
        assert_eq!(csv_bundle(&first), reference, "same spec, same bytes (threads={threads})");
        assert_eq!(csv_bundle(&resumed), reference, "resume is invisible (threads={threads})");
        assert_eq!(csv_bundle(&again), reference, "a full journal reads the same bytes");
        bundles.push(reference);

        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }
    std::env::remove_var("MPPM_THREADS");

    // And the whole thing is thread-count invariant.
    assert_eq!(bundles[0], bundles[1], "single- and multi-threaded runs agree byte-for-byte");
}

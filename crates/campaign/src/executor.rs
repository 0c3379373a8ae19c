//! Parallel shard execution with journal-backed resume.
//!
//! The executor fans pending shards out over [`parallel_map_with`]
//! workers, each owning a warm [`SolverScratch`] for the duration of the
//! run. Each worker solves the MPPM fixed point for every mix in its
//! shard (walked lazily from the plan's population — exhaustive spaces
//! are never materialized) and appends the shard's checksummed record to
//! the journal before moving on. Completed shards found in the journal
//! are skipped, which is the whole resume story — no in-band state
//! beyond the segment files.
//!
//! Aggregation input is *always re-read from the journal*, even for
//! shards computed this run. Both a one-shot and a resumed
//! campaign therefore aggregate exactly the same parsed bytes, which is
//! what makes their outputs bit-identical rather than merely close.

use mppm::{SolverProfile, SolverScratch};
use mppm_experiments::{parallel_map_with, Context};
use mppm_obs::{Span, Value};
use std::time::Instant;

use crate::journal::{Journal, MixOutcome, ShardRecord};
use crate::plan::{CampaignPlan, Shard};
use crate::CampaignError;

/// Bookkeeping from one executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionStats {
    /// Shards in the plan.
    pub total_shards: usize,
    /// Shards already complete in the journal (resumed).
    pub resumed_shards: usize,
    /// Shards computed by this run.
    pub computed_shards: usize,
    /// Model evaluations performed by this run (not resumed ones).
    pub evaluated_mixes: u64,
    /// Wall-clock seconds spent computing (0 when fully resumed).
    pub compute_seconds: f64,
}

impl ExecutionStats {
    /// Model evaluations per second for the computed portion.
    pub fn throughput(&self) -> Option<f64> {
        (self.compute_seconds > 0.0 && self.evaluated_mixes > 0)
            .then(|| self.evaluated_mixes as f64 / self.compute_seconds)
    }
}

/// Computes one shard: the MPPM prediction of every mix in range on the
/// shard's design point.
///
/// `span` is the *shard's* scope. Each mix gets a child scope named by
/// its global plan index (`mix-0007`), so the trace's event order is a
/// function of the plan alone — never of which worker ran the shard.
/// Scope names are built only when the span is enabled.
pub(crate) fn compute_shard(
    ctx: &Context,
    plan: &CampaignPlan,
    profiles: &[SolverProfile],
    shard: &Shard,
    span: &Span,
    scratch: &mut SolverScratch,
) -> ShardRecord {
    let outcomes = plan
        .population
        .iter_range(shard.start, shard.end)
        .enumerate()
        .map(|(offset, mix)| {
            let mix_span = if span.is_enabled() {
                span.child(&format!("mix-{:04}", shard.start + offset as u64))
            } else {
                Span::disabled()
            };
            let pred = ctx.solve(&mix, profiles, &mix_span, scratch);
            span.counter("campaign.mixes").incr();
            MixOutcome {
                members: mix.members().to_vec(),
                stp: pred.stp(),
                antt: pred.antt(),
                max_slowdown: pred
                    .slowdowns()
                    .iter()
                    .fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
            }
        })
        .collect();
    ShardRecord { design: shard.id.design, index: shard.id.index, outcomes }
}

/// Runs every pending shard of `plan` in this process, leaving results
/// in the journal. Nothing is returned beyond bookkeeping — aggregation
/// reads the journal (see [`crate::aggregate::aggregate_journal`]).
///
/// Every computed shard opens a child scope (`shard-d0-i0003`) owned by
/// exactly one worker thread; inside it each mix opens its own scope for
/// the solver's residual events, and a `checkpoint` event marks the
/// moment the shard hit the journal. Resumed shards emit nothing — the
/// trace records work actually performed.
///
/// # Errors
///
/// I/O errors persisting shards, or journal format errors.
pub fn execute_pending(
    ctx: &Context,
    plan: &CampaignPlan,
    journal: &Journal,
    span: &Span,
) -> Result<ExecutionStats, CampaignError> {
    // Solve-ready profiles once per design point (the profiles are
    // cached on disk by the store).
    let profiles: Vec<Vec<SolverProfile>> = plan
        .spec
        .designs
        .iter()
        .map(|&cfg| ctx.solver_profiles(&ctx.machine_with_config(cfg)))
        .collect();

    let pending = journal.pending(plan)?;
    let resumed = plan.shards.len() - pending.len();
    if resumed > 0 {
        eprintln!(
            "  [campaign] resuming: {resumed}/{} shards already journaled",
            plan.shards.len()
        );
    }

    // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): progress telemetry only; never feeds simulated time, journal records, or results
    let started = Instant::now();
    let evaluated: u64 = pending.iter().map(|s| s.mixes()).sum();
    // One solver scratch per worker: its pools stay warm across every
    // shard (and mix) the worker processes, and results stay bit-exact
    // at any worker count because scratch never crosses threads.
    let results: Vec<Result<(), String>> =
        parallel_map_with("campaign", &pending, SolverScratch::new, |scratch, shard| {
            let shard_span = if span.is_enabled() {
                span.child(&format!("shard-d{}-i{:04}", shard.id.design, shard.id.index))
            } else {
                Span::disabled()
            };
            let record =
                compute_shard(ctx, plan, &profiles[shard.id.design], shard, &shard_span, scratch);
            let stored = journal.store(&record).map_err(|e| {
                format!("persisting shard d{}-{}: {e}", shard.id.design, shard.id.index)
            });
            if stored.is_ok() {
                shard_span.event(
                    "checkpoint",
                    &[
                        ("design", Value::from(shard.id.design)),
                        ("index", Value::from(shard.id.index)),
                        ("mixes", Value::from(shard.mixes())),
                    ],
                );
                span.counter("campaign.shards").incr();
            }
            stored
        });
    let compute_seconds = started.elapsed().as_secs_f64();
    if let Some(Err(e)) = results.into_iter().find(Result::is_err) {
        return Err(CampaignError::Io(e));
    }

    Ok(ExecutionStats {
        total_shards: plan.shards.len(),
        resumed_shards: resumed,
        computed_shards: pending.len(),
        evaluated_mixes: evaluated,
        compute_seconds: if pending.is_empty() { 0.0 } else { compute_seconds },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CampaignSpec, MixSource};
    use mppm_experiments::{Scale, Store};

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Context) {
        let root = std::env::temp_dir()
            .join(format!("mppm-exec-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctx = Context::with_store(Scale::Quick, Store::open(&root).unwrap());
        (root, ctx)
    }

    /// Runs the pending shards, then reads the plan's whole shard set
    /// back from the journal in plan order.
    fn execute_and_load(
        ctx: &Context,
        plan: &CampaignPlan,
        journal: &Journal,
    ) -> (Vec<ShardRecord>, ExecutionStats) {
        let stats = execute_pending(ctx, plan, journal, &Span::disabled()).unwrap();
        let records = plan
            .shards
            .iter()
            .map(|s| journal.load(s.id, s.mixes()).unwrap().expect("executed shard is journaled"))
            .collect();
        (records, stats)
    }

    #[test]
    fn executes_all_shards_then_resumes_for_free() {
        let (root, ctx) = tmp_store("resume");
        let spec = CampaignSpec {
            cores: 2,
            designs: vec![0],
            source: MixSource::Stratified { count: 24, seed: 3 },
            shard_size: 10,
        };
        let plan = CampaignPlan::build(
            &spec,
            mppm_trace::suite::spec_suite().len(),
            ctx.geometry(),
        )
        .unwrap();
        let journal = Journal::open(ctx.store().root(), &plan).unwrap();

        let (records, stats) = execute_and_load(&ctx, &plan, &journal);
        assert_eq!(records.len(), 3, "24 mixes in shards of 10");
        assert_eq!(stats.computed_shards, 3);
        assert_eq!(stats.resumed_shards, 0);
        assert_eq!(stats.evaluated_mixes, 24);
        assert!(stats.throughput().unwrap() > 0.0);
        for (rec, shard) in records.iter().zip(&plan.shards) {
            assert_eq!(rec.outcomes.len() as u64, shard.mixes());
            for out in &rec.outcomes {
                assert!(out.stp > 0.0 && out.antt >= 1.0 - 1e-9 && out.max_slowdown >= 1.0 - 1e-9);
            }
        }

        // Second run touches nothing and returns identical records.
        let (again, stats2) = execute_and_load(&ctx, &plan, &journal);
        assert_eq!(again, records);
        assert_eq!(stats2.computed_shards, 0);
        assert_eq!(stats2.resumed_shards, 3);
        assert_eq!(stats2.compute_seconds, 0.0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_full_disk_fails_the_run_and_the_next_run_resumes_to_the_same_bytes() {
        let (root, ctx) = tmp_store("enospc");
        let spec = CampaignSpec {
            cores: 2,
            designs: vec![0],
            source: MixSource::Stratified { count: 24, seed: 3 },
            shard_size: 4,
        };
        let plan = CampaignPlan::build(
            &spec,
            mppm_trace::suite::spec_suite().len(),
            ctx.geometry(),
        )
        .unwrap();
        let reference_journal = Journal::open(&root.join("reference"), &plan).unwrap();
        let (reference, _) = execute_and_load(&ctx, &plan, &reference_journal);

        // The first append hits ENOSPC; every later one lands in the
        // fresh segment the handle opens after dropping the failed one.
        let journal = Journal::open(ctx.store().root(), &plan).unwrap();
        journal.redirect_appends(std::path::Path::new("/dev/full"));
        match execute_pending(&ctx, &plan, &journal, &Span::disabled()) {
            Err(CampaignError::Io(msg)) => assert!(msg.contains("No space left"), "{msg}"),
            other => panic!("expected the append's I/O error, got {other:?}"),
        }
        let (records, stats) = execute_and_load(&ctx, &plan, &journal);
        assert_eq!((stats.computed_shards, stats.resumed_shards), (1, 5), "one shard was lost");
        assert_eq!(records, reference, "resume lands on the same bytes");
        let _ = std::fs::remove_dir_all(&root);
    }
}

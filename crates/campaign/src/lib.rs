//! Campaign engine: exhaustive mix-space design-space exploration.
//!
//! The MPPM paper's punchline is that the analytical model is cheap
//! enough to evaluate the *entire* mix space — all C(n+m−1, m) multisets
//! — instead of the handful of hand-picked mixes detailed simulation
//! forces on you. This crate turns that claim into infrastructure:
//!
//! 1. **Plan** ([`plan`]) — describe the mix population (exhaustive or
//!    seeded stratified sample) × LLC design points as journal-addressed
//!    shards. Exhaustive populations are *ranked*, never materialized,
//!    so the full 8-core space (30,260,340 mixes) plans in microseconds.
//! 2. **Execute** ([`executor`] in-process, [`distributed`] across
//!    worker processes) — fan shards over workers, each solving the
//!    MPPM fixed point from cached single-core profiles.
//! 3. **Journal** ([`journal`]) — persist each shard atomically in a
//!    versioned, checksummed binary format; a killed campaign (or
//!    worker) resumes from the completed-shard set.
//! 4. **Aggregate** ([`aggregate`]) — an exactly-mergeable accumulator
//!    over per-design STP/ANTT distributions, slowdown histograms, and
//!    the pairwise design-ranking stability sweep. Merge shape and
//!    order cannot change a single output byte, which is what makes
//!    distributed and resumed runs bit-identical to one-shot runs.
//!
//! The front door is the [`Campaign`] builder:
//!
//! ```no_run
//! # use mppm_campaign::{Campaign, CampaignSpec, MixSource};
//! # let ctx: mppm_experiments::Context = unimplemented!();
//! # let spec: CampaignSpec = unimplemented!();
//! let result = Campaign::new(&spec).workers(4).run(&ctx)?;
//! # Ok::<(), mppm_campaign::CampaignError>(())
//! ```

pub mod aggregate;
pub mod distributed;
pub mod executor;
pub mod journal;
pub mod plan;
pub mod worker;

use std::fmt;
use std::path::PathBuf;

use mppm::mix::MixSpaceError;
use mppm_experiments::table::{f3, pct, Table};
use mppm_experiments::Context;
use mppm_obs::Span;
use mppm_sim::llc_configs;

pub use aggregate::{
    aggregate, aggregate_journal, stability_applies, AggregateOptions, CampaignAccumulator,
    DesignAggregate, SlowdownHistogram, StabilityPoint, SummaryStats,
};
pub use distributed::{execute_distributed, FAIL_AFTER_ENV, WORKER_ENV};
pub use executor::{execute_pending, ExecutionStats};
pub use journal::{Journal, MixOutcome, ShardRecord, JOURNAL_VERSION};
pub use mppm_wire::ProtocolMismatch;
pub use plan::{CampaignPlan, CampaignSpec, MixPopulation, MixSource, Shard, ShardId};
pub use worker::maybe_serve;

/// Everything that can go wrong running a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec is internally inconsistent (empty designs, zero shard
    /// size, out-of-range config, intractable shard count, ...).
    InvalidSpec(String),
    /// Mix-space arithmetic failed (count overflow, rank out of range).
    MixSpace(MixSpaceError),
    /// Persisting or reading journal state failed.
    Io(String),
    /// A shard could not be read back after execution reported success.
    MissingShard(ShardId),
    /// The journal directory holds shards in the retired JSON format.
    LegacyJournal(PathBuf),
    /// A shard file was written by a different journal format revision.
    FormatVersion {
        /// Version stamped in the shard header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A worker (or coordinator) speaks a different wire revision.
    Protocol(ProtocolMismatch),
    /// A distributed campaign failed before the work queue drained.
    Worker(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::MixSpace(e) => write!(f, "mix space error: {e}"),
            CampaignError::Io(msg) => write!(f, "campaign journal I/O error: {msg}"),
            CampaignError::MissingShard(id) => {
                write!(f, "shard d{}-{} missing from journal after execution", id.design, id.index)
            }
            CampaignError::LegacyJournal(dir) => write!(
                f,
                "journal {} holds shards in the retired JSON format; move it aside and \
                 recompute (JSON shards carry no checksum and cannot be trusted for resume)",
                dir.display()
            ),
            CampaignError::FormatVersion { found, expected } => write!(
                f,
                "journal shard format v{found} is not readable by this build (v{expected}); \
                 recompute into a fresh journal or use the build that wrote it"
            ),
            CampaignError::Protocol(e) => write!(f, "{e}"),
            CampaignError::Worker(msg) => write!(f, "distributed campaign failed: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A finished campaign: aggregates plus the run's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Journal directory name (encodes every result-affecting parameter).
    pub plan_id: String,
    /// Programs per mix.
    pub cores: usize,
    /// Mixes in the population.
    pub mixes: u64,
    /// Per-design aggregates, in spec order.
    pub designs: Vec<DesignAggregate>,
    /// Pairwise ranking-stability sweep.
    pub stability: Vec<StabilityPoint>,
    /// Execution bookkeeping (resume counts, throughput).
    pub stats: ExecutionStats,
}

/// One campaign run, configured fluently: plan → execute (in-process or
/// fanned out over worker processes, with resume) → aggregate.
///
/// Deterministic given the spec, context scale, and options: the journal
/// is the single source of aggregation input and the accumulator is an
/// exact monoid, so re-running — after a crash, with a different worker
/// count, or under any merge order — reproduces the result byte for
/// byte.
///
/// ```no_run
/// # use mppm_campaign::{Campaign, CampaignSpec};
/// # let ctx: mppm_experiments::Context = unimplemented!();
/// # let spec: CampaignSpec = unimplemented!();
/// # let dir: std::path::PathBuf = unimplemented!();
/// let result = Campaign::new(&spec)
///     .workers(4)          // 0 = in-process (the default)
///     .journal(&dir)       // default: the context store's root
///     .run(&ctx)?;
/// # Ok::<(), mppm_campaign::CampaignError>(())
/// ```
#[must_use = "a Campaign does nothing until .run()"]
pub struct Campaign<'a> {
    spec: CampaignSpec,
    options: AggregateOptions,
    workers: usize,
    worker_exe: Option<PathBuf>,
    journal_root: Option<PathBuf>,
    span: Option<&'a Span>,
}

impl<'a> Campaign<'a> {
    /// A campaign over `spec` with default options: in-process
    /// execution, journal in the context store, no observer.
    pub fn new(spec: &CampaignSpec) -> Self {
        Self {
            spec: spec.clone(),
            options: AggregateOptions::default(),
            workers: 0,
            worker_exe: None,
            journal_root: None,
            span: None,
        }
    }

    /// Aggregation options (stability-sweep sizes and trial counts).
    pub fn options(mut self, options: &AggregateOptions) -> Self {
        self.options = options.clone();
        self
    }

    /// Fan execution out over `workers` spawned worker processes.
    /// `0` (the default) executes in-process on the thread pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Binary to spawn as the worker (must call [`maybe_serve`] first
    /// thing in `main`). Defaults to this very executable.
    pub fn worker_exe(mut self, exe: &std::path::Path) -> Self {
        self.worker_exe = Some(exe.to_path_buf());
        self
    }

    /// Directory the shard journal lives under. Defaults to the context
    /// store's root, which resumes across runs for free.
    pub fn journal(mut self, root: &std::path::Path) -> Self {
        self.journal_root = Some(root.to_path_buf());
        self
    }

    /// Observe the run: one `plan` event up front, per-shard scopes
    /// with `checkpoint` events (or `worker-done` events when
    /// distributed), and a final `aggregated` event.
    pub fn observer(mut self, span: &'a Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Runs the campaign: plan, execute every pending shard (resuming
    /// journaled ones), aggregate from the journal.
    ///
    /// # Errors
    ///
    /// Spec validation, mix-space arithmetic, journal format/IO
    /// failures, or — when distributed — worker and protocol failures.
    pub fn run(&self, ctx: &Context) -> Result<CampaignResult, CampaignError> {
        use mppm_obs::Value;
        let disabled = Span::disabled();
        let span = self.span.unwrap_or(&disabled);
        let n = mppm_trace::suite::spec_suite().len();
        let plan = CampaignPlan::build(&self.spec, n, ctx.geometry())?;
        let journal_root =
            self.journal_root.clone().unwrap_or_else(|| ctx.store().root().to_path_buf());
        let journal = Journal::open(&journal_root, &plan)?;
        span.event(
            "plan",
            &[
                ("plan_id", Value::from(plan.id.as_str())),
                ("cores", Value::from(self.spec.cores)),
                ("mixes", Value::from(plan.population.len())),
                ("designs", Value::from(self.spec.designs.len())),
                ("shards", Value::from(plan.shards.len())),
                ("workers", Value::from(self.workers)),
            ],
        );
        let stats = if self.workers == 0 {
            execute_pending(ctx, &plan, &journal, span)?
        } else {
            let exe = match &self.worker_exe {
                Some(exe) => exe.clone(),
                None => std::env::current_exe().map_err(|e| {
                    CampaignError::Worker(format!("locating our own executable: {e}"))
                })?,
            };
            execute_distributed(ctx, &plan, &journal, &journal_root, self.workers, &exe, span)?
        };
        let (designs, stability) = aggregate_journal(&plan, &journal, &self.options)?;
        span.event(
            "aggregated",
            &[
                ("computed_shards", Value::from(stats.computed_shards)),
                ("resumed_shards", Value::from(stats.resumed_shards)),
                ("evaluated_mixes", Value::from(stats.evaluated_mixes)),
            ],
        );
        Ok(CampaignResult {
            plan_id: plan.id,
            cores: self.spec.cores,
            mixes: plan.population.len(),
            designs,
            stability,
            stats,
        })
    }
}

/// Short label for an LLC design point, e.g. `"#3 1MB/16w"`.
fn design_label(config_idx: usize) -> String {
    let cfg = llc_configs()[config_idx];
    format!("#{} {}KB/{}w", config_idx + 1, cfg.size_bytes / 1024, cfg.assoc)
}

/// Per-design summary table: STP and ANTT distributions over the mixes.
pub fn design_table(result: &CampaignResult) -> Table {
    let mut t = Table::new(&[
        "design", "mixes", "stp_mean", "stp_std", "stp_p10", "stp_p50", "stp_p90", "stp_min",
        "stp_max", "antt_mean", "antt_p90",
    ]);
    for d in &result.designs {
        t.row(vec![
            design_label(d.config_idx),
            d.mixes.to_string(),
            f3(d.stp.mean),
            f3(d.stp.std),
            f3(d.stp.p10),
            f3(d.stp.p50),
            f3(d.stp.p90),
            f3(d.stp.min),
            f3(d.stp.max),
            f3(d.antt.mean),
            f3(d.antt.p90),
        ]);
    }
    t
}

/// Worst-slowdown histogram table, one row per (design, bin) with a
/// non-zero count.
pub fn histogram_table(result: &CampaignResult) -> Table {
    let mut t = Table::new(&["design", "slowdown_lo", "slowdown_hi", "mixes"]);
    for d in &result.designs {
        for (i, &count) in d.slowdowns.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = d.slowdowns.bounds(i);
            t.row(vec![
                design_label(d.config_idx),
                f3(lo),
                hi.map(f3).unwrap_or_else(|| "inf".into()),
                count.to_string(),
            ]);
        }
    }
    t
}

/// Ranking-stability table: agreement of random mix subsets with the
/// full-space design ranking, per pair and subset size.
pub fn stability_table(result: &CampaignResult) -> Table {
    let mut t = Table::new(&["design_a", "design_b", "subset_mixes", "trials", "agreement"]);
    for p in &result.stability {
        t.row(vec![
            design_label(p.config_a),
            design_label(p.config_b),
            p.subset.to_string(),
            p.trials.to_string(),
            pct(p.agreement),
        ]);
    }
    t
}

/// The three campaign CSVs concatenated into one deterministic string —
/// the payload the resume and distributed tests compare byte for byte.
pub fn csv_bundle(result: &CampaignResult) -> String {
    format!(
        "# campaign {} ({} mixes x {} designs)\n{}\n{}\n{}",
        result.plan_id,
        result.mixes,
        result.designs.len(),
        design_table(result).to_csv(),
        histogram_table(result).to_csv(),
        stability_table(result).to_csv(),
    )
}

/// Provenance of a CSV bundle on disk: which run wrote it, at what
/// scale, from what command line. Recorded beside the CSVs in
/// `campaign_manifest.json` so a results directory is reviewable —
/// a smoke run can no longer masquerade as a paper-scale campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProvenance {
    /// Trace scale label (`"full"` or `"quick"`).
    pub scale: String,
    /// Command line of the producing process (program + flags).
    pub argv: Vec<String>,
}

impl RunProvenance {
    /// Provenance for the current process: `scale` plus its own argv.
    pub fn current(scale: mppm_experiments::Scale) -> Self {
        let scale = match scale {
            mppm_experiments::Scale::Full => "full",
            mppm_experiments::Scale::Quick => "quick",
        };
        Self { scale: scale.into(), argv: std::env::args().collect() }
    }
}

/// Largest per-design mix count in an existing `campaign_designs.csv`,
/// if the file is present and parseable.
fn existing_mix_count(path: &std::path::Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().skip(1).filter_map(|l| l.split(',').nth(1)?.parse().ok()).max()
}

/// Writes the campaign CSVs (`campaign_designs.csv`,
/// `campaign_slowdown_hist.csv`, `campaign_stability.csv`) into `dir`,
/// plus a `campaign_manifest.json` sidecar recording the plan id, mix
/// counts, and `provenance` (scale + command line) of the run that
/// produced them.
///
/// # Errors
///
/// Any I/O error creating the directory or writing a file — or, to
/// protect committed paper-scale data, an error when a run that is not
/// quick-scale targets a directory already holding a
/// `campaign_designs.csv` covering *more* mixes per design than this
/// result: a small run must never silently replace a full-campaign
/// bundle. Delete the old bundle first if the smaller replacement is
/// intentional. (Quick-scale runs are exempt: they only ever write to
/// the `target/quick-results/` scratch directory, where successive
/// smoke runs of different sizes legitimately replace each other.)
pub fn write_csvs(
    result: &CampaignResult,
    dir: &std::path::Path,
    provenance: &RunProvenance,
) -> std::io::Result<()> {
    use mppm_experiments::{atomic_write_bytes, atomic_write_json};
    use serde::Serialize;

    #[derive(Serialize)]
    struct ManifestDesign {
        label: String,
        mixes: u64,
    }
    #[derive(Serialize)]
    struct Manifest {
        plan_id: String,
        scale: String,
        cores: usize,
        mixes: u64,
        designs: Vec<ManifestDesign>,
        argv: Vec<String>,
    }

    std::fs::create_dir_all(dir)?;
    let designs_path = dir.join("campaign_designs.csv");
    if provenance.scale != "quick" {
        let new_max = result.designs.iter().map(|d| d.mixes).max().unwrap_or(0);
        let old_max = existing_mix_count(&designs_path);
        if old_max.is_some_and(|old| old > new_max) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Other,
                format!(
                    "refusing to overwrite {}: the existing bundle covers {} mixes \
                     per design, this run only {new_max}; a small run must not replace \
                     paper-scale results (delete the old CSVs first if the smaller \
                     replacement is intentional)",
                    designs_path.display(),
                    old_max.unwrap_or(0),
                ),
            ));
        }
    }
    atomic_write_bytes(&designs_path, design_table(result).to_csv().as_bytes())?;
    atomic_write_bytes(
        &dir.join("campaign_slowdown_hist.csv"),
        histogram_table(result).to_csv().as_bytes(),
    )?;
    atomic_write_bytes(
        &dir.join("campaign_stability.csv"),
        stability_table(result).to_csv().as_bytes(),
    )?;
    atomic_write_json(
        &dir.join("campaign_manifest.json"),
        &Manifest {
            plan_id: result.plan_id.clone(),
            scale: provenance.scale.clone(),
            cores: result.cores,
            mixes: result.mixes,
            designs: result
                .designs
                .iter()
                .map(|d| ManifestDesign { label: design_label(d.config_idx), mixes: d.mixes })
                .collect(),
            argv: provenance.argv.clone(),
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm_experiments::{Scale, Store};

    #[test]
    fn quick_campaign_end_to_end() {
        let root = std::env::temp_dir()
            .join(format!("mppm-campaign-lib-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctx = Context::with_store(Scale::Quick, Store::open(&root).unwrap());
        let spec = CampaignSpec {
            cores: 2,
            designs: vec![0, 5],
            source: MixSource::Stratified { count: 30, seed: 11 },
            shard_size: 8,
        };
        let options = AggregateOptions { stability_trials: 50, ..Default::default() };
        let result = Campaign::new(&spec).options(&options).run(&ctx).unwrap();

        assert_eq!(result.mixes, 30);
        assert_eq!(result.designs.len(), 2);
        // A 4x larger LLC (config #6 vs #1) cannot hurt mean throughput.
        assert!(
            result.designs[1].stp.mean >= result.designs[0].stp.mean,
            "2MB/24-cycle LLC should beat 512KB at quick scale: {} vs {}",
            result.designs[1].stp.mean,
            result.designs[0].stp.mean
        );
        assert!(!result.stability.is_empty());
        assert!(result.stability.iter().all(|p| (0.0..=1.0).contains(&p.agreement)));

        // Tables render and the CSV bundle is deterministic across a
        // fully-resumed re-run (the resume integration test does the
        // kill-mid-flight variant).
        assert_eq!(design_table(&result).len(), 2);
        assert!(histogram_table(&result).len() >= 2);
        let bundle = csv_bundle(&result);
        assert!(bundle.contains("design_a"));
        let again = Campaign::new(&spec).options(&options).run(&ctx).unwrap();
        assert_eq!(again.stats.computed_shards, 0, "second run fully resumed");
        assert_eq!(csv_bundle(&again), bundle);

        // write_csvs produces exactly the bundle's parts, plus a
        // provenance manifest naming the run.
        let out = root.join("csv-out");
        let provenance = RunProvenance::current(Scale::Quick);
        write_csvs(&result, &out, &provenance).unwrap();
        let designs = std::fs::read_to_string(out.join("campaign_designs.csv")).unwrap();
        assert_eq!(designs, design_table(&result).to_csv());
        let manifest = std::fs::read_to_string(out.join("campaign_manifest.json")).unwrap();
        assert!(manifest.contains(&result.plan_id), "manifest names the plan: {manifest}");
        assert!(manifest.contains("\"quick\""), "manifest records the scale: {manifest}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A full-scale result covering fewer mixes per design must not
    /// overwrite an existing bundle covering more — the committed
    /// paper-scale CSVs survive an accidental small run pointed at the
    /// same directory. Quick-scale writes are exempt (they only ever
    /// target the `target/quick-results/` scratch directory).
    #[test]
    fn write_csvs_refuses_to_shrink_an_existing_bundle() {
        let root = std::env::temp_dir()
            .join(format!("mppm-campaign-shrink-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctx = Context::with_store(Scale::Quick, Store::open(&root).unwrap());
        let spec_of = |count: usize| CampaignSpec {
            cores: 2,
            designs: vec![0, 1],
            source: MixSource::Stratified { count, seed: 3 },
            shard_size: 8,
        };
        let options = AggregateOptions { stability_trials: 10, ..Default::default() };
        let big = Campaign::new(&spec_of(24)).options(&options).run(&ctx).unwrap();
        let small = Campaign::new(&spec_of(6)).options(&options).run(&ctx).unwrap();
        let out = root.join("csv-out");
        let full = RunProvenance::current(Scale::Full);

        write_csvs(&big, &out, &full).unwrap();
        let committed = std::fs::read_to_string(out.join("campaign_designs.csv")).unwrap();
        let err = write_csvs(&small, &out, &full).unwrap_err();
        assert!(err.to_string().contains("refusing to overwrite"), "{err}");
        let after = std::fs::read_to_string(out.join("campaign_designs.csv")).unwrap();
        assert_eq!(after, committed, "refused write must leave the bundle untouched");

        // Equal-or-larger runs still overwrite freely (resumes, reruns),
        // and quick-scale smoke runs replace scratch output of any size.
        write_csvs(&big, &out, &full).unwrap();
        write_csvs(&small, &out, &RunProvenance::current(Scale::Quick)).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}

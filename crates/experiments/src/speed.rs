//! §4.3: speed of MPPM versus detailed simulation.
//!
//! The paper: detailed simulation of one 8-core mix takes ~12 hours on
//! CMP$im; MPPM takes a couple tenths of a second per mix after a one-time
//! single-core profiling cost (~1 hour per benchmark), making it up to
//! five orders of magnitude faster. Our "detailed simulator" is itself
//! fast (it exists precisely so this reproduction can measure ground
//! truth), so the *absolute* gap compresses; the shape — an analytic model
//! thousands of times faster than simulation, with per-mix model cost
//! linear in the number of programs — is what this experiment checks.

use mppm::mix::Mix;
use mppm_obs::{NoopSink, Observer};
use mppm_sim::MixSim;
use mppm_trace::suite;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

use crate::fig4::mixes_for;
use crate::table::{f3, write_bench_json, Table};
use crate::{Context, Scale};

/// Timing results for one core count.
#[derive(Debug, Clone, Copy)]
pub struct SpeedPoint {
    /// Programs per mix.
    pub cores: usize,
    /// Average seconds of detailed simulation per mix.
    pub sim_seconds: f64,
    /// Average seconds of MPPM evaluation per mix.
    pub model_seconds: f64,
}

impl SpeedPoint {
    /// Detailed-simulation time over model time.
    pub fn speedup(&self) -> f64 {
        self.sim_seconds / self.model_seconds
    }
}

/// Measures simulation and model time per mix for each core count.
///
/// `mixes_per_point` controls how many mixes are averaged (they hit the
/// store cache if Figure 4 ran first, in which case the recorded
/// simulation times are reused rather than re-measured).
pub fn run(ctx: &Context, core_counts: &[usize], mixes_per_point: usize) -> Vec<SpeedPoint> {
    let machine = ctx.baseline();
    let profiles = ctx.profiles(&machine);
    core_counts
        .iter()
        .map(|&cores| {
            let mixes: Vec<Mix> = mixes_for(cores, mixes_per_point);
            let mut sim_total = 0.0;
            for mix in &mixes {
                // The record stores the wall time of the original run even
                // on a cache hit.
                sim_total += ctx.simulate(mix, &profiles, &machine).sim_seconds;
            }
            let started = Instant::now();
            for mix in &mixes {
                let _ = ctx.predict(mix, &profiles);
            }
            let model_total = started.elapsed().as_secs_f64();
            SpeedPoint {
                cores,
                sim_seconds: sim_total / mixes.len() as f64,
                model_seconds: model_total / mixes.len() as f64,
            }
        })
        .collect()
}

/// Cold-vs-warm timing of the `mppm-analyze` workspace scan.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AnalyzePoint {
    /// Files scanned per pass.
    pub files: usize,
    /// Best full-scan seconds with no fact cache on disk (lex + parse +
    /// call graph from scratch, then a cache fill).
    pub cold_seconds: f64,
    /// Best full-scan seconds replaying the warm fact cache (fingerprint
    /// check + graph assembly only).
    pub warm_seconds: f64,
}

impl AnalyzePoint {
    /// Cold-scan time over warm-scan time.
    pub fn speedup(&self) -> f64 {
        self.cold_seconds / self.warm_seconds
    }
}

/// Times the full workspace lint scan cold (no fact cache on disk)
/// versus warm (replaying the per-file fact cache), best-of `rounds`
/// each, and asserts the two reports byte-identical — the benchmark
/// doubles as the cache-correctness differential check.
///
/// Uses a private cache file so concurrent `mppm-analyze` / `mppm-cli
/// lint` runs never contend with the benchmark.
pub fn analyze_comparison(rounds: usize) -> AnalyzePoint {
    let root = mppm_analyze::find_workspace_root(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")),
    )
    .expect("the experiments crate lives inside the workspace");
    let cache = root.join("target/analyze-facts-bench.cache");
    let opts = mppm_analyze::AnalyzeOptions {
        cache: Some(cache.clone()),
        ..mppm_analyze::AnalyzeOptions::default()
    };
    let mut best = [f64::INFINITY; 2];
    let mut files = 0;
    for _ in 0..rounds.max(1) {
        let _ = std::fs::remove_file(&cache);
        let started = Instant::now();
        let cold = mppm_analyze::analyze_workspace_opts(&root, &opts)
            .expect("workspace sources are readable");
        best[0] = best[0].min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let warm = mppm_analyze::analyze_workspace_opts(&root, &opts)
            .expect("workspace sources are readable");
        best[1] = best[1].min(started.elapsed().as_secs_f64());
        assert_eq!(
            mppm_analyze::report::json(&cold),
            mppm_analyze::report::json(&warm),
            "cached facts changed the report"
        );
        files = cold.files;
    }
    let _ = std::fs::remove_file(&cache);
    AnalyzePoint { files, cold_seconds: best[0], warm_seconds: best[1] }
}

/// Renders the analyzer cold/warm table and writes the CSV.
pub fn report_analyze(scale: Scale, point: &AnalyzePoint) -> Table {
    let mut t = Table::new(&["files", "cold s/scan", "warm s/scan", "speedup"]);
    t.row(vec![
        point.files.to_string(),
        f3(point.cold_seconds),
        f3(point.warm_seconds),
        format!("{:.2}x", point.speedup()),
    ]);
    let _ = t.save_csv(scale, "speed_analyze");
    t
}

/// Writes the machine-readable analyzer comparison to
/// `BENCH_analyze.json` ([`write_bench_json`] picks the directory
/// from `scale`).
pub fn write_analyze_json(scale: Scale, point: &AnalyzePoint) -> std::io::Result<PathBuf> {
    #[derive(Serialize)]
    struct BenchFile {
        description: String,
        unit: String,
        points: Vec<AnalyzePoint>,
    }
    let record = BenchFile {
        description: "mppm-analyze full-workspace scan: cold (no fact cache) vs \
                      warm (per-file fact-cache replay), reports asserted \
                      byte-identical, same build"
            .to_string(),
        unit: "seconds per scan".to_string(),
        points: vec![*point],
    };
    write_bench_json(scale, "analyze", &record)
}

/// One worker-count point of the distributed-campaign scaling sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DistCampaignPoint {
    /// Worker processes the shards were fanned out to (0 = in-process).
    pub workers: usize,
    /// End-to-end wall seconds for the campaign run (fresh journal).
    pub seconds: f64,
    /// Mix evaluations performed (mixes x design points).
    pub evaluations: u64,
}

impl DistCampaignPoint {
    /// Evaluations per wall second.
    pub fn throughput(&self) -> f64 {
        self.evaluations as f64 / self.seconds
    }
}

/// Locates a binary built alongside the running one (`target/<profile>/`),
/// looking one level up when invoked from a test binary in `deps/`.
fn sibling_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    let direct = dir.join(name);
    if direct.is_file() {
        return Some(direct);
    }
    if dir.ends_with("deps") {
        dir.pop();
        let up = dir.join(name);
        if up.is_file() {
            return Some(up);
        }
    }
    None
}

/// Times the same campaign through the `campaign` binary at each worker
/// count, each on a fresh journal, and byte-compares the CSV bundles —
/// the scaling benchmark doubles as the distribution differential check
/// (worker count must never change output bytes).
///
/// An untimed warm-up run first fills the shared trace store (profiles,
/// compiled traces) so every timed point sees the same cache
/// temperature. Returns `Err` if the `campaign` binary is not built,
/// a run fails, or any bundle differs from the first.
pub fn distcampaign_comparison(
    quick: bool,
    worker_counts: &[usize],
    sample: usize,
    shard_size: usize,
) -> Result<Vec<DistCampaignPoint>, String> {
    let exe = sibling_binary("campaign").ok_or_else(|| {
        "the `campaign` binary is not built; run `cargo build --release -p mppm-campaign` first"
            .to_string()
    })?;
    let configs = "1,2";
    let designs = 2u64;
    let scratch =
        std::env::temp_dir().join(format!("mppm-distcampaign-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;
    let run = |workers: usize, tag: &str| -> Result<(f64, Vec<u8>), String> {
        let journal = scratch.join(format!("journal-{tag}"));
        let bundle = scratch.join(format!("bundle-{tag}.csv"));
        let mut command = std::process::Command::new(&exe);
        if quick {
            command.arg("--quick");
        }
        command
            .args(["--cores", "4", "--configs", configs])
            .args(["--sample", &sample.to_string(), "--seed", "7"])
            .args(["--shard-size", &shard_size.to_string(), "--trials", "40"])
            .args(["--workers", &workers.to_string()])
            .arg("--journal")
            .arg(&journal)
            .arg("--bundle")
            .arg(&bundle)
            .env_remove("MPPM_WORKER_FAIL_AFTER")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit());
        let started = Instant::now();
        let status =
            command.status().map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let seconds = started.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("campaign --workers {workers} failed with {status}"));
        }
        let bytes = std::fs::read(&bundle).map_err(|e| format!("reading {bundle:?}: {e}"))?;
        Ok((seconds, bytes))
    };
    let result = (|| {
        // Warm-up: fill the store caches once, untimed.
        let (_, reference) = run(0, "warmup")?;
        let mut points = Vec::with_capacity(worker_counts.len());
        for &workers in worker_counts {
            let (seconds, bytes) = run(workers, &workers.to_string())?;
            if bytes != reference {
                return Err(format!(
                    "CSV bundle at {workers} workers differs from the in-process bundle \
                     ({} vs {} bytes): distribution changed the results",
                    bytes.len(),
                    reference.len()
                ));
            }
            points.push(DistCampaignPoint {
                workers,
                seconds,
                evaluations: sample as u64 * designs,
            });
        }
        Ok(points)
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Renders the distributed-campaign scaling table and writes the CSV.
pub fn report_distcampaign(scale: Scale, points: &[DistCampaignPoint]) -> Table {
    let mut t = Table::new(&["workers", "wall s", "evaluations", "evals/s"]);
    for p in points {
        t.row(vec![
            p.workers.to_string(),
            f3(p.seconds),
            p.evaluations.to_string(),
            format!("{:.0}", p.throughput()),
        ]);
    }
    let _ = t.save_csv(scale, "speed_distcampaign");
    t
}

/// Writes the machine-readable distributed-campaign scaling sweep to
/// `BENCH_distcampaign.json` ([`write_bench_json`] picks the directory
/// from `scale`).
pub fn write_distcampaign_json(
    scale: Scale,
    points: &[DistCampaignPoint],
) -> std::io::Result<PathBuf> {
    #[derive(Serialize)]
    struct BenchFile {
        description: String,
        unit: String,
        points: Vec<DistCampaignPoint>,
    }
    let record = BenchFile {
        description: "End-to-end campaign wall time per worker-process count, \
                      fresh journal each, CSV bundles byte-compared against the \
                      in-process run, same build"
            .to_string(),
        unit: "seconds per campaign".to_string(),
        points: points.to_vec(),
    };
    write_bench_json(scale, "distcampaign", &record)
}

/// Observability-overhead timing at one core count: the same mixes with
/// no observer, with a disabled observer (the default in every hot
/// path), and with an enabled [`NoopSink`] observer.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ObsPoint {
    /// Programs per mix.
    pub cores: usize,
    /// Average s/mix with no observer attached at all.
    pub baseline_seconds: f64,
    /// Average s/mix with an explicitly attached *disabled* span.
    pub disabled_seconds: f64,
    /// Average s/mix with an enabled observer feeding a no-op sink.
    pub noop_sink_seconds: f64,
}

impl ObsPoint {
    /// Fractional overhead of the disabled span against no observer
    /// (the "zero-cost" claim: this must stay under 2%).
    pub fn disabled_overhead(&self) -> f64 {
        self.disabled_seconds / self.baseline_seconds - 1.0
    }

    /// Fractional overhead of the enabled no-op-sink observer.
    pub fn noop_overhead(&self) -> f64 {
        self.noop_sink_seconds / self.baseline_seconds - 1.0
    }
}

/// Measures the cost of the observability layer on the detailed
/// simulator: identical mixes, three instrumentation levels, results
/// asserted bit-identical so the comparison cannot silently diverge.
///
/// Unlike [`run`], this never touches the store — all three variants
/// simulate fresh in the same process.
pub fn obs_overhead(ctx: &Context, core_counts: &[usize], mixes_per_point: usize) -> Vec<ObsPoint> {
    let machine = ctx.baseline();
    let geometry = ctx.geometry();
    let specs = suite::spec_suite();
    core_counts
        .iter()
        .map(|&cores| {
            let mixes: Vec<Mix> = mixes_for(cores, mixes_per_point);
            let mut seconds = [0.0f64; 3];
            for mix in &mixes {
                let members: Vec<_> = mix.members().iter().map(|&i| &specs[i]).collect();

                let started = Instant::now();
                let bare = MixSim::new(&members, &machine, geometry).run();
                seconds[0] += started.elapsed().as_secs_f64();

                let disabled = mppm_obs::Span::disabled();
                let started = Instant::now();
                let with_disabled =
                    MixSim::new(&members, &machine, geometry).observer(&disabled).run();
                seconds[1] += started.elapsed().as_secs_f64();

                let observer = Observer::new(Box::new(NoopSink));
                let root = observer.root("bench");
                let started = Instant::now();
                let with_noop =
                    MixSim::new(&members, &machine, geometry).observer(&root).run();
                seconds[2] += started.elapsed().as_secs_f64();

                assert_eq!(bare, with_disabled, "disabled observer changed results on {mix:?}");
                assert_eq!(bare, with_noop, "noop observer changed results on {mix:?}");
            }
            let per_mix = |total: f64| total / mixes.len() as f64;
            ObsPoint {
                cores,
                baseline_seconds: per_mix(seconds[0]),
                disabled_seconds: per_mix(seconds[1]),
                noop_sink_seconds: per_mix(seconds[2]),
            }
        })
        .collect()
}

/// Renders the observability-overhead table and writes the CSV.
pub fn report_obs(scale: Scale, points: &[ObsPoint]) -> Table {
    let mut t = Table::new(&[
        "cores",
        "baseline s/mix",
        "disabled s/mix",
        "noop-sink s/mix",
        "disabled overhead",
    ]);
    for p in points {
        t.row(vec![
            p.cores.to_string(),
            f3(p.baseline_seconds),
            f3(p.disabled_seconds),
            f3(p.noop_sink_seconds),
            format!("{:+.2}%", p.disabled_overhead() * 100.0),
        ]);
    }
    let _ = t.save_csv(scale, "speed_obs");
    t
}

/// Writes the machine-readable observability-overhead comparison to
/// `BENCH_obs.json` ([`write_bench_json`] picks the directory
/// from `scale`).
pub fn write_obs_json(scale: Scale, points: &[ObsPoint]) -> std::io::Result<PathBuf> {
    #[derive(Serialize)]
    struct BenchFile {
        description: String,
        unit: String,
        points: Vec<ObsPoint>,
    }
    let record = BenchFile {
        description: "Detailed-simulator s/mix with no observer, a disabled \
                      observer span, and an enabled no-op-sink observer, same build"
            .to_string(),
        unit: "seconds per mix".to_string(),
        points: points.to_vec(),
    };
    write_bench_json(scale, "obs", &record)
}

/// Renders the timing table and writes the CSV.
pub fn report(scale: Scale, points: &[SpeedPoint]) -> Table {
    let mut t = Table::new(&["cores", "sim s/mix", "model s/mix", "speedup"]);
    for p in points {
        t.row(vec![
            p.cores.to_string(),
            f3(p.sim_seconds),
            format!("{:.6}", p.model_seconds),
            format!("{:.0}x", p.speedup()),
        ]);
    }
    let _ = t.save_csv(scale, "speed");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_much_faster_than_simulation() {
        let ctx = Context::new(Scale::Quick);
        let points = run(&ctx, &[2], 2);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.sim_seconds > 0.0);
        assert!(p.model_seconds > 0.0);
        assert!(
            p.speedup() > 10.0,
            "even at smoke-test scale the model should be >10x faster, got {:.1}x",
            p.speedup()
        );
        let table = report(Scale::Quick, &points);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn obs_overhead_measures_and_serializes() {
        let ctx = Context::new(Scale::Quick);
        let points = obs_overhead(&ctx, &[2], 1);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.baseline_seconds > 0.0);
        assert!(p.disabled_seconds > 0.0);
        assert!(p.noop_sink_seconds > 0.0);
        let table = report_obs(Scale::Quick, &points);
        assert_eq!(table.len(), 1);
        let path = write_obs_json(Scale::Quick, &points).expect("json written");
        let raw = std::fs::read_to_string(path).expect("json readable");
        assert!(raw.contains("\"cores\":2"), "unexpected JSON shape: {raw}");
        assert!(raw.contains("disabled_seconds"));
        assert!(raw.contains("noop_sink_seconds"));
    }

    #[test]
    fn analyze_comparison_measures_and_serializes() {
        let point = analyze_comparison(2);
        assert!(point.files > 30, "scan is broken: only {} files", point.files);
        assert!(point.cold_seconds > 0.0);
        assert!(point.warm_seconds > 0.0);
        assert!(
            point.speedup() >= 2.0,
            "warm fact-cache scan should be >=2x faster than cold, got {:.2}x \
             (cold {:.4}s, warm {:.4}s)",
            point.speedup(),
            point.cold_seconds,
            point.warm_seconds
        );
        let table = report_analyze(Scale::Quick, &point);
        assert_eq!(table.len(), 1);
        let path = write_analyze_json(Scale::Quick, &point).expect("json written");
        let raw = std::fs::read_to_string(path).expect("json readable");
        assert!(raw.contains("cold_seconds"), "unexpected JSON shape: {raw}");
        assert!(raw.contains("warm_seconds"));
    }

    #[test]
    fn distcampaign_comparison_measures_and_serializes() {
        let points = match distcampaign_comparison(true, &[1, 2], 24, 4) {
            Ok(points) => points,
            // The `campaign` binary is built by the workspace, not by
            // `cargo test -p mppm-experiments` alone — skip, not fail.
            Err(e) if e.contains("not built") => return,
            Err(e) => panic!("distributed campaign bench failed: {e}"),
        };
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.seconds > 0.0);
            assert_eq!(p.evaluations, 48);
        }
        let table = report_distcampaign(Scale::Quick, &points);
        assert_eq!(table.len(), 2);
        let path = write_distcampaign_json(Scale::Quick, &points).expect("json written");
        let raw = std::fs::read_to_string(path).expect("json readable");
        assert!(raw.contains("\"workers\":1"), "unexpected JSON shape: {raw}");
        assert!(raw.contains("evaluations"));
    }
}

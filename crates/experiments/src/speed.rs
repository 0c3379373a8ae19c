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

use mppm_obs::{NoopSink, Observer};
use mppm_sim::MixSim;
use mppm_trace::suite;
use std::path::PathBuf;
use std::time::Instant;

use crate::fig4::mixes_for;
use crate::table::BenchRecord;
use crate::Context;

/// Measures simulation and model time per mix for each core count: the
/// `speed` suite, variants `sim` and `model` (s/mix) and their per-mix
/// ratio `speedup`, one sample per mix.
///
/// `mixes_per_point` controls how many mixes are sampled (they hit the
/// store cache if Figure 4 ran first, in which case the recorded
/// simulation times are reused rather than re-measured).
pub fn run(ctx: &Context, core_counts: &[usize], mixes_per_point: usize) -> Vec<BenchRecord> {
    let machine = ctx.baseline();
    let profiles = ctx.profiles(&machine);
    let mut records = Vec::new();
    for &cores in core_counts {
        let mut sim = Vec::with_capacity(mixes_per_point);
        let mut model = Vec::with_capacity(mixes_per_point);
        for mix in &mixes_for(cores, mixes_per_point) {
            // The record stores the wall time of the original run even
            // on a cache hit.
            sim.push(ctx.simulate(mix, &profiles, &machine).sim_seconds);
            let started = Instant::now();
            let _ = ctx.predict(mix, &profiles);
            model.push(started.elapsed().as_secs_f64());
        }
        let speedup: Vec<f64> = sim.iter().zip(&model).map(|(s, m)| s / m).collect();
        let param = format!("cores={cores}");
        records.push(BenchRecord::of_samples("speed", "sim", &param, "s/mix", &sim));
        records.push(BenchRecord::of_samples("speed", "model", &param, "s/mix", &model));
        records.push(BenchRecord::of_samples("speed", "speedup", &param, "x", &speedup));
    }
    records
}

/// Times the full workspace lint scan cold (no fact cache on disk)
/// versus warm (replaying the per-file fact cache), `rounds` times each,
/// and asserts the two reports byte-identical — the benchmark doubles as
/// the cache-correctness differential check. The `analyze` suite:
/// variants `cold` and `warm` (s/scan) and their per-round ratio
/// `speedup`, at `files=<scanned files>`.
///
/// Uses a private cache file so concurrent `mppm-analyze` / `mppm-cli
/// lint` runs never contend with the benchmark.
pub fn analyze_comparison(rounds: usize) -> Vec<BenchRecord> {
    let root = mppm_analyze::find_workspace_root(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")),
    )
    .expect("the experiments crate lives inside the workspace");
    let cache = root.join("target/analyze-facts-bench.cache");
    let opts = mppm_analyze::AnalyzeOptions {
        cache: Some(cache.clone()),
        ..mppm_analyze::AnalyzeOptions::default()
    };
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut files = 0;
    for _ in 0..rounds.max(1) {
        let _ = std::fs::remove_file(&cache);
        let started = Instant::now();
        let cold_report = mppm_analyze::analyze_workspace_opts(&root, &opts)
            .expect("workspace sources are readable");
        cold.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let warm_report = mppm_analyze::analyze_workspace_opts(&root, &opts)
            .expect("workspace sources are readable");
        warm.push(started.elapsed().as_secs_f64());
        assert_eq!(
            mppm_analyze::report::json(&cold_report),
            mppm_analyze::report::json(&warm_report),
            "cached facts changed the report"
        );
        files = cold_report.files;
    }
    let _ = std::fs::remove_file(&cache);
    let speedup: Vec<f64> = cold.iter().zip(&warm).map(|(c, w)| c / w).collect();
    let param = format!("files={files}");
    vec![
        BenchRecord::of_samples("analyze", "cold", &param, "s/scan", &cold),
        BenchRecord::of_samples("analyze", "warm", &param, "s/scan", &warm),
        BenchRecord::of_samples("analyze", "speedup", &param, "x", &speedup),
    ]
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

/// Times the same campaign through `mppm-cli campaign` at each worker
/// count, each on a fresh journal, and byte-compares the CSV bundles —
/// the scaling benchmark doubles as the distribution differential check
/// (worker count must never change output bytes). The `distcampaign`
/// suite: one run per `workers=<n>` (0 = in-process), variants `wall`
/// (s) and `throughput` (mix evaluations per second).
///
/// The campaign always runs at quick trace geometry: at full scale
/// `mppm-cli campaign` writes `results/campaign_*.csv` and, rightly,
/// refuses to replace the committed paper-scale bundle with a sample.
/// `sample` and `worker_counts` set the sweep's size.
///
/// An untimed warm-up run first fills the shared trace store (profiles,
/// compiled traces) so every timed point sees the same cache
/// temperature. Returns `Err` if the `mppm-cli` binary is not built,
/// a run fails, or any bundle differs from the first.
pub fn distcampaign_comparison(
    worker_counts: &[usize],
    sample: usize,
    shard_size: usize,
) -> Result<Vec<BenchRecord>, String> {
    let exe = sibling_binary("mppm-cli").ok_or_else(|| {
        "the `mppm-cli` binary is not built; run `cargo build --release -p mppm-cli` first"
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
        command
            .args(["campaign", "--quick"])
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
            return Err(format!("mppm-cli campaign --workers {workers} failed with {status}"));
        }
        let bytes = std::fs::read(&bundle).map_err(|e| format!("reading {bundle:?}: {e}"))?;
        Ok((seconds, bytes))
    };
    let result = (|| {
        // Warm-up: fill the store caches once, untimed.
        let (_, reference) = run(0, "warmup")?;
        let evaluations = (sample as u64 * designs) as f64;
        let mut records = Vec::with_capacity(2 * worker_counts.len());
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
            let param = format!("workers={workers}");
            records.push(BenchRecord::of_value("distcampaign", "wall", &param, "s", 1, seconds));
            records.push(BenchRecord::of_value(
                "distcampaign",
                "throughput",
                &param,
                "evals/s",
                1,
                evaluations / seconds,
            ));
        }
        Ok(records)
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Measures the cost of the observability layer on the detailed
/// simulator: identical mixes with no observer (`baseline`), with an
/// explicitly attached disabled span (`disabled`, the default in every
/// hot path) and with an enabled observer feeding a [`NoopSink`]
/// (`noop-sink`), in s/mix, plus each mix's `disabled-overhead` over
/// the baseline in percent. Results are asserted bit-identical so the
/// comparison cannot silently diverge.
///
/// Unlike [`run`], this never touches the store — all three variants
/// simulate fresh in the same process.
pub fn obs_overhead(
    ctx: &Context,
    core_counts: &[usize],
    mixes_per_point: usize,
) -> Vec<BenchRecord> {
    let machine = ctx.baseline();
    let geometry = ctx.geometry();
    let specs = suite::spec_suite();
    let mut records = Vec::new();
    for &cores in core_counts {
        // Seconds per mix: no observer, disabled span, no-op sink.
        let mut seconds: [Vec<f64>; 3] = Default::default();
        for mix in &mixes_for(cores, mixes_per_point) {
            let members: Vec<_> = mix.members().iter().map(|&i| &specs[i]).collect();

            let started = Instant::now();
            let bare = MixSim::new(&members, &machine, geometry).run();
            seconds[0].push(started.elapsed().as_secs_f64());

            let disabled = mppm_obs::Span::disabled();
            let started = Instant::now();
            let with_disabled =
                MixSim::new(&members, &machine, geometry).observer(&disabled).run();
            seconds[1].push(started.elapsed().as_secs_f64());

            let observer = Observer::new(Box::new(NoopSink));
            let root = observer.root("bench");
            let started = Instant::now();
            let with_noop = MixSim::new(&members, &machine, geometry).observer(&root).run();
            seconds[2].push(started.elapsed().as_secs_f64());

            assert_eq!(bare, with_disabled, "disabled observer changed results on {mix:?}");
            assert_eq!(bare, with_noop, "noop observer changed results on {mix:?}");
        }
        let overhead: Vec<f64> =
            seconds[1].iter().zip(&seconds[0]).map(|(d, b)| (d / b - 1.0) * 100.0).collect();
        let param = format!("cores={cores}");
        for (variant, samples) in ["baseline", "disabled", "noop-sink"].into_iter().zip(&seconds) {
            records.push(BenchRecord::of_samples("obs", variant, &param, "s/mix", samples));
        }
        records.push(BenchRecord::of_samples("obs", "disabled-overhead", &param, "%", &overhead));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{find_record, publish};
    use crate::Scale;

    #[test]
    fn model_is_much_faster_than_simulation() {
        let ctx = Context::new(Scale::Quick);
        let records = run(&ctx, &[2], 2);
        assert_eq!(records.len(), 3);
        let sim = find_record(&records, "sim", "cores=2");
        let model = find_record(&records, "model", "cores=2");
        assert_eq!((sim.n, model.n), (2, 2));
        assert!(sim.median > 0.0);
        assert!(model.median > 0.0);
        let speedup = find_record(&records, "speedup", "cores=2").median;
        assert!(
            speedup > 10.0,
            "even at smoke-test scale the model should be >10x faster, got {speedup:.1}x"
        );
    }

    #[test]
    fn obs_overhead_measures_and_serializes() {
        let ctx = Context::new(Scale::Quick);
        let records = obs_overhead(&ctx, &[2], 1);
        assert_eq!(records.len(), 4);
        for variant in ["baseline", "disabled", "noop-sink"] {
            let r = find_record(&records, variant, "cores=2");
            assert_eq!(r.n, 1);
            assert!(r.median > 0.0, "{r:?}");
            assert_eq!((r.ci_lo, r.ci_hi), (r.median, r.median), "one sample, no interval");
        }
        publish(Scale::Quick, "obs", "obs overhead", &records).expect("published");
    }

    #[test]
    fn analyze_comparison_measures_and_serializes() {
        let records = analyze_comparison(2);
        let files: usize = records[0].param["files=".len()..].parse().expect("files=N");
        assert!(files > 30, "scan is broken: only {files} files");
        let cold = find_record(&records, "cold", &records[0].param);
        let warm = find_record(&records, "warm", &records[0].param);
        assert!(cold.median > 0.0);
        assert!(warm.median > 0.0);
        let speedup = find_record(&records, "speedup", &records[0].param).median;
        assert!(
            speedup >= 2.0,
            "warm fact-cache scan should be >=2x faster than cold, got {speedup:.2}x \
             (cold {:.4}s, warm {:.4}s)",
            cold.median,
            warm.median
        );
        publish(Scale::Quick, "analyze", "analyze cold vs warm", &records).expect("published");
    }

    #[test]
    fn distcampaign_comparison_measures_and_serializes() {
        let records = match distcampaign_comparison(&[1, 2], 24, 4) {
            Ok(records) => records,
            // The `mppm-cli` binary is built by the workspace, not by
            // `cargo test -p mppm-experiments` alone — skip, not fail.
            Err(e) if e.contains("not built") => return,
            Err(e) => panic!("distributed campaign bench failed: {e}"),
        };
        assert_eq!(records.len(), 4);
        for param in ["workers=1", "workers=2"] {
            let wall = find_record(&records, "wall", param).median;
            let throughput = find_record(&records, "throughput", param).median;
            assert!(wall > 0.0);
            let evaluations = throughput * wall;
            assert!((evaluations - 48.0).abs() < 1e-6, "{evaluations} evaluations, not 48");
        }
        publish(Scale::Quick, "distcampaign", "distcampaign", &records).expect("published");
    }
}

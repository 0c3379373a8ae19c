//! Regenerates §4.3 (MPPM speed versus detailed simulation) and every other timing suite.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin speed [--quick]
//! [--analyze-only] [--distcampaign-only]`
//!
//! `--analyze-only` runs just the mppm-analyze workspace scan
//! (regenerating `BENCH_analyze.json`), gated on the upper end of its
//! 95% interval staying under 2 s.
//! `--distcampaign-only` runs just the distributed-campaign scaling
//! sweep (regenerating `BENCH_distcampaign.json`), gated on the CSV
//! bundle being byte-identical at every worker count.

use mppm_experiments::table::{publish, BenchRecord};
use mppm_experiments::{speed, Context, Scale};

/// Publishes one suite, warning (not failing) when a file can't be written.
fn publish_or_warn(scale: Scale, suite: &str, description: &str, records: &[BenchRecord]) {
    if let Err(e) = publish(scale, suite, description, records) {
        eprintln!("warning: could not write the {suite} records: {e}");
    }
}

fn run_distcampaign(scale: Scale) {
    let (workers, sample, shard_size): (&[usize], usize, usize) = match scale {
        Scale::Full => (&[1, 2, 4, 8], 4096, 64),
        Scale::Quick => (&[1, 2, 4], 48, 8),
    };
    let records = match speed::distcampaign_comparison(workers, sample, shard_size) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    publish_or_warn(
        scale,
        "distcampaign",
        &format!(
            "Distributed campaign: wall time per worker-process count, {} evaluations \
             (quick-geometry traces), fresh journal each, CSV bundles byte-compared \
             against the in-process run",
            2 * sample
        ),
        &records,
    );
}

fn main() {
    let ctx = Context::new(Scale::from_args());
    let analyze_only = std::env::args().any(|a| a == "--analyze-only");
    let distcampaign_only = std::env::args().any(|a| a == "--distcampaign-only");
    if distcampaign_only {
        run_distcampaign(ctx.scale());
        return;
    }

    // Analyzer scan time. Runs first (and alone under --analyze-only)
    // because it needs no traces or profiles.
    let analyze = speed::analyze_comparison(5);
    publish_or_warn(
        ctx.scale(),
        "analyze",
        "mppm-analyze workspace scan, reports asserted byte-identical from round to round",
        &analyze,
    );
    // Gate: a full scan of the workspace must stay interactive. 2 s is
    // ~20x headroom over the observed scan time, so only a gross
    // regression (a quadratic graph pass) trips it; the gate reads the
    // interval's upper end, not the median.
    let scan = &analyze[0];
    if scan.ci_hi >= 2.0 {
        eprintln!(
            "error: analyze scan took up to {:.2}s (95% interval upper end, {}); the bound is 2s",
            scan.ci_hi, scan.param
        );
        std::process::exit(1);
    }
    if analyze_only {
        return;
    }
    let mixes = match ctx.scale() {
        Scale::Full => 10,
        Scale::Quick => 2,
    };
    publish_or_warn(
        ctx.scale(),
        "speed",
        "§4.3 — speed: analytic model vs detailed simulation, per mix \
         (the paper reports up to five orders of magnitude against CMP$im; \
         our ground-truth simulator is itself ~10^4x faster than CMP$im, so \
         the measured gap compresses accordingly — see EXPERIMENTS.md)",
        &speed::run(&ctx, &[2, 4, 8, 16], mixes),
    );
    let substrates = speed::substrates(&ctx);
    publish_or_warn(ctx.scale(), "substrates", "Substrate layers timed alone", &substrates);

    // Observability overhead: the zero-cost claim, measured. The same
    // mixes run bare, with a disabled observer span, and with an enabled
    // no-op sink; results are asserted identical inside obs_overhead.
    let bench_mixes = match ctx.scale() {
        Scale::Full => 3,
        Scale::Quick => 2,
    };
    let obs = speed::obs_overhead(&ctx, &[2, 4, 8, 16], bench_mixes);
    publish_or_warn(
        ctx.scale(),
        "obs",
        "Observability overhead: detailed-simulator s/mix with no observer, a disabled \
         span (must cost < 2%) and an enabled no-op-sink observer",
        &obs,
    );

    // Distributed-campaign scaling: the same campaign through 1..N
    // worker processes, CSV bundles byte-compared inside the bench.
    run_distcampaign(ctx.scale());

    // Gate: a disabled observer must be free. Quick-scale runs are short
    // enough that run-to-run jitter swamps a 2% bound (±8% observed), so
    // the smoke gate only catches gross regressions — accidental work on
    // the disabled path shows up as 2x, not 10%.
    let budget_pct = match ctx.scale() {
        Scale::Full => 2.0,
        Scale::Quick => 25.0,
    };
    for r in obs.iter().filter(|r| r.variant == "disabled-overhead") {
        if r.median > budget_pct {
            eprintln!(
                "error: disabled-observer overhead {:+.2}% at {} exceeds the {budget_pct:.0}% budget",
                r.median, r.param
            );
            std::process::exit(1);
        }
    }
}

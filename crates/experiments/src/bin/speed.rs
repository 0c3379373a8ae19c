//! Regenerates §4.3: MPPM speed versus detailed simulation.
//!
//! Usage: `cargo run --release -p mppm-experiments --bin speed [--quick]
//! [--analyze-only] [--distcampaign-only]`
//!
//! `--analyze-only` runs just the mppm-analyze cold-vs-warm scan
//! comparison (regenerating `BENCH_analyze.json`), gated on the warm
//! scan being at least 2x faster than cold and under a wall-clock bound.
//! `--distcampaign-only` runs just the distributed-campaign scaling
//! sweep (regenerating `BENCH_distcampaign.json`), gated on the CSV
//! bundle being byte-identical at every worker count.

use mppm_experiments::{speed, Context, Scale};

fn run_distcampaign(scale: Scale) {
    let quick = matches!(scale, Scale::Quick);
    let (workers, sample, shard_size): (&[usize], usize, usize) =
        if quick { (&[1, 2, 4], 48, 8) } else { (&[1, 2, 4, 8], 4096, 64) };
    let points = match speed::distcampaign_comparison(quick, workers, sample, shard_size) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let table = speed::report_distcampaign(scale, &points);
    println!("\nDistributed campaign: worker-process scaling (bundles byte-compared)");
    println!("{}", table.render());
    match speed::write_distcampaign_json(scale, &points) {
        Ok(path) => println!("(machine-readable copy: {})", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_distcampaign.json: {e}"),
    }
}

fn main() {
    let ctx = Context::new(Scale::from_args());
    let analyze_only = std::env::args().any(|a| a == "--analyze-only");
    let distcampaign_only = std::env::args().any(|a| a == "--distcampaign-only");
    if distcampaign_only {
        run_distcampaign(ctx.scale());
        return;
    }

    // Analyzer cold-vs-warm: the fact cache must pay for itself. Runs
    // first (and alone under --analyze-only) because it needs no traces
    // or profiles.
    let analyze = speed::analyze_comparison(3);
    let antable = speed::report_analyze(ctx.scale(), &analyze);
    println!("\nmppm-analyze workspace scan: cold vs warm fact cache");
    println!("{}", antable.render());
    match speed::write_analyze_json(ctx.scale(), &analyze) {
        Ok(path) => println!("(machine-readable copy: {})", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_analyze.json: {e}"),
    }
    // Gates: the warm scan must be >=2x faster than cold, and a full
    // warm scan of the workspace must stay interactive — 2 s is ~20x
    // headroom over the observed warm time, so only a gross regression
    // (cache never hitting, quadratic graph pass) trips it.
    if analyze.speedup() < 2.0 {
        eprintln!(
            "error: warm analyze scan is only {:.2}x faster than cold (cold {:.4}s, warm {:.4}s); \
             the fact cache must buy >=2x",
            analyze.speedup(),
            analyze.cold_seconds,
            analyze.warm_seconds
        );
        std::process::exit(1);
    }
    if analyze.warm_seconds > 2.0 {
        eprintln!(
            "error: warm analyze scan took {:.2}s for {} files; the wall-clock bound is 2s",
            analyze.warm_seconds, analyze.files
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
    let points = speed::run(&ctx, &[2, 4, 8, 16], mixes);
    let table = speed::report(ctx.scale(), &points);
    println!("\n§4.3 — speed: analytic model vs detailed simulation");
    println!("{}", table.render());
    println!(
        "(the paper reports up to five orders of magnitude against CMP$im;\n our ground-truth simulator is itself ~10^4x faster than CMP$im, so\n the measured gap compresses accordingly — see EXPERIMENTS.md)"
    );

    // Observability overhead: the zero-cost claim, measured. The same
    // mixes run bare, with a disabled observer span, and with an enabled
    // no-op sink; results are asserted identical inside obs_overhead.
    let bench_mixes = match ctx.scale() {
        Scale::Full => 3,
        Scale::Quick => 2,
    };
    let obs = speed::obs_overhead(&ctx, &[2, 4, 8, 16], bench_mixes);
    let otable = speed::report_obs(ctx.scale(), &obs);
    println!("\nObservability overhead: disabled span must cost < 2%");
    println!("{}", otable.render());
    match speed::write_obs_json(ctx.scale(), &obs) {
        Ok(path) => println!("(machine-readable copy: {})", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_obs.json: {e}"),
    }

    // Distributed-campaign scaling: the same campaign through 1..N
    // worker processes, CSV bundles byte-compared inside the bench.
    run_distcampaign(ctx.scale());

    // Gate: a disabled observer must be free. Quick-scale runs are short
    // enough that run-to-run jitter swamps a 2% bound (±8% observed), so
    // the smoke gate only catches gross regressions — accidental work on
    // the disabled path shows up as 2x, not 10%.
    let budget = match ctx.scale() {
        Scale::Full => 0.02,
        Scale::Quick => 0.25,
    };
    for p in &obs {
        if p.disabled_overhead() > budget {
            eprintln!(
                "error: disabled-observer overhead {:+.2}% at {} cores exceeds the {:.0}% budget",
                p.disabled_overhead() * 100.0,
                p.cores,
                budget * 100.0
            );
            std::process::exit(1);
        }
    }
}

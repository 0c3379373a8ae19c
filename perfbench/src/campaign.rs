//! `campaign`: the committed full-scale campaign, in process, on a fresh
//! store and journal — the whole 4-program mix space (35,960 mixes) on
//! LLC configs #1 and #2 at paper geometry, shard size 64, 200
//! stability trials. This is the paper's use case: profile once, solve
//! the model for every mix. Its set-up is suite profiling; it never
//! replays a trace through the multi-core simulator or talks to the
//! server.

use mppm::mix::Mix;
use mppm::SingleCoreProfile;
use mppm_campaign::{
    design_table, histogram_table, stability_table, AggregateOptions, Campaign, CampaignPlan,
    CampaignResult, CampaignSpec, MixSource,
};
use mppm_experiments::{Context, Scale, Store};
use mppm_sim::MachineConfig;
use mppm_trace::{suite, BenchmarkSpec};

use crate::layers::{self, Tr};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::{median, summarize};
use crate::{host, serve, Run};

/// The committed bundle the campaign's output must equal byte for byte.
const COMMITTED: [&str; 3] = [
    "results/campaign_designs.csv",
    "results/campaign_slowdown_hist.csv",
    "results/campaign_stability.csv",
];

/// Campaign mixes the traced run solves in isolation.
const SOLVE_SAMPLE: usize = 2000;

fn spec() -> CampaignSpec {
    CampaignSpec {
        cores: 4,
        designs: vec![0, 1],
        source: MixSource::Exhaustive,
        shard_size: 64,
    }
}

fn options() -> AggregateOptions {
    AggregateOptions {
        stability_trials: 200,
        ..Default::default()
    }
}

fn committed() -> Result<Vec<String>, String> {
    COMMITTED
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("reading committed {p}: {e}")))
        .collect()
}

/// Counts one campaign run, failed unless its three CSVs equal the
/// committed ones.
fn gate(report: &mut Report, result: &CampaignResult, expected: &[String]) {
    let tables = [
        design_table(result).to_csv(),
        histogram_table(result).to_csv(),
        stability_table(result).to_csv(),
    ];
    for (table, (want, path)) in tables.iter().zip(expected.iter().zip(COMMITTED)) {
        report.op(table == want, || {
            format!("campaign output differs from committed {path}")
        });
    }
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let expected = committed()?;
    let store = Store::open(run.dir.join("store")).map_err(|e| format!("opening store: {e}"))?;
    let ctx = Context::with_store(Scale::Full, store);
    let keys: Vec<(&BenchmarkSpec, MachineConfig)> = spec()
        .designs
        .iter()
        .flat_map(|&d| suite::spec_suite().iter().map(move |s| (s, d)))
        .map(|(s, d)| (s, ctx.machine_with_config(d)))
        .collect();
    if !run.trace {
        // Set-up: the suite profiles of both designs, exactly the
        // `Store::profile` calls the campaign would make on first use.
        layers::profile_all(None, ctx.store(), &keys, ctx.geometry());
        report.set("setup_s", run.started.elapsed().as_secs_f64());
        let (mut millis, mut rates) = (Vec::new(), Vec::new());
        let window = host::now();
        for rep in 0.. {
            let (dt, result) = timed_campaign(&ctx, &run.dir.join(format!("journal-{rep}")))?;
            gate(report, &result, &expected);
            println!(
                "campaign run {rep}: {:.3} s, {} evaluations",
                dt, result.stats.evaluated_mixes
            );
            millis.push(dt * 1e3);
            rates.push(result.stats.evaluated_mixes as f64 / dt);
            if window.elapsed().as_secs_f64() >= run.seconds {
                break;
            }
        }
        let latency = summarize(&millis);
        println!(
            "campaign_evals_per_s = {:.1} 1/s (median of {})",
            median(&rates),
            rates.len()
        );
        println!("campaign latency {}", latency.describe("ms"));
        report.set("work_per_s", median(&rates));
        report.set(
            "peak_rss_mb",
            host::peak_rss_mb(None).ok_or("reading VmHWM")?,
        );
        return Ok(());
    }

    let tracer = Tracer::new(&run.dir.join("trace.jsonl"));
    ctx.store().attach_counters(tracer.observer());
    let root = tracer.root();
    let tr: Tr = Some((&tracer, &root));
    layers::profile_all(tr, ctx.store(), &keys, ctx.geometry());

    let (untraced_s, result) = timed_campaign(&ctx, &run.dir.join("journal-untraced"))?;
    gate(report, &result, &expected);
    let (result, journal_bytes) = layers::campaign_phases(
        tr,
        &ctx,
        &spec(),
        &options(),
        &run.dir.join("journal-traced"),
    )?;
    gate(report, &result, &expected);

    // The model alone on a seeded sample of campaign mixes.
    let mut rng = Rng::new(run.seed);
    let plan = CampaignPlan::build(&spec(), suite::spec_suite().len(), ctx.geometry())
        .map_err(|e| e.to_string())?;
    let profiles = ctx.profiles(&ctx.machine_with_config(0));
    let mixes: Vec<Mix> = (0..SOLVE_SAMPLE)
        .map(|_| {
            plan.population
                .mix_at(rng.below(plan.population.len() as usize) as u64)
        })
        .collect();
    let refs: Vec<Vec<&SingleCoreProfile>> = mixes.iter().map(|m| m.resolve(&profiles)).collect();
    layers::solve(tr, report, &refs)?;
    let hits = layers::profile_hits(tr, ctx.store(), &keys, ctx.geometry(), 20);
    let names = |m: &Mix| -> Vec<&str> {
        m.members()
            .iter()
            .map(|&b| suite::spec_suite()[b].name())
            .collect()
    };
    let lines: Vec<String> = mixes
        .iter()
        .enumerate()
        .map(|(i, m)| layers::request_line(i as u64 + 1, &names(m), 0, false))
        .collect();
    let value = layers::result_value(
        &layers::model()
            .predict(&refs[0])
            .map_err(|e| e.to_string())?,
    );
    layers::protocol(tr, report, &lines, &value);

    // Detailed simulation of one campaign mix: what the model saves.
    let mix_profiles: Vec<SingleCoreProfile> = refs[0].iter().map(|p| (*p).clone()).collect();
    let sim = layers::simulate(
        tr,
        &names(&mixes[0]),
        &ctx.machine_with_config(0),
        ctx.geometry(),
        &mix_profiles,
    )?;
    drop(root);
    report.set(
        "store.profile_load",
        layers::counter(&tracer, "store.profile_load") as f64,
    );
    let calls = tracer.fold()?;
    layers::record_profiles(report, &calls, ctx.geometry());
    layers::record_campaign(report, &calls, journal_bytes);
    layers::record_solve(report, &calls, SOLVE_SAMPLE);
    layers::record_profile_hits(report, &calls, hits);
    layers::record_protocol(report, &calls, lines.len());
    layers::record_sims(report, &calls, &[sim]);
    // Campaign::run plans, executes, then loads and aggregates the
    // journal; the traced phases do the same work in separate spans (the
    // re-store into a second journal is extra and left out).
    let traced_s: f64 = ["plan", "execute", "journal_load", "aggregate"]
        .iter()
        .map(|p| layers::call(&calls, &format!("campaign:{p}")).self_s)
        .sum();
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    println!("traced campaign {traced_s:.3} s vs untraced {untraced_s:.3} s");
    serve::probe(run, report)
}

/// One full campaign on a fresh journal under `root`: seconds taken and
/// the result.
fn timed_campaign(ctx: &Context, root: &std::path::Path) -> Result<(f64, CampaignResult), String> {
    let started = host::now();
    let result = Campaign::new(&spec())
        .options(&options())
        .journal(root)
        .run(ctx);
    let dt = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(root);
    Ok((dt, result.map_err(|e| e.to_string())?))
}

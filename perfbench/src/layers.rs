//! Calls into each layer's public functions, shared by the workloads.
//!
//! Each function optionally runs under the benchmark's tracer: with a
//! tracer every layer call sits in its own `<layer>:<call>` span, and
//! the folded self times become the per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use mppm::{FoaModel, Mppm, Prediction, SingleCoreProfile, SolverScratch};
use mppm_campaign::{
    aggregate, execute_pending, AggregateOptions, CampaignPlan, CampaignResult, CampaignSpec,
    Journal,
};
use mppm_experiments::{Context, Store};
use mppm_obs::Span;
use mppm_server::protocol::{ok_frame, resolve, Request, PROTOCOL_VERSION};
use mppm_sim::{MachineConfig, MixResult, MixSim, TraceCache};
use mppm_trace::{suite, BenchmarkSpec, TraceGeometry};
use serde::Value;

use crate::host;
use crate::report::Report;
use crate::spans::{CallTime, Tracer};

/// The tracer and root span of a traced run; `None` when untraced.
pub type Tr<'a> = Option<(&'a Tracer, &'a Span)>;

/// Runs `f` in a `<layer>:<call>` span when traced.
pub fn timed<T>(tr: Tr, call: &str, f: impl FnOnce(&Span) -> T) -> T {
    match tr {
        Some((tracer, root)) => tracer.time(root, call, f),
        None => f(&Span::disabled()),
    }
}

/// Self time of `call` in a folded trace (zero spans if never entered).
pub fn call(calls: &BTreeMap<String, CallTime>, name: &str) -> CallTime {
    calls.get(name).copied().unwrap_or_default()
}

/// Current value of registry counter `name` on the tracer's observer.
pub fn counter(tracer: &Tracer, name: &str) -> u64 {
    tracer
        .observer()
        .counter_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

pub fn spec(name: &str) -> Result<&'static BenchmarkSpec, String> {
    suite::benchmark(name).ok_or_else(|| format!("unknown benchmark {name}"))
}

/// Instructions one single-core profile executes: a warm-up pass plus
/// the profiled pass.
pub fn profile_insns(geometry: TraceGeometry) -> u64 {
    2 * geometry.trace_insns()
}

/// `Store::profile` for each `(spec, machine)`, each in a
/// `cmpsim:profile` span.
pub fn profile_all(
    tr: Tr,
    store: &Store,
    keys: &[(&BenchmarkSpec, MachineConfig)],
    geometry: TraceGeometry,
) -> Vec<SingleCoreProfile> {
    keys.iter()
        .map(|(spec, machine)| {
            timed(tr, "cmpsim:profile", |_| {
                store.profile(spec, machine, geometry)
            })
        })
        .collect()
}

/// `cmpsim.profile_s` and `cmpsim.profile_ns_per_insn` from the
/// `cmpsim:profile` spans.
pub fn record_profiles(
    report: &mut Report,
    calls: &BTreeMap<String, CallTime>,
    geometry: TraceGeometry,
) {
    let p = call(calls, "cmpsim:profile");
    report.set("cmpsim.profile_s", p.self_s);
    report.set(
        "cmpsim.profile_ns_per_insn",
        p.self_s * 1e9 / (p.spans.max(1) * profile_insns(geometry)) as f64,
    );
}

/// `Store::profile` on a warm memo, `reps` times over `keys`, in one
/// `store:profile_hit` span. Returns the number of calls.
pub fn profile_hits(
    tr: Tr,
    store: &Store,
    keys: &[(&BenchmarkSpec, MachineConfig)],
    geometry: TraceGeometry,
    reps: usize,
) -> usize {
    timed(tr, "store:profile_hit", |_| {
        for _ in 0..reps {
            for (spec, machine) in keys {
                black_box(store.profile(spec, machine, geometry));
            }
        }
    });
    reps * keys.len()
}

/// `store.profile_hit_us` from the `store:profile_hit` spans over
/// `calls` memo hits.
pub fn record_profile_hits(report: &mut Report, calls: &BTreeMap<String, CallTime>, hits: usize) {
    report.set(
        "store.profile_hit_us",
        call(calls, "store:profile_hit").self_s * 1e6 / hits.max(1) as f64,
    );
}

/// One detailed simulation plus the model's prediction of the same mix.
#[derive(Debug, Clone)]
pub struct Simulated {
    pub result: MixResult,
    /// Host seconds of `MixSim::run`.
    pub run_s: f64,
    /// Simulated instructions: a warm-up and a measured pass per program.
    pub insns: u64,
    /// Ops of the traces compiled through the trace cache (traced runs).
    pub compiled_ops: u64,
    pub stp_sim: f64,
    pub stp_model: f64,
}

impl Simulated {
    /// |model − simulator| / simulator STP, in percent.
    pub fn stp_err_pct(&self) -> f64 {
        100.0 * (self.stp_model - self.stp_sim).abs() / self.stp_sim
    }

    /// FNV-1a digest of every simulated statistic (the serialized
    /// `MixResult`).
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(&self.result).expect("MixResult serializes");
        crate::rng::fnv1a(json.as_bytes())
    }
}

/// A fresh `MixSim::run` of `names` (no store sim cache), then the
/// model's prediction from `profiles` (in mix order).
///
/// Untraced, the run compiles its own traces, as a one-shot caller
/// does. Traced, each distinct program is first compiled through a
/// fresh `TraceCache` in a `trace:compile` span, and the run replays
/// the primed cache in a `cmpsim:run` span with the simulator's own
/// observer counters enabled.
pub fn simulate(
    tr: Tr,
    names: &[&str],
    machine: &MachineConfig,
    geometry: TraceGeometry,
    profiles: &[SingleCoreProfile],
) -> Result<Simulated, String> {
    let specs: Vec<&BenchmarkSpec> = names.iter().map(|n| spec(n)).collect::<Result<_, _>>()?;
    let cache = TraceCache::new();
    let mut compiled_ops = 0;
    if tr.is_some() {
        let mut seen: Vec<&str> = Vec::new();
        for spec in &specs {
            if !seen.contains(&spec.name()) {
                seen.push(spec.name());
                compiled_ops += timed(tr, "trace:compile", |_| {
                    cache.get_or_compile(spec, geometry)
                })
                .ops();
            }
        }
    }
    let started = host::now();
    let result = timed(tr, "cmpsim:run", |span| {
        let sim = MixSim::new(&specs, machine, geometry);
        if tr.is_some() {
            sim.trace_cache(&cache).observer(span).run()
        } else {
            sim.run()
        }
    });
    let run_s = started.elapsed().as_secs_f64();
    let refs: Vec<&SingleCoreProfile> = profiles.iter().collect();
    let prediction = model().predict(&refs).map_err(|e| format!("model: {e}"))?;
    let cpi_sc: Vec<f64> = profiles.iter().map(SingleCoreProfile::cpi_sc).collect();
    Ok(Simulated {
        stp_sim: result.stp(&cpi_sc),
        stp_model: prediction.stp(),
        insns: specs.len() as u64 * profile_insns(geometry),
        compiled_ops,
        run_s,
        result,
    })
}

/// The simulator-side per-layer metrics from traced simulations.
pub fn record_sims(report: &mut Report, calls: &BTreeMap<String, CallTime>, sims: &[Simulated]) {
    let run_s = call(calls, "cmpsim:run").self_s;
    let insns: u64 = sims.iter().map(|s| s.insns).sum();
    let accesses: u64 = sims.iter().map(|s| s.result.llc_accesses).sum();
    let misses: u64 = sims.iter().map(|s| s.result.llc_misses).sum();
    report.set("trace.compile_s", call(calls, "trace:compile").self_s);
    report.set(
        "trace.compile_ops",
        sims.iter().map(|s| s.compiled_ops).sum::<u64>() as f64,
    );
    report.set("cmpsim.run_s", run_s);
    report.set("cmpsim.ns_per_insn", run_s * 1e9 / insns.max(1) as f64);
    report.set(
        "cmpsim.ns_per_llc_access",
        run_s * 1e9 / accesses.max(1) as f64,
    );
    report.set("cache.llc_accesses", accesses as f64);
    report.set(
        "cache.llc_miss_ratio",
        misses as f64 / accesses.max(1) as f64,
    );
    report.set(
        "core.stp_err_pct",
        sims.iter().map(Simulated::stp_err_pct).sum::<f64>() / sims.len().max(1) as f64,
    );
}

/// The paper's model: MPPM over FOA, default settings.
pub fn model() -> Mppm<FoaModel> {
    Mppm::new(mppm::MppmConfig::default(), FoaModel)
}

/// Solves every mix with one warm `SolverScratch` (`core:solve_warm`)
/// and again with a fresh scratch per call (`core:solve_fresh`), checks
/// the two agree bit for bit, and records the solver metrics.
pub fn solve(tr: Tr, report: &mut Report, mixes: &[Vec<&SingleCoreProfile>]) -> Result<(), String> {
    let model = model();
    let disabled = Span::disabled();
    let mut scratch = SolverScratch::new();
    let warm: Vec<Prediction> = timed(tr, "core:solve_warm", |_| {
        mixes
            .iter()
            .map(|refs| model.predict_observed_with(refs, &disabled, &mut scratch))
            .collect::<Result<_, _>>()
    })
    .map_err(|e| format!("model: {e}"))?;
    let fresh: Vec<Prediction> = timed(tr, "core:solve_fresh", |_| {
        mixes
            .iter()
            .map(|refs| model.predict(refs))
            .collect::<Result<_, _>>()
    })
    .map_err(|e| format!("model: {e}"))?;
    report.op(warm == fresh, || {
        "warm-scratch and fresh-scratch solves differ".into()
    });
    let n = warm.len().max(1) as f64;
    report.set(
        "core.steps_per_eval",
        warm.iter().map(|p| p.steps() as f64).sum::<f64>() / n,
    );
    report.set(
        "core.nonconverged",
        warm.iter().filter(|p| !p.converged()).count() as f64,
    );
    Ok(())
}

/// `core.solve_warm_us` and `core.solve_fresh_us` from the solve spans.
pub fn record_solve(report: &mut Report, calls: &BTreeMap<String, CallTime>, evals: usize) {
    let per = |name| call(calls, name).self_s * 1e6 / evals.max(1) as f64;
    report.set("core.solve_warm_us", per("core:solve_warm"));
    report.set("core.solve_fresh_us", per("core:solve_fresh"));
}

/// A `predict` request line for `names` on 0-based LLC `config`.
pub fn request_line(id: u64, names: &[&str], config: usize, quick: bool) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"kind\":\"predict\",\"mix\":\"{}\",\
         \"config\":{},\"quick\":{quick}}}",
        names.join(","),
        config + 1
    )
}

/// A `predict` result payload shaped like the daemon's, for framing.
pub fn result_value(p: &Prediction) -> Value {
    let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&f| Value::Float(f)).collect());
    Value::Object(vec![
        (
            "names".into(),
            Value::Array(p.names().iter().map(|n| Value::String(n.clone())).collect()),
        ),
        ("cpi_sc".into(), floats(p.cpi_sc())),
        ("cpi_mc".into(), floats(p.cpi_mc())),
        ("slowdowns".into(), floats(p.slowdowns())),
        ("stp".into(), Value::Float(p.stp())),
        ("antt".into(), Value::Float(p.antt())),
        ("steps".into(), Value::UInt(p.steps() as u64)),
        ("converged".into(), Value::Bool(p.converged())),
    ])
}

/// The daemon's request path without the socket: parse each line,
/// `protocol::resolve` it and frame `result`, in one `server:protocol`
/// span. Counts a failure unless every line resolves.
pub fn protocol(tr: Tr, report: &mut Report, lines: &[String], result: &Value) {
    let parsed = timed(tr, "server:protocol", |_| {
        lines
            .iter()
            .map(|line| {
                let req: Request = serde_json::from_str(line).ok()?;
                resolve(&req).ok()?;
                Some(black_box(ok_frame(
                    req.id,
                    "predict",
                    false,
                    result.clone(),
                    None,
                )))
            })
            .filter(Option::is_some)
            .count()
    });
    report.op(parsed == lines.len(), || {
        format!("{} of {} request lines resolved", parsed, lines.len())
    });
}

/// `server.protocol_us` from the protocol span.
pub fn record_protocol(report: &mut Report, calls: &BTreeMap<String, CallTime>, lines: usize) {
    report.set(
        "server.protocol_us",
        call(calls, "server:protocol").self_s * 1e6 / lines.max(1) as f64,
    );
}

/// A campaign through its public phases, each in its own span: plan,
/// execute (which journals every shard), journal load, aggregate, and a
/// re-store of every shard into a second journal. Returns the result
/// and the journal's size in bytes.
pub fn campaign_phases(
    tr: Tr,
    ctx: &Context,
    spec: &CampaignSpec,
    options: &AggregateOptions,
    root: &Path,
) -> Result<(CampaignResult, u64), String> {
    let n = suite::spec_suite().len();
    let plan = timed(tr, "campaign:plan", |_| {
        CampaignPlan::build(spec, n, ctx.geometry())
    })
    .map_err(|e| e.to_string())?;
    let journal = Journal::open(root, &plan).map_err(|e| e.to_string())?;
    let stats = timed(tr, "campaign:execute", |_| {
        execute_pending(ctx, &plan, &journal, &Span::disabled())
    })
    .map_err(|e| e.to_string())?;
    let records = timed(tr, "campaign:journal_load", |_| {
        plan.shards
            .iter()
            .map(|s| {
                journal
                    .load(s.id, s.mixes())
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "journal shard missing after execution".to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let (designs, stability) = timed(tr, "campaign:aggregate", |_| {
        aggregate(&plan, &records, options)
    });
    let copy = Journal::open(&root.join("restore"), &plan).map_err(|e| e.to_string())?;
    timed(tr, "campaign:journal_store", |_| {
        records.iter().try_for_each(|r| copy.store(r))
    })
    .map_err(|e| format!("journal store: {e}"))?;
    let bytes = dir_bytes(journal.dir());
    let result = CampaignResult {
        plan_id: plan.id.clone(),
        cores: spec.cores,
        mixes: plan.population.len(),
        designs,
        stability,
        stats,
    };
    Ok((result, bytes))
}

/// The campaign per-layer metrics from the phase spans.
pub fn record_campaign(
    report: &mut Report,
    calls: &BTreeMap<String, CallTime>,
    journal_bytes: u64,
) {
    for phase in [
        "plan",
        "execute",
        "journal_store",
        "journal_load",
        "aggregate",
    ] {
        report.set(
            &format!("campaign.{phase}_s"),
            call(calls, &format!("campaign:{phase}")).self_s,
        );
    }
    report.set("campaign.journal_bytes", journal_bytes as f64);
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A small campaign for workloads that never run one: the exhaustive
/// 2-program space on LLC config #1 at quick scale, on its own store.
/// Its profiles are computed untraced, before any campaign span.
/// Returns the journal's size in bytes.
pub fn campaign_probe(tr: Tr, report: &mut Report, dir: &Path) -> Result<u64, String> {
    let store = Store::open(dir.join("probe-store")).map_err(|e| e.to_string())?;
    let ctx = Context::with_store(mppm_experiments::Scale::Quick, store);
    ctx.profiles(&ctx.machine_with_config(0));
    let spec = CampaignSpec {
        cores: 2,
        designs: vec![0],
        source: mppm_campaign::MixSource::Exhaustive,
        shard_size: 64,
    };
    let options = AggregateOptions {
        stability_trials: 200,
        ..Default::default()
    };
    let (result, bytes) = campaign_phases(tr, &ctx, &spec, &options, &dir.join("probe-journal"))?;
    report.op(result.mixes == 435, || {
        format!("2-program space has {} mixes, not 435", result.mixes)
    });
    Ok(bytes)
}

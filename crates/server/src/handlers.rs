//! Request handlers: each resolved request becomes frames on the wire.
//!
//! Predict and simulate run inline on the connection thread (deduped
//! against identical in-flight requests); campaigns are queued for the
//! batching executor. Every deterministic payload is cached by its
//! canonical request key, so a repeat request is answered from memory
//! with `cached:true`. Checking and computing a request is
//! [`MixRequest`]'s, shared with the one-shot CLI; this module packs the
//! outcome into JSON.

use mppm::stats::QuantileSketch;
use mppm::SolverScratch;
use mppm_obs::{Observer, Sink, Span};
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

use crate::protocol::{
    codes, err_frame, ok_frame, resolve, MixRequest, ProtoError, Request, Resolved,
};
use crate::state::{CachedResponse, CampaignJob, ConnWriter, ServerState, SocketSink, Waiter};

type Payload = (Value, Option<Value>);

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&f| Value::Float(f)).collect())
}

fn strings<S: AsRef<str>>(xs: &[S]) -> Value {
    Value::Array(xs.iter().map(|s| Value::String(s.as_ref().to_string())).collect())
}

/// Handles one parsed request on a connection thread. `scratch` is the
/// thread's solver scratch, reused by every predict it serves.
pub(crate) fn handle(
    state: &Arc<ServerState>,
    conn: u64,
    writer: &ConnWriter,
    req: Request,
    scratch: &mut SolverScratch,
) {
    // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): predict service time for the `stats` verb; it never enters a `result` member
    let started = Instant::now();
    state.counters.requests.incr();
    let resolved = match resolve(&req) {
        Ok(r) => r,
        Err(e) => {
            writer.send_line(err_frame(req.id, e.code, &e.message));
            return;
        }
    };
    if state.is_shutdown() && !matches!(resolved, Resolved::Ping | Resolved::Stats) {
        writer.send_line(err_frame(req.id, codes::SHUTDOWN, "daemon is shutting down"));
        return;
    }
    match resolved {
        Resolved::Ping => {
            writer.send_line(ok_frame(req.id, "ping", false, obj(vec![("pong", Value::Bool(true))]), None));
        }
        Resolved::Stats => {
            writer.send_line(ok_frame(req.id, "stats", false, stats_value(state), None));
        }
        Resolved::Shutdown => {
            writer.send_line(ok_frame(
                req.id,
                "shutdown",
                false,
                obj(vec![("stopping", Value::Bool(true))]),
                None,
            ));
            state.begin_shutdown();
        }
        Resolved::Cancel(target) => {
            let found = state.cancel_queued(conn, target);
            writer.send_line(ok_frame(
                req.id,
                "cancel",
                false,
                obj(vec![("canceled", Value::Bool(found))]),
                None,
            ));
        }
        Resolved::Predict(m) => {
            let key = m.cache_key("predict");
            let outcome = state.serve_deduped(&key, "predict", || {
                observed(writer, req.id, req.subscribe, "predict", |span| {
                    compute_predict(state, &m, span, scratch)
                })
            });
            let warm = outcome.as_ref().ok().map(|&(_, _, warm)| warm);
            respond(writer, req.id, outcome);
            if let Some(warm) = warm {
                state.record_predict(warm, started.elapsed().as_secs_f64() * 1e6);
            }
        }
        Resolved::Simulate(m) => {
            let key = m.cache_key("simulate");
            let outcome = state.serve_deduped(&key, "simulate", || {
                observed(writer, req.id, req.subscribe, "simulate", |span| {
                    compute_simulate(state, &m, span)
                })
            });
            respond(writer, req.id, outcome);
        }
        Resolved::Campaign(c) => {
            state.counters.campaign_jobs.incr();
            let key = c.cache_key();
            if let Some(hit) = state.cached(&key) {
                state.counters.cache_hits.incr();
                writer.send_line(hit.frame(req.id, true, None));
                return;
            }
            let job = CampaignJob {
                key,
                req: c,
                waiters: vec![Waiter {
                    conn,
                    id: req.id,
                    subscribe: req.subscribe,
                    writer: writer.clone(),
                }],
            };
            if state.enqueue_campaign(job).is_err() {
                writer.send_line(err_frame(req.id, codes::SHUTDOWN, "daemon is shutting down"));
            }
            // The executor answers this request when the job completes.
        }
    }
}

fn respond(
    writer: &ConnWriter,
    id: u64,
    outcome: Result<(CachedResponse, Option<Value>, bool), ProtoError>,
) {
    match outcome {
        Ok((response, meta, cached)) => {
            writer.send_line(response.frame(id, cached, meta.as_ref()));
        }
        Err(e) => writer.send_line(err_frame(id, e.code, &e.message)),
    }
}

/// Runs `compute` under a per-request span: subscribed requests stream
/// every event (solver residuals and span ends) as event frames before
/// their response; unsubscribed ones run with observability disabled.
fn observed<F>(
    writer: &ConnWriter,
    id: u64,
    subscribe: bool,
    name: &str,
    compute: F,
) -> Result<Payload, ProtoError>
where
    F: FnOnce(&Span) -> Result<Payload, ProtoError>,
{
    if !subscribe {
        return compute(&Span::disabled());
    }
    let sinks: Vec<Box<dyn Sink>> = vec![Box::new(SocketSink::all(writer.clone(), id))];
    let observer = Observer::with_sinks(sinks);
    let outcome = {
        let root = observer.root(name);
        compute(&root)
        // Dropping the root emits its span-end before the response frame.
    };
    let _ = observer.finish();
    outcome
}

fn stats_value(state: &Arc<ServerState>) -> Value {
    let counters: Vec<(String, Value)> = state
        .observer()
        .counter_snapshot()
        .into_iter()
        .map(|(name, v)| (name, Value::UInt(v)))
        .collect();
    let store = state.store();
    let (hits, compiles) = store.trace_cache_stats();
    let gauges = state.gauges();
    let (warm, solved) = &gauges.predict_us;
    obj(vec![
        ("counters", Value::Object(counters)),
        (
            "trace_cache",
            obj(vec![("hits", Value::UInt(hits)), ("compiles", Value::UInt(compiles))]),
        ),
        ("response_cache", Value::UInt(gauges.responses as u64)),
        ("response_cache_bytes", Value::UInt(gauges.response_bytes as u64)),
        ("solve_ready_profiles", Value::UInt(store.solve_ready_profiles() as u64)),
        ("inflight", Value::UInt(gauges.inflight as u64)),
        ("queued_campaigns", Value::UInt(gauges.queued as u64)),
        (
            "predict_service_us",
            obj(vec![("hit", quantiles(warm)), ("miss", quantiles(solved))]),
        ),
    ])
}

/// `{"n","p50","p99"}` of a service-time sketch; the quantiles are
/// `null` until it has an observation.
fn quantiles(sketch: &QuantileSketch) -> Value {
    let at = |q: f64| sketch.quantile(q).map_or(Value::Null, Value::Float);
    obj(vec![("n", Value::UInt(sketch.count())), ("p50", at(0.5)), ("p99", at(0.99))])
}

fn compute_predict(
    state: &Arc<ServerState>,
    m: &MixRequest,
    span: &Span,
    scratch: &mut SolverScratch,
) -> Result<Payload, ProtoError> {
    let profiles = m.check()?.profiles(&state.store())?;
    let pred = m.predict(&profiles, span, scratch)?;
    let result = obj(vec![
        ("names", strings(pred.names())),
        ("cpi_sc", floats(pred.cpi_sc())),
        ("cpi_mc", floats(pred.cpi_mc())),
        ("slowdowns", floats(pred.slowdowns())),
        ("stp", Value::Float(pred.stp())),
        ("antt", Value::Float(pred.antt())),
        ("steps", Value::UInt(pred.steps() as u64)),
        ("converged", Value::Bool(pred.converged())),
    ]);
    Ok((result, None))
}

fn compute_simulate(
    state: &Arc<ServerState>,
    m: &MixRequest,
    span: &Span,
) -> Result<Payload, ProtoError> {
    let mix = m.check()?;
    let store = state.store();
    let profiles = mix.profiles(&store)?;
    span.event("simulate-start", &[("programs", mppm_obs::Value::from(m.names.len()))]);
    let record = mix.simulate(&store, &profiles);
    // `sim_seconds` is wall-clock telemetry: it rides in `meta`, outside
    // the byte-identical `result` contract (and is 0-cost on cache hits).
    let result = obj(vec![
        ("names", strings(&record.names)),
        ("cpi_sc", floats(&record.cpi_sc)),
        ("cpi_mc", floats(&record.cpi_mc)),
        ("slowdowns", floats(&record.slowdowns())),
        ("stp", Value::Float(record.stp())),
        ("antt", Value::Float(record.antt())),
    ]);
    let meta = obj(vec![("sim_seconds", Value::Float(record.sim_seconds))]);
    Ok((result, Some(meta)))
}

/// Builds the deterministic campaign payload plus its telemetry `meta`.
pub(crate) fn campaign_value(result: &mppm_campaign::CampaignResult) -> Payload {
    let value = obj(vec![
        ("plan_id", Value::String(result.plan_id.clone())),
        ("cores", Value::UInt(result.cores as u64)),
        ("mixes", Value::UInt(result.mixes)),
        ("designs_csv", Value::String(mppm_campaign::design_table(result).to_csv())),
        ("histogram_csv", Value::String(mppm_campaign::histogram_table(result).to_csv())),
        ("stability_csv", Value::String(mppm_campaign::stability_table(result).to_csv())),
    ]);
    let meta = obj(vec![
        ("total_shards", Value::UInt(result.stats.total_shards as u64)),
        ("resumed_shards", Value::UInt(result.stats.resumed_shards as u64)),
        ("computed_shards", Value::UInt(result.stats.computed_shards as u64)),
        ("evaluated_mixes", Value::UInt(result.stats.evaluated_mixes)),
        ("compute_seconds", Value::Float(result.stats.compute_seconds)),
    ]);
    (value, Some(meta))
}

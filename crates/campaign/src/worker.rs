//! Multi-process campaign fan-out: worker side.
//!
//! A worker is the *same* binary as the coordinator, re-entered: any
//! binary that calls [`maybe_serve`] first thing in `main` can be used
//! as a campaign worker. The coordinator spawns it with
//! [`WORKER_ENV`](crate::distributed::WORKER_ENV) set; `maybe_serve`
//! then speaks the versioned frame protocol on stdin/stdout (see
//! [`crate::distributed`]) and never returns. Without the variable it
//! is a no-op, so the binary's normal CLI is untouched.
//!
//! Workers write computed shards directly into the shared journal — the
//! pipe carries only control frames. A worker assigned a shard that is
//! already journaled (another worker computed it before a requeue)
//! answers `done {computed: false}` without redoing the work.

use serde::{Deserialize, Value};
use std::io::{Read, Write};

use mppm::SolverScratch;
use mppm_experiments::{Context, Scale, Store};
use mppm_obs::Span;
use mppm_wire::{FrameReader, PROTOCOL_VERSION};

use crate::distributed::{frame_line, read_frame, FAIL_AFTER_ENV, WORKER_ENV};
use crate::executor::compute_shard;
use crate::journal::Journal;
use crate::plan::{CampaignPlan, CampaignSpec};
use crate::CampaignError;

/// If this process was spawned as a campaign worker, serve shard
/// assignments on stdin/stdout and **exit**; otherwise return
/// immediately. Call it at the top of `main` in any binary that should
/// double as a worker.
pub fn maybe_serve() {
    // mppm-lint: allow(taint-nondet-to-result): mode switch only — shard bytes derive from the coordinator's plan
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let code = serve(stdin.lock(), stdout.lock());
    std::process::exit(code);
}

/// Sends one frame; returns `false` if the coordinator is gone (there
/// is nobody left to report errors to, so the worker just exits).
fn send(out: &mut impl Write, line: &str) -> bool {
    out.write_all(line.as_bytes()).and_then(|()| out.flush()).is_ok()
}

fn error_frame(code: &str, message: &str) -> String {
    frame_line(
        "error",
        vec![
            ("code".into(), Value::String(code.into())),
            ("message".into(), Value::String(message.into())),
        ],
    )
}

/// Exit code for a failed campaign step (mirrors the CLI's campaign
/// errors).
const EXIT_CAMPAIGN: i32 = 4;
/// Exit code for a protocol-version mismatch (mirrors the CLI's server
/// errors).
const EXIT_PROTOCOL: i32 = 6;
/// Exit code when the coordinator pipe vanished.
const EXIT_PIPE: i32 = 5;

/// The serve loop behind [`maybe_serve`], factored over generic streams
/// so tests can drive it in-process.
pub(crate) fn serve(input: impl Read, mut out: impl Write) -> i32 {
    let mut reader = FrameReader::new(input);
    let hello = match read_frame(&mut reader, "coordinator") {
        Ok(frame) => frame,
        Err(CampaignError::Protocol(mismatch)) => {
            let line = frame_line(
                "error",
                vec![
                    ("code".into(), Value::String("protocol-mismatch".into())),
                    ("message".into(), Value::String(mismatch.to_string())),
                    ("found".into(), Value::UInt(mismatch.found)),
                    ("expected".into(), Value::UInt(mismatch.expected)),
                ],
            );
            send(&mut out, &line);
            return EXIT_PROTOCOL;
        }
        Err(e) => {
            send(&mut out, &error_frame("campaign", &e.to_string()));
            return EXIT_CAMPAIGN;
        }
    };
    match hello.get("kind").and_then(Value::as_str) {
        Some("hello") => {}
        other => {
            send(&mut out, &error_frame("campaign", &format!("expected hello, got {other:?}")));
            return EXIT_CAMPAIGN;
        }
    }

    match serve_campaign(&hello, &mut reader, &mut out) {
        Ok(()) => 0,
        Err(ServeError::PipeGone) => EXIT_PIPE,
        Err(ServeError::Campaign(e)) => {
            send(&mut out, &error_frame("campaign", &e.to_string()));
            EXIT_CAMPAIGN
        }
        Err(ServeError::Protocol(e)) => {
            let line = frame_line(
                "error",
                vec![
                    ("code".into(), Value::String("protocol-mismatch".into())),
                    ("message".into(), Value::String(e.to_string())),
                    ("found".into(), Value::UInt(e.found)),
                    ("expected".into(), Value::UInt(PROTOCOL_VERSION)),
                ],
            );
            send(&mut out, &line);
            EXIT_PROTOCOL
        }
    }
}

enum ServeError {
    PipeGone,
    Campaign(CampaignError),
    Protocol(mppm_wire::ProtocolMismatch),
}

impl From<CampaignError> for ServeError {
    fn from(e: CampaignError) -> Self {
        match e {
            CampaignError::Protocol(mismatch) => ServeError::Protocol(mismatch),
            other => ServeError::Campaign(other),
        }
    }
}

fn serve_campaign(
    hello: &Value,
    reader: &mut FrameReader<impl Read>,
    out: &mut impl Write,
) -> Result<(), ServeError> {
    let field = |name: &str| {
        hello.get(name).ok_or_else(|| {
            ServeError::Campaign(CampaignError::Worker(format!("hello missing `{name}`")))
        })
    };
    let spec = CampaignSpec::from_value(field("spec")?).map_err(|e| {
        ServeError::Campaign(CampaignError::Worker(format!("hello spec: {e:?}")))
    })?;
    let store_root = field("store")?.as_str().unwrap_or_default().to_string();
    let journal_root = field("journal_root")?.as_str().unwrap_or_default().to_string();
    let plan_id = field("plan_id")?.as_str().unwrap_or_default().to_string();
    let quick = matches!(field("quick")?, Value::Bool(true));

    let scale = if quick { Scale::Quick } else { Scale::Full };
    let store = Store::open(std::path::Path::new(&store_root)).map_err(|e| {
        ServeError::Campaign(CampaignError::Io(format!("opening store {store_root}: {e}")))
    })?;
    let ctx = Context::with_store(scale, store);
    let plan = CampaignPlan::build(&spec, mppm_trace::suite::spec_suite().len(), ctx.geometry())
        .map_err(ServeError::from)?;
    if plan.id != plan_id {
        // A coordinator from a different build would journal under a
        // different id; refuse rather than silently fork the campaign.
        return Err(ServeError::Campaign(CampaignError::Worker(format!(
            "planned {} but coordinator expects {plan_id}",
            plan.id
        ))));
    }
    let journal = Journal::open(std::path::Path::new(&journal_root), &plan)
        .map_err(ServeError::from)?;

    let fail_after: Option<u64> =
        // mppm-lint: allow(taint-nondet-to-result): test-only crash injection; an aborted worker journals nothing partial
        std::env::var(FAIL_AFTER_ENV).ok().and_then(|s| s.parse().ok());

    let ready =
        frame_line("ready", vec![("plan_id".into(), Value::String(plan.id.clone()))]);
    if !send(out, &ready) {
        return Err(ServeError::PipeGone);
    }

    // Solve-ready profiles per design point, built lazily on first use
    // (the store caches the profiles on disk, so across workers this is
    // one compute).
    let mut profiles: Vec<Option<Vec<mppm::SolverProfile>>> =
        vec![None; plan.spec.designs.len()];
    let mut scratch = SolverScratch::new();
    let span = Span::disabled();
    let per_design = plan.shards.len() / plan.spec.designs.len();
    let mut computed = 0u64;

    loop {
        let frame = match read_frame(reader, "coordinator") {
            Ok(frame) => frame,
            // EOF without shutdown: coordinator died; nothing to do.
            Err(CampaignError::Worker(_)) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        match frame.get("kind").and_then(Value::as_str) {
            Some("shutdown") => return Ok(()),
            Some("assign") => {
                let at = |k: &str| {
                    frame.get(k).and_then(Value::as_u64).ok_or_else(|| {
                        ServeError::Campaign(CampaignError::Worker(format!(
                            "assign missing `{k}`"
                        )))
                    })
                };
                let design = at("design")? as usize;
                let index = at("index")? as usize;
                let position = design * per_design + index;
                let shard = plan.shards.get(position).filter(|s| {
                    s.id.design == design && s.id.index == index
                });
                let Some(shard) = shard else {
                    return Err(ServeError::Campaign(CampaignError::Worker(format!(
                        "assigned unknown shard d{design}-{index}"
                    ))));
                };
                let already = journal.load(shard.id, shard.mixes()).map_err(ServeError::from)?;
                let was_computed = already.is_none();
                if already.is_none() {
                    let design_profiles = profiles[design].get_or_insert_with(|| {
                        ctx.solver_profiles(&ctx.machine_with_config(plan.spec.designs[design]))
                    });
                    let record =
                        compute_shard(&ctx, &plan, design_profiles, shard, &span, &mut scratch);
                    journal.store(&record).map_err(|e| {
                        ServeError::Campaign(CampaignError::Io(format!(
                            "persisting shard d{design}-{index}: {e}"
                        )))
                    })?;
                    computed += 1;
                    if fail_after == Some(computed) {
                        // Simulated SIGKILL for the resume tests: the
                        // shard just written is durable, the `done`
                        // frame never leaves. The coordinator must
                        // requeue and survive.
                        std::process::abort();
                    }
                }
                let done = frame_line(
                    "done",
                    vec![
                        ("design".into(), Value::UInt(design as u64)),
                        ("index".into(), Value::UInt(index as u64)),
                        ("mixes".into(), Value::UInt(shard.mixes())),
                        ("computed".into(), Value::Bool(was_computed)),
                    ],
                );
                if !send(out, &done) {
                    return Err(ServeError::PipeGone);
                }
            }
            other => {
                return Err(ServeError::Campaign(CampaignError::Worker(format!(
                    "unexpected frame kind {other:?}"
                ))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hello with the wrong (or no) version must produce a typed
    /// protocol-mismatch error frame and exit code 6 — not a misparse.
    #[test]
    fn version_mismatch_is_refused_with_exit_6() {
        let input = b"{\"kind\":\"hello\"}\n" as &[u8];
        let mut out = Vec::new();
        let code = serve(input, &mut out);
        assert_eq!(code, 6);
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("protocol-mismatch"), "{reply}");
        assert!(reply.contains("\"found\":0"), "{reply}");

        let input = b"{\"v\":99,\"kind\":\"hello\"}\n" as &[u8];
        let mut out = Vec::new();
        let code = serve(input, &mut out);
        assert_eq!(code, 6);
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("\"found\":99"), "{reply}");
    }

    #[test]
    fn garbage_hello_is_a_campaign_error() {
        let input = b"{\"v\":1,\"kind\":\"assign\"}\n" as &[u8];
        let mut out = Vec::new();
        let code = serve(input, &mut out);
        assert_eq!(code, 4);
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("expected hello"), "{reply}");
    }
}

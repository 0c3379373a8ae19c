//! Multi-process campaign fan-out: coordinator side.
//!
//! A distributed campaign spawns N worker *processes* (the same binary
//! re-entered via [`crate::worker::maybe_serve`]) and speaks
//! newline-delimited JSON frames over their stdin/stdout — the same
//! framing ([`mppm_wire`]) and versioned `v` field as the `mppmd`
//! socket protocol. The coordinator hands out one shard at a time from
//! a shared queue, so workers load-balance themselves; a worker that
//! dies (crash, OOM kill, SIGKILL) simply returns its in-flight shard
//! to the queue for a surviving worker to pick up. Results never cross
//! the pipe: workers write shards straight into the shared journal, and
//! the coordinator aggregates from the journal exactly as a
//! single-process run would — which is why worker count and scheduling
//! cannot change a single output byte.
//!
//! ## Frames
//!
//! Coordinator → worker: `hello` (spec, store, journal root, plan id),
//! then `assign {design, index}` per shard, then `shutdown`.
//! Worker → coordinator: `ready {plan_id}` after validating the hello,
//! `done {design, index, mixes, computed}` per shard, `error {code,
//! message}` on failure. Every frame carries `v`; a mismatch on either
//! side is a typed [`CampaignError::Protocol`], never a misparse.

use mppm_obs::Span;
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mppm_experiments::Context;
use mppm_wire::{check_version, Frame, FrameReader, ProtocolMismatch, PROTOCOL_VERSION};

use crate::executor::ExecutionStats;
use crate::journal::Journal;
use crate::plan::{CampaignPlan, ShardId};
use crate::CampaignError;

/// Environment variable that flips a binary into campaign-worker mode
/// (see [`crate::worker::maybe_serve`]).
pub const WORKER_ENV: &str = "MPPM_CAMPAIGN_WORKER";

/// Fault-injection hook for the kill/resume tests: a worker that sees
/// this aborts (as if SIGKILLed) after computing that many shards. The
/// coordinator forwards it to worker 0 only, so a campaign with ≥ 2
/// workers still completes.
pub const FAIL_AFTER_ENV: &str = "MPPM_WORKER_FAIL_AFTER";

/// Builds one protocol frame: `kind` plus `fields`, with the version
/// stamped first.
pub(crate) fn frame_line(kind: &str, fields: Vec<(String, Value)>) -> String {
    let mut entries = vec![
        ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
        ("kind".to_string(), Value::String(kind.to_string())),
    ];
    entries.extend(fields);
    let mut line = serde_json::to_string(&Value::Object(entries)).expect("frames are valid JSON");
    line.push('\n');
    line
}

/// Reads and validates the next frame from a peer: framing, JSON, and
/// protocol version. `Ok` values always carry a `kind`.
pub(crate) fn read_frame<R: std::io::Read>(
    reader: &mut FrameReader<R>,
    peer: &str,
) -> Result<Value, CampaignError> {
    let line = match reader.next_frame() {
        Ok(Frame::Line(line)) => line,
        Ok(Frame::Oversized { discarded }) => {
            return Err(CampaignError::Worker(format!(
                "{peer} sent an oversized frame ({discarded} bytes discarded)"
            )))
        }
        Ok(Frame::Eof) => {
            return Err(CampaignError::Worker(format!("{peer} closed the connection")))
        }
        Err(e) => return Err(CampaignError::Worker(format!("reading from {peer}: {e}"))),
    };
    let value: Value = serde_json::from_str(&line)
        .map_err(|e| CampaignError::Worker(format!("{peer} sent invalid JSON: {e}")))?;
    check_version(value.get("v").and_then(Value::as_u64)).map_err(CampaignError::Protocol)?;
    Ok(value)
}

/// Decodes a worker `error` frame into the matching typed error.
fn worker_error(frame: &Value, worker: usize) -> CampaignError {
    let code = frame.get("code").and_then(Value::as_str).unwrap_or("");
    if code == "protocol-mismatch" {
        let at = |k: &str| frame.get(k).and_then(Value::as_u64).unwrap_or(0);
        return CampaignError::Protocol(ProtocolMismatch {
            found: at("found"),
            expected: at("expected"),
        });
    }
    let message = frame.get("message").and_then(Value::as_str).unwrap_or("unknown failure");
    CampaignError::Worker(format!("worker {worker}: {message}"))
}

/// One entry in the shared work queue.
#[derive(Clone, Copy)]
struct Job {
    id: ShardId,
    mixes: u64,
}

/// The shared work queue plus the number of jobs workers hold in flight.
///
/// A healthy worker leaves only when [`JobQueue::take`] returns `None`,
/// which it does once the queue is empty *and* nothing is in flight. A
/// job a dying worker hands back with [`JobQueue::requeue`] therefore
/// always finds a survivor still waiting to take it.
struct JobQueue {
    state: Mutex<QueueState>,
    changed: Condvar,
}

struct QueueState {
    pending: VecDeque<Job>,
    in_flight: usize,
}

impl JobQueue {
    fn new(pending: VecDeque<Job>) -> Self {
        let state = Mutex::new(QueueState { pending, in_flight: 0 });
        JobQueue { state, changed: Condvar::new() }
    }

    /// The next job, blocking while the queue is empty but jobs are in
    /// flight; `None` once every job is done.
    fn take(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("poison-free");
        loop {
            if let Some(job) = state.pending.pop_front() {
                state.in_flight += 1;
                return Some(job);
            }
            if state.in_flight == 0 {
                return None;
            }
            state = self.changed.wait(state).expect("poison-free");
        }
    }

    /// Marks one taken job finished.
    fn done(&self) {
        self.state.lock().expect("poison-free").in_flight -= 1;
        self.changed.notify_all();
    }

    /// Hands a taken job back for another worker.
    fn requeue(&self, job: Job) {
        let mut state = self.state.lock().expect("poison-free");
        state.in_flight -= 1;
        state.pending.push_front(job);
        drop(state);
        self.changed.notify_all();
    }

    /// Jobs no worker finished.
    fn leftover(self) -> usize {
        self.state.into_inner().expect("poison-free").pending.len()
    }
}

/// Per-worker tally reported back to the coordinator.
#[derive(Default)]
struct WorkerTally {
    computed_shards: usize,
    computed_mixes: u64,
}

/// Runs every pending shard of `plan` across `workers` freshly spawned
/// worker processes of `worker_exe`, leaving results in the journal.
///
/// Worker death mid-shard is survivable: the shard returns to the queue
/// and the campaign completes as long as one worker lives. The journal
/// carries all state, so even losing *every* worker only costs a re-run
/// (which resumes).
///
/// # Errors
///
/// [`CampaignError::Protocol`] on a wire-version mismatch,
/// [`CampaignError::Worker`] if workers fail before the queue drains,
/// plus the usual journal errors.
pub fn execute_distributed(
    ctx: &Context,
    plan: &CampaignPlan,
    journal: &Journal,
    journal_root: &Path,
    workers: usize,
    worker_exe: &Path,
    span: &Span,
) -> Result<ExecutionStats, CampaignError> {
    assert!(workers >= 1, "a distributed campaign needs at least one worker");
    let pending: VecDeque<Job> = journal
        .pending(plan)?
        .into_iter()
        .map(|shard| Job { id: shard.id, mixes: shard.mixes() })
        .collect();
    let resumed = plan.shards.len() - pending.len();
    if resumed > 0 {
        eprintln!(
            "  [campaign] resuming: {resumed}/{} shards already journaled",
            plan.shards.len()
        );
    }
    let total_pending = pending.len();
    if total_pending == 0 {
        return Ok(ExecutionStats {
            total_shards: plan.shards.len(),
            resumed_shards: resumed,
            computed_shards: 0,
            evaluated_mixes: 0,
            compute_seconds: 0.0,
        });
    }

    let hello = frame_line(
        "hello",
        vec![
            ("quick".into(), Value::Bool(matches!(ctx.scale(), mppm_experiments::Scale::Quick))),
            ("store".into(), Value::String(ctx.store().root().to_string_lossy().into_owned())),
            ("journal_root".into(), Value::String(journal_root.to_string_lossy().into_owned())),
            ("plan_id".into(), Value::String(plan.id.clone())),
            ("spec".into(), plan.spec.to_value()),
        ],
    );

    // Workers are processes; give each an equal slice of the thread
    // budget so N workers do not oversubscribe the machine N-fold.
    // Parallelism never reaches result bytes: shard contents are
    // computed per-mix and journaled position-addressed.
    // mppm-lint: allow(taint-nondet-to-result): thread budget steers scheduling only, never shard bytes
    let budget = std::env::var("MPPM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        // mppm-lint: allow(taint-nondet-to-result): thread budget steers scheduling only, never shard bytes
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let threads_per_worker = (budget / workers).max(1);
    // mppm-lint: allow(taint-nondet-to-result): test-only crash injection; an aborted worker journals nothing partial
    let fail_after = std::env::var(FAIL_AFTER_ENV).ok();

    // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): progress telemetry only; results live in the journal
    let started = Instant::now();
    let queue = JobQueue::new(pending);
    let failures: Mutex<Vec<CampaignError>> = Mutex::new(Vec::new());
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let hello = hello.as_str();
            let fail_after = fail_after.as_deref();
            let queue = &queue;
            let failures = &failures;
            let tallies = &tallies;
            scope.spawn(move || {
                let mut command = Command::new(worker_exe);
                command
                    .env(WORKER_ENV, "1")
                    .env("MPPM_THREADS", threads_per_worker.to_string())
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped());
                match (worker, fail_after) {
                    (0, Some(after)) => {
                        command.env(FAIL_AFTER_ENV, after);
                    }
                    _ => {
                        command.env_remove(FAIL_AFTER_ENV);
                    }
                }
                match command.spawn() {
                    Ok(child) => {
                        let tally = service_worker(worker, child, hello, plan, queue, span)
                            .unwrap_or_else(|(tally, error)| {
                                failures.lock().expect("poison-free").push(error);
                                tally
                            });
                        tallies.lock().expect("poison-free").push(tally);
                    }
                    Err(e) => failures
                        .lock()
                        .expect("poison-free")
                        .push(CampaignError::Worker(format!(
                            "spawning worker {worker} ({}): {e}",
                            worker_exe.display()
                        ))),
                }
            });
        }
    });
    let compute_seconds = started.elapsed().as_secs_f64();

    let failures = failures.into_inner().expect("poison-free");
    // A protocol mismatch means the worker binary is a different build;
    // surface that before anything else, even if other workers coped.
    if let Some(mismatch) =
        failures.iter().find(|e| matches!(e, CampaignError::Protocol(_)))
    {
        return Err(mismatch.clone());
    }
    let leftover = queue.leftover();
    if leftover > 0 {
        return Err(failures.into_iter().next().unwrap_or_else(|| {
            CampaignError::Worker(format!(
                "{leftover} shards unassigned after every worker exited"
            ))
        }));
    }
    for failure in &failures {
        eprintln!("  [campaign] survived worker failure: {failure}");
    }

    let tallies = tallies.into_inner().expect("poison-free");
    let computed_shards: usize = tallies.iter().map(|t| t.computed_shards).sum();
    let computed_mixes: u64 = tallies.iter().map(|t| t.computed_mixes).sum();
    Ok(ExecutionStats {
        total_shards: plan.shards.len(),
        resumed_shards: resumed,
        // Shards a dead worker completed before dying (journaled but
        // unreported) still count as this run's work when requeued ones
        // land as `computed: false`; the journal is the ground truth the
        // caller re-checks anyway, so the tallies here are telemetry.
        computed_shards,
        evaluated_mixes: computed_mixes,
        compute_seconds,
    })
}

type TallyResult = Result<WorkerTally, (WorkerTally, CampaignError)>;

/// Drives one worker process until every job is done or the worker dies.
/// On failure the in-flight job goes back to the queue and the error is
/// reported with whatever tally accrued.
fn service_worker(
    worker: usize,
    mut child: Child,
    hello: &str,
    plan: &CampaignPlan,
    queue: &JobQueue,
    span: &Span,
) -> TallyResult {
    let peer = format!("worker {worker}");
    let mut tally = WorkerTally::default();
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut writer = BufWriter::new(stdin);
    let mut reader = FrameReader::new(stdout);

    let run = |writer: &mut BufWriter<_>,
                   reader: &mut FrameReader<_>,
                   tally: &mut WorkerTally|
     -> Result<(), (Option<Job>, CampaignError)> {
        let send = |writer: &mut BufWriter<_>, line: &str| -> std::io::Result<()> {
            writer.write_all(line.as_bytes())?;
            writer.flush()
        };
        send(writer, hello)
            .map_err(|e| (None, CampaignError::Worker(format!("{peer} hello: {e}"))))?;
        let ready = read_frame(reader, &peer).map_err(|e| (None, e))?;
        match ready.get("kind").and_then(Value::as_str) {
            Some("ready") => {
                let plan_id = ready.get("plan_id").and_then(Value::as_str).unwrap_or("");
                if plan_id != plan.id {
                    return Err((
                        None,
                        CampaignError::Worker(format!(
                            "{peer} planned a different campaign: {plan_id} vs {}",
                            plan.id
                        )),
                    ));
                }
            }
            Some("error") => return Err((None, worker_error(&ready, worker))),
            other => {
                return Err((
                    None,
                    CampaignError::Worker(format!("{peer} sent {other:?} instead of ready")),
                ))
            }
        }
        loop {
            let Some(job) = queue.take() else {
                let _ = send(writer, &frame_line("shutdown", Vec::new()));
                return Ok(());
            };
            let assign = frame_line(
                "assign",
                vec![
                    ("design".into(), Value::UInt(job.id.design as u64)),
                    ("index".into(), Value::UInt(job.id.index as u64)),
                ],
            );
            if let Err(e) = send(writer, &assign) {
                return Err((
                    Some(job),
                    CampaignError::Worker(format!("{peer} died mid-campaign: {e}")),
                ));
            }
            let reply = match read_frame(reader, &peer) {
                Ok(reply) => reply,
                Err(e) => return Err((Some(job), e)),
            };
            match reply.get("kind").and_then(Value::as_str) {
                Some("done") => {
                    let at = |k: &str| reply.get(k).and_then(Value::as_u64);
                    if at("design") != Some(job.id.design as u64)
                        || at("index") != Some(job.id.index as u64)
                    {
                        return Err((
                            Some(job),
                            CampaignError::Worker(format!(
                                "{peer} answered for the wrong shard"
                            )),
                        ));
                    }
                    let computed = reply
                        .get("computed")
                        .and_then(|v| match v {
                            Value::Bool(b) => Some(*b),
                            _ => None,
                        })
                        .unwrap_or(true);
                    if computed {
                        tally.computed_shards += 1;
                        tally.computed_mixes += at("mixes").unwrap_or(job.mixes);
                    }
                    span.event(
                        "worker-done",
                        &[
                            ("worker", mppm_obs::Value::from(worker)),
                            ("design", mppm_obs::Value::from(job.id.design)),
                            ("index", mppm_obs::Value::from(job.id.index)),
                            ("computed", mppm_obs::Value::from(computed)),
                        ],
                    );
                    span.counter("campaign.worker_shards").incr();
                    queue.done();
                }
                Some("error") => return Err((Some(job), worker_error(&reply, worker))),
                other => {
                    return Err((
                        Some(job),
                        CampaignError::Worker(format!(
                            "{peer} sent {other:?} instead of done"
                        )),
                    ))
                }
            }
        }
    };

    let outcome = run(&mut writer, &mut reader, &mut tally);
    match outcome {
        Ok(()) => {
            drop(writer); // close stdin so a well-behaved worker exits
            let _ = child.wait();
            Ok(tally)
        }
        Err((in_flight, error)) => {
            if let Some(job) = in_flight {
                queue.requeue(job);
            }
            let _ = child.kill();
            let _ = child.wait();
            Err((tally, error))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// Worker A holds the last job, so worker B's `take` must wait for
    /// A's outcome instead of shutting down: B gets the job back if A
    /// dies (`requeue`), and `None` once A finishes it (`done`). The
    /// results after `requeue`/`done` hold under any interleaving; the
    /// timeout only bounds how long a queue that wrongly lets B leave
    /// early has to show it.
    #[test]
    fn take_waits_for_in_flight_jobs() {
        for a_dies in [true, false] {
            let queue = JobQueue::new(VecDeque::from([Job {
                id: ShardId { design: 0, index: 7 },
                mixes: 1,
            }]));
            let held = queue.take().expect("A takes the last job");
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                let queue = &queue;
                scope.spawn(move || tx.send(queue.take().map(|job| job.id.index)));
                assert_eq!(
                    rx.recv_timeout(Duration::from_millis(100)),
                    Err(RecvTimeoutError::Timeout),
                    "B must not give up while A holds a job"
                );
                if a_dies {
                    queue.requeue(held);
                } else {
                    queue.done();
                }
                let taken = rx.recv_timeout(Duration::from_secs(10)).expect("B wakes");
                assert_eq!(taken, a_dies.then_some(7));
            });
            assert_eq!(queue.leftover(), 0, "a_dies={a_dies}");
        }
    }
}

//! Wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one line of JSON (the `JsonlSink` house style). The
//! grammar is documented in DESIGN.md §13; in short:
//!
//! * **Request** — a flat object; `kind` selects the verb and the other
//!   fields default so clients send only what they mean (`config` and
//!   `configs` are 1-based, a numeric 0 means "absent").
//! * **Response** — `{"id","ok":true,"kind","cached","result",...}`.
//!   The `result` member is the *deterministic* payload: byte-identical
//!   for identical resolved requests at any worker count and any cache
//!   temperature. Telemetry (wall-clock, shard resume counts) rides in
//!   the optional `meta` member, outside the determinism contract.
//! * **Error** — `{"id","ok":false,"error":{"code","message"}}`.
//! * **Event** — `{"id","kind":"event","event":{...}}`, streamed for
//!   requests sent with `subscribe:true` before their response frame.
//!
//! [`resolve`] and the methods on [`MixRequest`] and [`CampaignRequest`]
//! are the one request path: `mppmd`'s handlers and the one-shot
//! `mppm-cli predict|simulate|campaign` verbs both resolve, check and
//! compute a request through them.

use mppm::{
    ContentionModel, FoaModel, ModelError, Mppm, MppmConfig, PartitionModel, Prediction,
    ProbModel, SdcCompetitionModel, SolverProfile, SolverScratch,
};
use mppm_campaign::{AggregateOptions, CampaignSpec, MixSource};
use mppm_experiments::{MixRecord, Scale, Store};
use mppm_obs::Span;
use mppm_sim::{llc_configs, MachineConfig};
use mppm_trace::{suite, BenchmarkSpec};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// Longest accepted request line, in bytes (shared with the campaign
/// worker wire via `mppm-wire`). Longer lines are discarded to the next
/// newline and answered with an [`codes::OVERSIZED`] error frame,
/// keeping one misbehaving client from ballooning the daemon.
pub use mppm_wire::MAX_LINE;

/// Wire protocol version stamped on every frame (requests and
/// responses alike) as the `v` member. A peer speaking any other
/// version — or omitting `v` — is answered with a
/// [`codes::PROTOCOL`] error frame, never a misparse.
pub use mppm_wire::PROTOCOL_VERSION;

/// Stable error codes carried by error frames.
pub mod codes {
    /// The line was not valid JSON.
    pub const PARSE: &str = "parse";
    /// The request parsed but is malformed or references unknown
    /// entities (benchmark names, config indices, unknown `kind`).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The request line exceeded [`super::MAX_LINE`].
    pub const OVERSIZED: &str = "oversized";
    /// The analytical model rejected the workload.
    pub const MODEL: &str = "model";
    /// Campaign planning/execution failed.
    pub const CAMPAIGN: &str = "campaign";
    /// Daemon-side I/O failure.
    pub const IO: &str = "io";
    /// The request was canceled before it ran.
    pub const CANCELED: &str = "canceled";
    /// The daemon is shutting down and no longer accepts work.
    pub const SHUTDOWN: &str = "shutdown";
    /// The peer speaks a different wire protocol version (its `v`
    /// field is missing or not [`super::PROTOCOL_VERSION`]).
    pub const PROTOCOL: &str = "protocol-mismatch";
}

/// One request frame. Unknown fields are ignored; missing fields take
/// the defaults [`resolve`] applies. `mppm-cli` builds the same frame
/// from its flags, for the daemon and for its own one-shot verbs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Wire protocol version; must equal [`PROTOCOL_VERSION`]. The
    /// default (0, i.e. absent) is deliberately *invalid*: pre-version
    /// clients get a typed [`codes::PROTOCOL`] error.
    #[serde(default)]
    pub v: u64,
    /// Client-chosen correlation id, echoed on every frame this request
    /// produces.
    #[serde(default)]
    pub id: u64,
    /// Verb: `ping`, `stats`, `predict`, `simulate`, `campaign`,
    /// `cancel`, `shutdown`.
    #[serde(default)]
    pub kind: String,
    /// Comma-separated benchmark names (predict/simulate).
    #[serde(default)]
    pub mix: String,
    /// Table 2 LLC config, 1-based like `--config`; 0 means 1.
    #[serde(default)]
    pub config: u64,
    /// Short traces, same geometry as the CLI's `--quick`.
    #[serde(default)]
    pub quick: bool,
    /// Explicit geometry override (both fields nonzero): instructions
    /// per interval. Predict/simulate only.
    #[serde(default)]
    pub interval_insns: u64,
    /// Explicit geometry override: interval count.
    #[serde(default)]
    pub intervals: u64,
    /// Contention model: `foa` (default), `sdc`, `prob`.
    #[serde(default)]
    pub contention: String,
    /// Way partition, comma-separated counts (mutually exclusive with
    /// `contention`).
    #[serde(default)]
    pub partition: String,
    /// Shared memory bandwidth (accesses/cycle), if limited.
    #[serde(default)]
    pub bandwidth: Option<f64>,
    /// Campaign: programs per mix; 0 means 2.
    #[serde(default)]
    pub cores: u64,
    /// Campaign: comma-separated 1-based LLC configs; empty means
    /// `1,2`.
    #[serde(default)]
    pub configs: String,
    /// Campaign: stratified sample size; 0 enumerates exhaustively.
    #[serde(default)]
    pub sample: u64,
    /// Campaign: sample seed; 0 means 1.
    #[serde(default)]
    pub seed: u64,
    /// Campaign: mixes per checkpoint shard; 0 means 64.
    #[serde(default)]
    pub shard_size: u64,
    /// Campaign: ranking-stability trials; 0 means 200.
    #[serde(default)]
    pub trials: u64,
    /// Stream observability events for this request before its
    /// response.
    #[serde(default)]
    pub subscribe: bool,
    /// `cancel`: the id of the queued request to cancel.
    #[serde(default)]
    pub target: u64,
}

/// Contention-model selection (`--contention` / `--partition`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Contention {
    /// Frequency-of-access (the paper's choice, the default).
    Foa,
    /// Stack-distance competition.
    Sdc,
    /// Simplified inductive probability.
    Prob,
    /// Static way partition with the given allocation.
    Partition(Vec<u32>),
}

impl Contention {
    fn tag(&self) -> String {
        match self {
            Contention::Foa => "foa".to_string(),
            Contention::Sdc => "sdc".to_string(),
            Contention::Prob => "prob".to_string(),
            Contention::Partition(ways) => {
                format!("part{}", join_u32(ways))
            }
        }
    }
}

fn join_u32(xs: &[u32]) -> String {
    xs.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(",")
}

/// A resolved `predict` or `simulate` request: defaults applied, lists
/// parsed, indices 0-based.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRequest {
    /// Benchmark names in request order.
    pub names: Vec<String>,
    /// 0-based Table 2 LLC config.
    pub config: usize,
    /// Trace geometry (from `quick` or the explicit override).
    pub geometry: mppm_trace::TraceGeometry,
    /// Contention model (predict only; simulate ignores it).
    pub contention: Contention,
    /// Bandwidth cap, if any.
    pub bandwidth: Option<f64>,
}

/// A resolved `campaign` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Programs per mix.
    pub cores: usize,
    /// 0-based design configs.
    pub designs: Vec<usize>,
    /// Stratified sample size (`None` = exhaustive).
    pub sample: Option<usize>,
    /// Sample seed.
    pub seed: u64,
    /// Mixes per shard.
    pub shard_size: usize,
    /// Stability trials.
    pub trials: usize,
    /// Quick scale.
    pub quick: bool,
}

/// A request after defaulting and syntactic validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolved {
    /// Liveness probe.
    Ping,
    /// Counter/cache snapshot (not part of the determinism contract).
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Cancel the queued request with id `target` on this connection.
    Cancel(u64),
    /// Analytical prediction.
    Predict(MixRequest),
    /// Detailed simulation (cached in the store).
    Simulate(MixRequest),
    /// Design-space campaign on the sharded executor.
    Campaign(CampaignRequest),
}

/// A request error: `(code, message)`. [`resolve`] raises syntactic
/// ones; [`MixRequest::check`] and [`MixRequest::predict`] the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ProtoError {
    /// A [`codes::BAD_REQUEST`] error.
    pub fn bad(message: impl Into<String>) -> Self {
        Self { code: codes::BAD_REQUEST, message: message.into() }
    }
}

impl From<ModelError> for ProtoError {
    fn from(e: ModelError) -> Self {
        Self { code: codes::MODEL, message: e.to_string() }
    }
}

fn parse_config_1based(value: u64, what: &str) -> Result<usize, ProtoError> {
    match value {
        0 => Ok(0),
        1..=6 => Ok(value as usize - 1),
        n => Err(ProtoError::bad(format!("{what} must be 1..6, got {n}"))),
    }
}

/// The geometry `quick` selects: short smoke-test traces, or the
/// paper's full default. `mppm-cli` uses it for every verb.
pub fn cli_geometry(quick: bool) -> mppm_trace::TraceGeometry {
    if quick {
        mppm_trace::TraceGeometry::new(50_000, 20)
    } else {
        mppm_trace::TraceGeometry::default()
    }
}

fn resolve_mix_request(req: &Request) -> Result<MixRequest, ProtoError> {
    let names: Vec<String> = req
        .mix
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if names.is_empty() {
        return Err(ProtoError::bad("`mix` must list at least one benchmark"));
    }
    let config = parse_config_1based(req.config, "`config`")?;
    let geometry = match (req.interval_insns, req.intervals) {
        (0, 0) => cli_geometry(req.quick),
        (ii, iv) if ii > 0 && iv > 0 && iv <= u64::from(u32::MAX) => {
            let intervals = u32::try_from(iv).expect("guard bounds `intervals` to u32::MAX");
            mppm_trace::TraceGeometry::new(ii, intervals)
        }
        _ => {
            return Err(ProtoError::bad(
                "geometry override needs both `interval_insns` and `intervals` nonzero",
            ))
        }
    };
    let contention = match (req.contention.as_str(), req.partition.as_str()) {
        (_, p) if !p.is_empty() && !req.contention.is_empty() => {
            return Err(ProtoError::bad("`contention` and `partition` are mutually exclusive"))
        }
        ("", "") | ("foa", _) => Contention::Foa,
        ("sdc", _) => Contention::Sdc,
        ("prob", _) => Contention::Prob,
        ("", p) => {
            let ways: Result<Vec<u32>, _> =
                p.split(',').map(|w| w.trim().parse::<u32>()).collect();
            let ways = ways
                .map_err(|_| ProtoError::bad(format!("`partition` expects way counts, got `{p}`")))?;
            if ways.len() != names.len() {
                return Err(ProtoError::bad(format!(
                    "`partition` needs one way count per program ({} vs {})",
                    ways.len(),
                    names.len()
                )));
            }
            Contention::Partition(ways)
        }
        (other, _) => {
            return Err(ProtoError::bad(format!(
                "unknown contention model `{other}` (foa|sdc|prob)"
            )))
        }
    };
    Ok(MixRequest { names, config, geometry, contention, bandwidth: req.bandwidth })
}

/// Campaign fields left at 0 (or empty) take the campaign library's
/// defaults: [`CampaignSpec::quick_default`] and
/// [`AggregateOptions::default`], with sample seed 1.
fn resolve_campaign_request(req: &Request) -> Result<CampaignRequest, ProtoError> {
    let defaults = CampaignSpec::quick_default();
    let or_default = |value: u64, default: usize| if value == 0 { default } else { value as usize };
    let designs = if req.configs.trim().is_empty() {
        defaults.designs
    } else {
        req.configs
            .split(',')
            .map(|s| match s.trim().parse::<usize>() {
                Ok(n @ 1..=6) => Ok(n - 1),
                _ => Err(ProtoError::bad(format!("`configs` entries must be 1..6, got `{s}`"))),
            })
            .collect::<Result<Vec<usize>, _>>()?
    };
    Ok(CampaignRequest {
        cores: or_default(req.cores, defaults.cores),
        designs,
        sample: (req.sample > 0).then_some(req.sample as usize),
        seed: if req.seed == 0 { 1 } else { req.seed },
        shard_size: or_default(req.shard_size, defaults.shard_size),
        trials: or_default(req.trials, AggregateOptions::default().stability_trials),
        quick: req.quick,
    })
}

/// Applies defaults and parses lists; semantic checks that need the
/// suite or the machine (benchmark names, bandwidth, partition sums)
/// are [`MixRequest::check`].
///
/// # Errors
///
/// [`ProtoError`] with [`codes::BAD_REQUEST`] on malformed fields or an
/// unknown `kind`.
pub fn resolve(req: &Request) -> Result<Resolved, ProtoError> {
    match req.kind.as_str() {
        "ping" => Ok(Resolved::Ping),
        "stats" => Ok(Resolved::Stats),
        "shutdown" => Ok(Resolved::Shutdown),
        "cancel" => Ok(Resolved::Cancel(req.target)),
        "predict" => Ok(Resolved::Predict(resolve_mix_request(req)?)),
        "simulate" => Ok(Resolved::Simulate(resolve_mix_request(req)?)),
        "campaign" => Ok(Resolved::Campaign(resolve_campaign_request(req)?)),
        "" => Err(ProtoError::bad("missing `kind`")),
        other => Err(ProtoError::bad(format!(
            "unknown request kind `{other}` \
             (ping|stats|predict|simulate|campaign|cancel|shutdown)"
        ))),
    }
}

/// A [`MixRequest`] that passed [`MixRequest::check`]: its programs and
/// the machine they share, ready to profile and simulate.
#[derive(Debug)]
pub struct CheckedMix<'r> {
    request: &'r MixRequest,
    specs: Vec<&'static BenchmarkSpec>,
    machine: MachineConfig,
}

impl CheckedMix<'_> {
    /// Each program's solve-ready profile, in request order: the
    /// store's memo, so a warm store validates and tabulates nothing.
    ///
    /// # Errors
    ///
    /// [`codes::MODEL`] when a profile fails validation.
    pub fn profiles(&self, store: &Store) -> Result<Vec<Arc<SolverProfile>>, ProtoError> {
        self.specs
            .iter()
            .map(|s| Ok(store.solver_profile(s, &self.machine, self.request.geometry)?))
            .collect()
    }

    /// The detailed simulation of the mix (cached in `store`), given the
    /// programs' [`Self::profiles`].
    pub fn simulate(&self, store: &Store, profiles: &[Arc<SolverProfile>]) -> MixRecord {
        let cpi_sc: Vec<f64> = profiles.iter().map(|p| p.cpi_sc()).collect();
        let names: Vec<&str> = self.request.names.iter().map(String::as_str).collect();
        store.simulate(&names, &cpi_sc, &self.machine, self.request.geometry)
    }
}

impl MixRequest {
    /// Looks up every program in the suite and builds the machine they
    /// share: the Table 2 LLC config plus the bandwidth cap, with a
    /// partition that gives every program a way and fills the LLC.
    /// Nothing is profiled, so a bad request costs nothing.
    ///
    /// # Errors
    ///
    /// [`codes::BAD_REQUEST`] for an unknown benchmark, a bandwidth that
    /// is not positive, or a partition that does not fit the LLC.
    pub fn check(&self) -> Result<CheckedMix<'_>, ProtoError> {
        let specs = self
            .names
            .iter()
            .map(|n| {
                suite::benchmark(n).ok_or_else(|| {
                    ProtoError::bad(format!("unknown benchmark `{n}`; see `mppm-cli list`"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // mppm-lint: allow(panic-reaches-handler): `parse_config_1based` bounds-checked `self.config` against `llc_configs()` at resolve time
        let mut machine = MachineConfig::baseline().with_llc(llc_configs()[self.config]);
        if let Some(bw) = self.bandwidth {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(ProtoError::bad(format!("`bandwidth` must be positive, got {bw}")));
            }
            machine = machine.with_mem_bandwidth(bw);
        }
        if let Contention::Partition(ways) = &self.contention {
            if ways.contains(&0) {
                return Err(ProtoError::bad("every program needs at least one way"));
            }
            let total: u32 = ways.iter().sum();
            if total != machine.llc.assoc {
                return Err(ProtoError::bad(format!(
                    "partition ways sum to {total} but LLC config #{} has {} ways",
                    self.config + 1,
                    machine.llc.assoc
                )));
            }
        }
        Ok(CheckedMix { request: self, specs, machine })
    }

    /// Solves the mix over the programs' [`CheckedMix::profiles`] with
    /// the requested contention model and bandwidth cap, one
    /// `solver-step` event per iteration on an enabled `span`. `scratch`
    /// carries the solver's working vectors from one call to the next.
    ///
    /// # Errors
    ///
    /// [`codes::MODEL`] when the model rejects the profiles.
    pub fn predict(
        &self,
        profiles: &[Arc<SolverProfile>],
        span: &Span,
        scratch: &mut SolverScratch,
    ) -> Result<Prediction, ProtoError> {
        fn go<M: ContentionModel>(
            cfg: MppmConfig,
            m: M,
            ready: &[&SolverProfile],
            span: &Span,
            scratch: &mut SolverScratch,
        ) -> Result<Prediction, ProtoError> {
            Ok(Mppm::new(cfg, m).solve(ready, span, scratch)?)
        }
        let ready: Vec<&SolverProfile> = profiles.iter().map(|p| &**p).collect();
        let config = MppmConfig { bandwidth: self.bandwidth, ..MppmConfig::default() };
        match &self.contention {
            Contention::Foa => go(config, FoaModel, &ready, span, scratch),
            Contention::Sdc => go(config, SdcCompetitionModel, &ready, span, scratch),
            Contention::Prob => go(config, ProbModel, &ready, span, scratch),
            Contention::Partition(ways) => {
                go(config, PartitionModel::new(ways.clone()), &ready, span, scratch)
            }
        }
    }

    /// Canonical cache key: every result-affecting parameter, nothing
    /// else. Identical resolved requests — regardless of frame ids or
    /// field spelling — share one key.
    pub fn cache_key(&self, verb: &str) -> String {
        let mut key = format!(
            "{verb}|{}|c{}|g{}x{}|{}",
            self.names.join(","),
            self.config,
            self.geometry.interval_insns,
            self.geometry.intervals,
            self.contention.tag(),
        );
        if let Some(bw) = self.bandwidth {
            let _ = write!(key, "|bw{bw:?}");
        }
        key
    }
}

impl CampaignRequest {
    /// The campaign this request runs: its spec, aggregation options and
    /// scale.
    pub fn campaign(&self) -> (CampaignSpec, AggregateOptions, Scale) {
        let spec = CampaignSpec {
            cores: self.cores,
            designs: self.designs.clone(),
            source: match self.sample {
                Some(count) => MixSource::Stratified { count, seed: self.seed },
                None => MixSource::Exhaustive,
            },
            shard_size: self.shard_size,
        };
        let options = AggregateOptions { stability_trials: self.trials, ..Default::default() };
        (spec, options, if self.quick { Scale::Quick } else { Scale::Full })
    }

    /// Canonical cache key (see [`MixRequest::cache_key`]).
    pub fn cache_key(&self) -> String {
        let designs: Vec<String> = self.designs.iter().map(|d| d.to_string()).collect();
        let source = match self.sample {
            Some(n) => format!("s{}x{}", n, self.seed),
            None => "full".to_string(),
        };
        format!(
            "campaign|k{}|d{}|{}|sh{}|t{}|{}",
            self.cores,
            designs.join(","),
            source,
            self.shard_size,
            self.trials,
            if self.quick { "quick" } else { "full" },
        )
    }
}

/// Serializes one ok-response frame (no trailing newline).
pub fn ok_frame(id: u64, kind: &str, cached: bool, result: Value, meta: Option<Value>) -> String {
    ok_frame_rendered(id, kind, cached, &render(&result), meta.as_ref())
}

/// The compact JSON of `value`, as it appears inside a frame.
pub(crate) fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("values serialize")
}

/// [`ok_frame`] around a `result` member already rendered by [`render`]:
/// the same bytes, without a `Value` tree. The response cache keeps
/// results rendered, so a hit splices its bytes into a new frame.
pub(crate) fn ok_frame_rendered(
    id: u64,
    kind: &str,
    cached: bool,
    result: &str,
    meta: Option<&Value>,
) -> String {
    let kind = render(&Value::String(kind.to_string()));
    let meta = meta.map(render);
    let mut frame = String::with_capacity(result.len() + meta.as_ref().map_or(0, String::len) + 80);
    let _ = write!(frame, "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"ok\":true,\"kind\":{kind}");
    let _ = write!(frame, ",\"cached\":{cached},\"result\":{result}");
    if let Some(meta) = meta {
        frame.push_str(",\"meta\":");
        frame.push_str(&meta);
    }
    frame.push('}');
    frame
}

/// Serializes one error frame (no trailing newline).
pub fn err_frame(id: u64, code: &str, message: &str) -> String {
    let error = Value::Object(vec![
        ("code".to_string(), Value::String(code.to_string())),
        ("message".to_string(), Value::String(message.to_string())),
    ]);
    let frame = Value::Object(vec![
        ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
        ("id".to_string(), Value::UInt(id)),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), error),
    ]);
    serde_json::to_string(&frame).expect("frame serialization cannot fail")
}

/// Serializes one event frame for a subscribed request (no trailing
/// newline).
pub fn event_frame(id: u64, event: &mppm_obs::Event) -> String {
    let fields: Vec<(String, Value)> = event
        .fields
        .iter()
        .map(|(k, v)| {
            let value = match v {
                mppm_obs::Value::U64(n) => Value::UInt(*n),
                mppm_obs::Value::F64(f) => Value::Float(*f),
                mppm_obs::Value::Bool(b) => Value::Bool(*b),
                mppm_obs::Value::Str(s) => Value::String(s.clone()),
            };
            ((*k).to_string(), value)
        })
        .collect();
    let body = Value::Object(vec![
        ("scope".to_string(), Value::String(event.scope.clone())),
        ("index".to_string(), Value::UInt(event.index)),
        ("name".to_string(), Value::String(event.name.clone())),
        ("fields".to_string(), Value::Object(fields)),
    ]);
    let frame = Value::Object(vec![
        ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
        ("id".to_string(), Value::UInt(id)),
        ("kind".to_string(), Value::String("event".to_string())),
        ("event".to_string(), body),
    ]);
    serde_json::to_string(&frame).expect("frame serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: &str) -> Request {
        Request { kind: kind.to_string(), ..Request::default() }
    }

    #[test]
    fn defaults_mirror_the_cli() {
        let mut r = req("predict");
        r.mix = "gamess,lbm".to_string();
        let Resolved::Predict(m) = resolve(&r).unwrap() else { panic!("predict") };
        assert_eq!(m.names, vec!["gamess", "lbm"]);
        assert_eq!(m.config, 0);
        assert_eq!(m.geometry, mppm_trace::TraceGeometry::default());
        assert_eq!(m.contention, Contention::Foa);
        assert_eq!(m.bandwidth, None);

        let mut r = req("campaign");
        r.quick = true;
        let Resolved::Campaign(c) = resolve(&r).unwrap() else { panic!("campaign") };
        assert_eq!(
            c,
            CampaignRequest {
                cores: 2,
                designs: vec![0, 1],
                sample: None,
                seed: 1,
                shard_size: 64,
                trials: 200,
                quick: true,
            }
        );
    }

    #[test]
    fn quick_geometry_matches_cli_flag() {
        let mut r = req("simulate");
        r.mix = "lbm".to_string();
        r.quick = true;
        let Resolved::Simulate(m) = resolve(&r).unwrap() else { panic!("simulate") };
        assert_eq!(m.geometry, mppm_trace::TraceGeometry::new(50_000, 20));
    }

    #[test]
    fn geometry_override_needs_both_fields() {
        let mut r = req("simulate");
        r.mix = "lbm".to_string();
        r.interval_insns = 20_000;
        assert_eq!(resolve(&r).unwrap_err().code, codes::BAD_REQUEST);
        r.intervals = 10;
        let Resolved::Simulate(m) = resolve(&r).unwrap() else { panic!("simulate") };
        assert_eq!(m.geometry, mppm_trace::TraceGeometry::new(20_000, 10));
    }

    #[test]
    fn unknown_kind_and_bad_fields_are_typed_errors() {
        assert_eq!(resolve(&req("frobnicate")).unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(resolve(&req("")).unwrap_err().code, codes::BAD_REQUEST);
        let mut r = req("predict");
        r.mix = "gamess".to_string();
        r.config = 9;
        assert!(resolve(&r).unwrap_err().message.contains("1..6"));
        let mut r = req("predict");
        r.mix = "a,b".to_string();
        r.contention = "foa".to_string();
        r.partition = "6,2".to_string();
        assert!(resolve(&r).unwrap_err().message.contains("mutually exclusive"));
    }

    #[test]
    fn cache_keys_canonicalize_equivalent_requests() {
        let mut a = req("predict");
        a.mix = "gamess,lbm".to_string();
        a.id = 7;
        let mut b = req("predict");
        b.mix = " gamess , lbm ".to_string();
        b.id = 99;
        b.config = 1; // explicit default
        let (Resolved::Predict(ra), Resolved::Predict(rb)) =
            (resolve(&a).unwrap(), resolve(&b).unwrap())
        else {
            panic!("predict")
        };
        assert_eq!(ra.cache_key("predict"), rb.cache_key("predict"));
        // Different geometry, different key.
        b.quick = true;
        let Resolved::Predict(rq) = resolve(&b).unwrap() else { panic!("predict") };
        assert_ne!(ra.cache_key("predict"), rq.cache_key("predict"));
    }

    #[test]
    fn frames_have_stable_shapes() {
        let ok = ok_frame(3, "ping", false, Value::Object(vec![]), None);
        assert_eq!(
            ok,
            "{\"v\":1,\"id\":3,\"ok\":true,\"kind\":\"ping\",\"cached\":false,\"result\":{}}"
        );
        let err = err_frame(0, codes::PARSE, "bad json");
        assert_eq!(
            err,
            "{\"v\":1,\"id\":0,\"ok\":false,\"error\":{\"code\":\"parse\",\"message\":\"bad json\"}}"
        );
        let ev = mppm_obs::Event {
            scope: "campaign".to_string(),
            index: 1,
            name: "plan".to_string(),
            fields: vec![("shards", mppm_obs::Value::U64(4))],
        };
        assert_eq!(
            event_frame(5, &ev),
            "{\"v\":1,\"id\":5,\"kind\":\"event\",\"event\":{\"scope\":\"campaign\",\"index\":1,\
             \"name\":\"plan\",\"fields\":{\"shards\":4}}}"
        );
    }

    /// The frame as one `Value` tree serialized whole: what `ok_frame`
    /// produced before results were cached rendered.
    fn tree_frame(id: u64, kind: &str, cached: bool, result: Value, meta: Option<Value>) -> String {
        let mut fields = vec![
            ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
            ("id".to_string(), Value::UInt(id)),
            ("ok".to_string(), Value::Bool(true)),
            ("kind".to_string(), Value::String(kind.to_string())),
            ("cached".to_string(), Value::Bool(cached)),
            ("result".to_string(), result),
        ];
        fields.extend(meta.map(|m| ("meta".to_string(), m)));
        serde_json::to_string(&Value::Object(fields)).unwrap()
    }

    #[test]
    fn frames_from_rendered_results_match_the_value_tree() {
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&f| Value::Float(f)).collect());
        let object = |fields: Vec<(&str, Value)>| {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let edges = [-0.0, 0.0, 1e-300, 1e300, 2.0, -3.0, 0.1, f64::MAX, f64::MIN_POSITIVE];
        let predict = object(vec![
            ("names", Value::Array(vec![Value::from("gamess"), Value::from("lbm")])),
            ("cpi_sc", floats(&edges)),
            ("cpi_mc", floats(&[1.25, f64::NAN, f64::INFINITY])),
            ("stp", Value::Float(1.0)),
            ("steps", Value::UInt(7)),
            ("converged", Value::Bool(true)),
        ]);
        let simulate = object(vec![("cpi_mc", floats(&[1.5e-7, 12.0])), ("stp", Value::Float(-0.0))]);
        let sim_meta = object(vec![("sim_seconds", Value::Float(0.0123))]);
        let campaign = object(vec![
            ("plan_id", Value::from("c2_n29")),
            ("designs_csv", Value::from("design,stp_mean\n\"#1\",1.5\n\ttab\u{1}")),
        ]);
        let campaign_meta = object(vec![("compute_seconds", Value::Float(1e300))]);
        let cases = [
            ("predict", predict, None),
            ("simulate", simulate, Some(sim_meta)),
            ("campaign", campaign, Some(campaign_meta)),
            ("ping", Value::Object(vec![]), None),
        ];
        for (kind, result, meta) in cases {
            for (id, cached) in [(0, false), (u64::MAX, true)] {
                let expected = tree_frame(id, kind, cached, result.clone(), meta.clone());
                assert_eq!(ok_frame(id, kind, cached, result.clone(), meta.clone()), expected);
                let rendered = render(&result);
                assert_eq!(ok_frame_rendered(id, kind, cached, &rendered, meta.as_ref()), expected);
            }
        }
    }

    #[test]
    fn request_round_trips_and_tolerates_missing_fields() {
        let parsed: Request = serde_json::from_str("{\"kind\":\"ping\",\"id\":42}").unwrap();
        assert_eq!(parsed.id, 42);
        assert_eq!(parsed.kind, "ping");
        assert!(!parsed.quick);
        assert_eq!(parsed.bandwidth, None);
        assert!(matches!(resolve(&parsed).unwrap(), Resolved::Ping));
        // ... but a missing `v` defaults to 0, which the daemon refuses.
        assert_eq!(parsed.v, 0);
        assert!(mppm_wire::check_version(Some(parsed.v)).is_err());
    }
}

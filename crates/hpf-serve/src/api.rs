//! Endpoint handlers: pure functions from a parsed request to a response
//! body, shared by every worker.
//!
//! Handlers are deterministic — the same request always produces the same
//! bytes, whatever worker runs it and in whatever order requests arrive —
//! which is what lets the response cache serve repeats verbatim and what
//! the cross-worker byte-identity tests pin down. The pieces that make this
//! hold: all JSON objects are `BTreeMap`-backed (sorted keys), floats are
//! formatted by the same `Display` path everywhere, the prediction and
//! simulation engines are seeded and deterministic, and response bodies
//! never embed timestamps or identity of the serving worker.
//!
//! One path per POST: [`Api::cached_post`] answers a repeat from the
//! response cache, or parses the body once into a [`Post`] (the body, the
//! one [`Deadline`] its `deadline_ms` sets at parse time, and the chaos
//! flag) and runs the route's handler on it. A handler returns its 200 or
//! a [`Failure`], and [`Failure::render`] is the one place a failure
//! becomes a response.
//!
//! Error surface: malformed HPF source comes back as a structured 400
//! whose `diagnostic` field is the very string the `advise` CLI prints to
//! stderr ([`PipelineError::render_diagnostic`]) — one diagnostic, two
//! transports. Expired deadlines come back as 504 with the stage that was
//! about to start — including a deadline that is already dead at *parse*
//! time, which short-circuits before any pipeline stage runs.
//!
//! Degradation surface: the expensive DES cross-check behind
//! `simulate: true` sweeps and the advisor's top-k validation runs under
//! a [`crate::breaker::Breaker`]; when it is open (or the call fails),
//! the response is served from the analytic interpreter alone and carries
//! `"degraded": true`. Degraded bodies are never stored in the response
//! cache, so a healthy breaker never replays them.

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::{Arc, OnceLock};

use hpf_lang::ast::Program;
use hpf_lang::parse_program;
use hpf_trace::json::{parse as parse_json, Value};
use interp::{InterpOptions, InterpretationEngine, Prediction};
use ipsc_sim::{SimConfig, Simulator};
use report::pipeline::{calibrated_machine_for, machine_params};
use report::PipelineError;

use crate::breaker::{Breaker, BreakerConfig, BreakerOutcome};
use crate::cache::{
    response_key, CacheConfig, CachedResponse, Deadline, FlightJoin, FlightWait, Route, ServeCache,
    ServeFailure,
};
use crate::http::Request;
use crate::metrics::ServeMetrics;
use crate::status::ServiceStatus;

/// Schema tag stamped on every JSON body this service writes.
pub const SCHEMA: &str = "hpf-serve/v1";

/// The test-only fault-injection header, honored only when the server
/// runs with chaos enabled: `handler` panics inside the request handler
/// (caught by the worker's panic isolation), `sim` panics inside the
/// breaker-guarded DES cross-check, `fatal` (interpreted by the server
/// layer, outside the isolation wrapper) kills the worker thread to
/// exercise supervisor respawn.
pub const CHAOS_HEADER: &str = "x-chaos-panic";

/// A finished response: status + body (always JSON). `cacheable` is
/// false for bodies that depend on transient service state (degraded
/// answers served while the breaker is open) — they must not be replayed
/// once the service recovers.
///
/// The body is an `Arc` so a cache hit, a single-flight waiter, and the
/// wire write all share one allocation instead of cloning kilobytes per
/// request.
#[derive(Debug, Clone)]
pub struct ApiResponse {
    pub status: u16,
    pub body: Arc<Vec<u8>>,
    pub cacheable: bool,
}

impl ApiResponse {
    fn json(status: u16, value: &Value) -> ApiResponse {
        ApiResponse {
            status,
            body: Arc::new(value.pretty().into_bytes()),
            cacheable: true,
        }
    }

    fn json_uncacheable(status: u16, value: &Value) -> ApiResponse {
        ApiResponse {
            cacheable: false,
            ..ApiResponse::json(status, value)
        }
    }
}

/// One POST, parsed once: everything its handler reads.
struct Post {
    body: Value,
    /// The request's one deadline, set from `deadline_ms` when the body
    /// was parsed; a waiter released to compute on its own keeps it.
    deadline: Deadline,
    /// Panic inside the breaker-guarded DES cross-check (chaos only).
    sim_panic: bool,
}

impl Post {
    /// Parse a POST body. A deadline that is already dead here is a 504
    /// before any pipeline stage runs.
    fn parse(text: &str, sim_panic: bool) -> Result<Post, Failure> {
        let body = match parse_json(text) {
            Ok(v @ Value::Obj(_)) => v,
            Ok(_) => return Err(bad_request("body must be a JSON object")),
            Err(e) => return Err(bad_request(format!("body is not valid JSON: {e}"))),
        };
        // Absent = no deadline; present (including 0) = a budget of that
        // many milliseconds, enforced between pipeline stages.
        let deadline = match body.get("deadline_ms") {
            None => Deadline::none(),
            Some(_) => Deadline::in_ms(uint_field(&body, "deadline_ms", 0)? as u64),
        };
        deadline.check("parse")?;
        Ok(Post {
            body,
            deadline,
            sim_panic,
        })
    }

    /// The inline source a pipeline error's diagnostic is rendered
    /// against, if the request has one.
    fn source(&self) -> Option<&str> {
        self.body.get("source").and_then(Value::as_str)
    }
}

/// Why a POST is not answered with a 200. Handlers return it, and
/// [`Failure::render`] turns it into the response.
enum Failure {
    /// The body asks for something the service does not take (400, kind
    /// `request`).
    Request(String),
    /// A pipeline error (400, kind `pipeline`, with the inline source's
    /// diagnostic) or an expired deadline (504).
    Serve(ServeFailure),
    /// The advisor refused the program or its search: a `pipeline` 400
    /// whose diagnostic is rendered against the inline source, or an
    /// empty one for a kernel.
    Advisor(PipelineError),
}

fn bad_request(message: impl Into<String>) -> Failure {
    Failure::Request(message.into())
}

impl From<ServeFailure> for Failure {
    fn from(f: ServeFailure) -> Failure {
        Failure::Serve(f)
    }
}

impl From<PipelineError> for Failure {
    fn from(e: PipelineError) -> Failure {
        Failure::Serve(ServeFailure::Pipeline(e))
    }
}

impl Failure {
    /// The structured error response; `source` is the request's inline
    /// source.
    fn render(self, source: Option<&str>) -> ApiResponse {
        let (status, value) = match self {
            Failure::Request(message) => (400, error_value("request", message, [])),
            Failure::Serve(ServeFailure::Pipeline(e)) => (400, pipeline_error_value(&e, source)),
            Failure::Serve(f @ ServeFailure::Deadline { stage }) => (
                504,
                error_value(
                    "deadline",
                    f.to_string(),
                    [("stage", Value::Str(stage.into()))],
                ),
            ),
            Failure::Advisor(e) => (400, pipeline_error_value(&e, Some(source.unwrap_or("")))),
        };
        ApiResponse::json(status, &value)
    }
}

/// A POST route's handler.
type Handler = fn(&Api, &Post) -> Result<ApiResponse, Failure>;

/// The service's request handler: routing plus the warm cache stack.
///
/// An `Api` records its traces into the recorder that was current on the
/// thread that built it, whichever thread calls [`Api::handle`].
#[derive(Debug)]
pub struct Api {
    cache: ServeCache,
    breaker: Breaker,
    status: Arc<ServiceStatus>,
    /// Streaming metrics: the recorder and the `?since=` cursor ring.
    metrics: ServeMetrics,
    /// Honor the `x-chaos-panic` fault-injection header.
    chaos: bool,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

/// The `/v1/healthz` latency section: a compact snapshot of every
/// per-endpoint request-latency sketch (`serve.latency.*`, kernels
/// excluded — those live in the full `/v1/metrics` document).
fn latency_value(recorder: &hpf_trace::Recorder) -> Value {
    Value::Obj(
        recorder
            .sketches_snapshot()
            .into_iter()
            .filter_map(|(name, s)| {
                let short = name.strip_prefix("serve.latency.")?;
                if short.starts_with("kernel.") {
                    return None;
                }
                let v = Value::obj(vec![
                    ("count", num(s.count() as f64)),
                    ("p50_s", num(s.quantile(0.50))),
                    ("p95_s", num(s.quantile(0.95))),
                    ("p99_s", num(s.quantile(0.99))),
                    ("p999_s", num(s.quantile(0.999))),
                ]);
                Some((short.to_string(), v))
            })
            .collect(),
    )
}

fn metrics_value(m: &interp::Metrics) -> Value {
    let mut fields = vec![
        ("comp_s", num(m.comp)),
        ("comm_s", num(m.comm)),
        ("overhead_s", num(m.overhead)),
        ("wait_s", num(m.wait)),
    ];
    // Emitted only when an I/O phase actually ran, so responses for
    // I/O-free programs stay byte-identical to the pre-I/O schema.
    if m.io != 0.0 {
        fields.push(("io_s", num(m.io)));
    }
    fields.push(("time_s", num(m.time())));
    Value::obj(fields)
}

fn kind_label(kind: &appgraph::AauKind) -> &'static str {
    match kind {
        appgraph::AauKind::Start => "start",
        appgraph::AauKind::End => "end",
        appgraph::AauKind::Seq { .. } => "seq",
        appgraph::AauKind::IterD { .. } => "iterd",
        appgraph::AauKind::CondtD { .. } => "condtd",
        appgraph::AauKind::Comm { .. } => "comm",
        appgraph::AauKind::Io { .. } => "io",
    }
}

/// The service's one error body, `{"schema", "error": {"kind", "message"}}`,
/// with `extra` fields in the error object.
pub(crate) fn error_value<'k>(
    kind: &str,
    message: impl Into<String>,
    extra: impl IntoIterator<Item = (&'k str, Value)>,
) -> Value {
    let mut err = vec![
        ("kind", Value::Str(kind.into())),
        ("message", Value::Str(message.into())),
    ];
    err.extend(extra);
    Value::obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("error", Value::obj(err)),
    ])
}

fn pipeline_error_value(e: &PipelineError, source: Option<&str>) -> Value {
    let mut extra = vec![("stage", Value::Str(e.stage.label().into()))];
    if let Some(line) = e.line() {
        extra.push(("line", num(line as f64)));
    }
    if let Some(src) = source {
        if let Some(col) = e.column_in(src) {
            extra.push(("column", num(col as f64)));
        }
        // The exact string `advise` prints to stderr for the same input.
        extra.push(("diagnostic", Value::Str(e.render_diagnostic(src))));
    }
    error_value("pipeline", e.message.clone(), extra)
}

/// A 200 that the breaker may have served analytic-only: a degraded body
/// carries `"degraded": true` and is never cached.
fn ok_or_degraded(mut top: Vec<(&str, Value)>, degraded: bool) -> ApiResponse {
    if degraded {
        top.push(("degraded", Value::Bool(true)));
        return ApiResponse::json_uncacheable(200, &Value::obj(top));
    }
    ApiResponse::json(200, &Value::obj(top))
}

/// One row of an advise ranking; `machine` names the backend in a
/// cross-machine ranking.
fn ranked_value(c: &hpf_advisor::RankedCandidate, machine: Option<&str>) -> Value {
    let mut entry: Vec<(&str, Value)> = vec![
        ("directives", Value::Str(c.label.clone())),
        ("predicted_s", num(c.predicted_s)),
        ("metrics", metrics_value(&c.metrics)),
    ];
    if let Some(m) = machine {
        entry.push(("machine", Value::Str(m.to_string())));
    }
    if let Some(s) = c.simulated_s {
        entry.push(("simulated_s", num(s)));
    }
    if let Some(e) = c.sim_error_pct {
        entry.push(("sim_error_pct", num(e)));
    }
    Value::obj(entry)
}

/// What a predict/sweep/advise body may select: a suite kernel by name, or
/// inline HPF source, borrowed from the body.
#[derive(Clone, Copy)]
enum Target<'a> {
    Kernel(&'a str),
    Source(&'a str),
}

impl<'a> Target<'a> {
    fn from_body(body: &'a Value) -> Result<Target<'a>, Failure> {
        match (body.get("kernel"), body.get("source")) {
            (Some(_), Some(_)) => Err(bad_request("give either `kernel` or `source`, not both")),
            (Some(k), None) => k
                .as_str()
                .map(Target::Kernel)
                .ok_or_else(|| bad_request("`kernel` must be a string")),
            (None, Some(s)) => s
                .as_str()
                .map(Target::Source)
                .ok_or_else(|| bad_request("`source` must be a string")),
            (None, None) => Err(bad_request("body needs a `kernel` name or HPF `source`")),
        }
    }

    fn describe(self) -> Value {
        match self {
            Target::Kernel(name) => Value::Str(name.to_string()),
            Target::Source(_) => Value::Str("<inline source>".into()),
        }
    }
}

/// `v` as an integer in `0..=u32::MAX`, the bound on every count and size
/// a request names.
fn small_uint(v: &Value) -> Option<usize> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= u32::MAX as f64).then_some(f as usize)
}

fn uint_field(body: &Value, key: &str, default: usize) -> Result<usize, Failure> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => small_uint(v)
            .ok_or_else(|| bad_request(format!("`{key}` must be a small non-negative integer"))),
    }
}

/// Every value [`small_uint`] accepts but zero.
const POSITIVE: RangeInclusive<usize> = 1..=u32::MAX as usize;

/// `key` as an integer in `range`, `default` when absent.
fn ranged_field(
    body: &Value,
    key: &str,
    default: usize,
    range: RangeInclusive<usize>,
) -> Result<usize, Failure> {
    let v = uint_field(body, key, default)?;
    if range.contains(&v) {
        Ok(v)
    } else if range == POSITIVE {
        Err(bad_request(format!("`{key}` must be positive")))
    } else {
        let (lo, hi) = range.into_inner();
        Err(bad_request(format!(
            "`{key}` must be between {lo} and {hi}"
        )))
    }
}

/// The per-kernel latency sketch (`serve.latency.kernel.<name>`) of the
/// kernel `name` resolves to, under its canonical name, so every spelling
/// [`kernels::kernel_by_name`] accepts feeds one sketch. `None` when
/// `name` names no kernel: a client cannot make the server keep a sketch.
fn kernel_metric_name(name: &str) -> Option<&'static str> {
    static NAMES: OnceLock<HashMap<&'static str, String>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        kernels::all_kernels()
            .into_iter()
            .chain(kernels::ooc_kernels())
            .map(|k| (k.name, format!("serve.latency.kernel.{}", k.name)))
            .collect()
    });
    names
        .get(kernels::kernel_by_name(name)?.name)
        .map(String::as_str)
}

/// The per-machine latency sketch (`serve.latency.machine.<name>`) of a
/// registered backend; `None` for any other name. Only requests that name
/// a machine explicitly record here — the default-machine bulk of traffic
/// already lands on the per-endpoint sketches.
fn machine_metric_name(name: &str) -> Option<&'static str> {
    static NAMES: OnceLock<HashMap<&'static str, String>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        hpf_machines::machine_names()
            .into_iter()
            .map(|m| (m, format!("serve.latency.machine.{m}")))
            .collect()
    });
    names.get(name).map(String::as_str)
}

/// The registry backend `name` names. An unknown name is the registry's
/// typed `TopologyError`, surfaced as the same structured 400 pipeline
/// body the CLI diagnostics map to (stage `machine`).
fn registered(name: &str) -> Result<&'static str, Failure> {
    Ok(hpf_machines::machine(name)
        .map_err(PipelineError::from)?
        .name)
}

/// The optional `"machine"` body field: absent means the default backend
/// (and the response does not echo a machine), present means the named
/// registry backend.
fn machine_from(body: &Value) -> Result<Option<&'static str>, Failure> {
    let Some(v) = body.get("machine") else {
        return Ok(None);
    };
    let name = v
        .as_str()
        .ok_or_else(|| bad_request("`machine` must be a string"))?;
    registered(name).map(Some)
}

impl Api {
    pub fn new(cfg: &CacheConfig) -> Api {
        Self::with_runtime(cfg, Arc::new(ServiceStatus::default()), false)
    }

    /// The server-side constructor: shares the liveness status the
    /// worker pool maintains and opts into chaos-header handling.
    pub fn with_runtime(cfg: &CacheConfig, status: Arc<ServiceStatus>, chaos: bool) -> Api {
        Api {
            cache: ServeCache::new(cfg),
            breaker: Breaker::new(BreakerConfig::default()),
            status,
            metrics: ServeMetrics::new(),
            chaos,
        }
    }

    /// The recorder this service records into: the one current when it
    /// was built.
    pub fn recorder(&self) -> &hpf_trace::Recorder {
        self.metrics.recorder()
    }

    /// Route and serve one request. Infallible by construction — every
    /// failure mode is a JSON error response. The one deliberate
    /// exception: an injected chaos panic (test-only header, only when
    /// chaos is enabled), which the worker's `catch_unwind` isolation is
    /// expected to convert into a structured 500.
    pub fn handle(&self, req: &Request) -> ApiResponse {
        let _recording = self.recorder().install();
        // The metrics scrape itself never self-counts: a delta capture
        // must observe the service, not perturb it.
        if req.method == "GET" && req.path == "/v1/metrics" {
            return self.metrics(req);
        }
        hpf_trace::counter_add("serve.requests", 1);
        let t0 = hpf_trace::enabled().then(std::time::Instant::now);
        let resp = self.dispatch(req);
        if let Some(t0) = t0 {
            let name = match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/v1/healthz") => "serve.latency.healthz",
                ("POST", "/v1/predict") => "serve.latency.predict",
                ("POST", "/v1/sweep") => "serve.latency.sweep",
                ("POST", "/v1/advise") => "serve.latency.advise",
                _ => "serve.latency.other",
            };
            hpf_trace::sketch_record(name, t0.elapsed().as_secs_f64());
        }
        resp
    }

    fn dispatch(&self, req: &Request) -> ApiResponse {
        let sim_panic = self.sim_panic(req);
        let post = |route, handler| self.cached_post(req, sim_panic, route, handler);
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => self.healthz(),
            ("POST", "/v1/predict") => post(Route::Predict, Self::predict),
            ("POST", "/v1/sweep") => post(Route::Sweep, Self::sweep),
            ("POST", "/v1/advise") => post(Route::Advise, Self::advise),
            (_, "/v1/healthz" | "/v1/metrics" | "/v1/predict" | "/v1/sweep" | "/v1/advise") => {
                let message = format!("method {} not allowed on {}", req.method, req.path);
                ApiResponse::json(405, &error_value("request", message, []))
            }
            _ => ApiResponse::json(
                404,
                &error_value("request", format!("no route {}", req.path), []),
            ),
        }
    }

    /// Interpret the chaos header (only when chaos is enabled): whether
    /// the DES cross-check should panic. The `handler` variant panics
    /// right here, inside the routed request — the worker's panic
    /// isolation must turn it into a structured 500 without shrinking the
    /// pool.
    fn sim_panic(&self, req: &Request) -> bool {
        if !self.chaos {
            return false;
        }
        match req.header(CHAOS_HEADER) {
            Some("handler") => panic!("chaos: injected handler panic"),
            Some("sim") => true,
            _ => false,
        }
    }

    /// Liveness, pool health and breaker state — the supervision layer's
    /// observable surface. Health bodies are never cached and vary with
    /// service state by design.
    fn healthz(&self) -> ApiResponse {
        let s = &self.status;
        ApiResponse::json_uncacheable(
            200,
            &Value::obj(vec![
                ("schema", Value::Str(SCHEMA.into())),
                ("status", Value::Str("ok".into())),
                (
                    "kernels",
                    Value::Arr(
                        kernels::all_kernels()
                            .iter()
                            .map(|k| Value::Str(k.name.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "workers",
                    Value::obj(vec![
                        ("configured", num(s.get(&s.workers_configured) as f64)),
                        ("live", num(s.get(&s.workers_live) as f64)),
                        ("panics", num(s.get(&s.worker_panics) as f64)),
                        ("deaths", num(s.get(&s.worker_deaths) as f64)),
                        ("respawns", num(s.get(&s.worker_respawns) as f64)),
                    ]),
                ),
                (
                    "queue",
                    Value::obj(vec![
                        ("depth", num(s.get(&s.queue_len) as f64)),
                        ("shed", num(s.get(&s.shed) as f64)),
                    ]),
                ),
                ("breaker", Value::Str(self.breaker.state_label().into())),
                ("latency", latency_value(self.recorder())),
            ]),
        )
    }

    /// The streaming-metrics endpoint. Without a query: the full
    /// `hpf-serve-metrics/v1` document (counter totals, latency sketches,
    /// and the embedded `hpf-trace/v1` export), stamped with a fresh
    /// `cursor`. With `?since=<cursor>`: per-counter and per-sketch deltas
    /// against that cursor's snapshot (`"reset": true` totals when the
    /// cursor has aged out of the ring).
    fn metrics(&self, req: &Request) -> ApiResponse {
        let doc = match req.query_param("since") {
            None => self.metrics.export_full(),
            Some(raw) => match raw.parse::<u64>() {
                Ok(since) => self.metrics.export_delta(since),
                Err(_) => {
                    return bad_request("`since` must be an unsigned integer cursor").render(None)
                }
            },
        };
        ApiResponse {
            status: 200,
            body: Arc::new(doc.pretty().into_bytes()),
            cacheable: false,
        }
    }

    /// Serve a POST from the response cache when the exact request was
    /// answered before; parse, compute and store otherwise. The cache is
    /// read by the route and the borrowed raw body bytes, before any parse
    /// and without a copy, so a warm repeat costs one hash lookup. Only
    /// cacheable 200 responses are stored: errors are cheap to recompute,
    /// a 504 depends on the deadline, and degraded bodies depend on
    /// breaker state, not the request.
    ///
    /// Cold misses are single-flighted under the same identity
    /// ([`response_key`], built only on a miss): the first request becomes
    /// the leader and computes; concurrent duplicates park and receive the
    /// leader's body verbatim when it was a cacheable 200.
    /// The leader stores that body before it releases its waiters, so a
    /// duplicate arriving after the flight ends is a hit. A leader that
    /// produced anything else (error, degraded, 504) releases its waiters
    /// to compute independently — coalescing must never replay a response
    /// that depends on transient service state. A waiter's deadline is the
    /// one its body set at parse time: a budget that expires while parked
    /// answers 504 (stage `coalesce`) without waiting out the leader, and
    /// a waiter released to compute on its own has only what is left of it.
    fn cached_post(
        &self,
        req: &Request,
        sim_panic: bool,
        route: Route,
        handler: Handler,
    ) -> ApiResponse {
        let Ok(text) = std::str::from_utf8(&req.body) else {
            return bad_request("body is not UTF-8").render(None);
        };
        // Per-kernel and per-machine latency sketches cover both the warm
        // and cold paths, so each distribution reflects what callers of
        // that kernel or machine actually observed.
        let t0 = hpf_trace::enabled().then(std::time::Instant::now);
        let record = |metrics: [Option<&'static str>; 2]| {
            if let Some(t0) = t0 {
                let elapsed = t0.elapsed().as_secs_f64();
                for name in metrics.into_iter().flatten() {
                    hpf_trace::sketch_record(name, elapsed);
                }
            }
        };
        if let Some(hit) = self.cache.response(route, text) {
            record([hit.kernel_metric, hit.machine_metric]);
            return ApiResponse {
                status: 200,
                body: hit.body,
                cacheable: true,
            };
        }
        let post = match Post::parse(text, sim_panic) {
            Ok(post) => post,
            Err(f) => return f.render(None),
        };
        hpf_trace::counter_add("serve.cache.miss", 1);
        let name = |key| post.body.get(key).and_then(Value::as_str);
        let kernel_metric = name("kernel").and_then(kernel_metric_name);
        let machine_metric = name("machine").and_then(machine_metric_name);
        let flight = self.cache.join_flight(&response_key(&req.path, text));
        // Run the handler and store a cacheable 200 (one store per
        // request at most).
        let compute = || {
            let response = handler(self, &post).unwrap_or_else(|f| f.render(post.source()));
            if response.status == 200 && response.cacheable {
                self.cache.store_response(
                    route,
                    text,
                    CachedResponse {
                        body: response.body.clone(),
                        kernel_metric,
                        machine_metric,
                    },
                );
            }
            response
        };
        let response = match flight {
            FlightJoin::Leader(leader) => {
                hpf_trace::counter_add("serve.singleflight.leader", 1);
                let response = compute();
                if response.status == 200 && response.cacheable {
                    leader.publish_shared(response.body.clone());
                }
                // Anything else: the leader guard drops unpublished and
                // the waiters recompute on their own (solo).
                response
            }
            FlightJoin::Waiter(flight) => {
                hpf_trace::counter_add("serve.singleflight.parked", 1);
                match flight.wait(&post.deadline) {
                    FlightWait::Shared(shared) => ApiResponse {
                        status: 200,
                        body: shared,
                        cacheable: true,
                    },
                    FlightWait::Solo => compute(),
                    FlightWait::Expired => {
                        hpf_trace::counter_add("serve.deadline_exceeded", 1);
                        Failure::from(ServeFailure::Deadline { stage: "coalesce" }).render(None)
                    }
                }
            }
        };
        record([kernel_metric, machine_metric]);
        response
    }

    /// Bind the request's target to `(n, procs)` through the warm caches.
    /// `parsed` is the caller's parse of an inline source, if it has one.
    fn bind_target(
        &self,
        target: Target,
        parsed: Option<&Program>,
        n: Option<i64>,
        procs: usize,
        deadline: &Deadline,
    ) -> Result<Arc<report::Bound>, ServeFailure> {
        match target {
            Target::Kernel(name) => {
                let n = n.unwrap_or(256);
                self.cache.bind_kernel(name, n, procs, deadline)
            }
            Target::Source(src) => self.cache.bind_source(src, parsed, n, procs, deadline),
        }
    }

    fn predict_value(
        aag: &appgraph::Aag,
        prediction: &Prediction,
        target: Target,
        n: Option<i64>,
        procs: usize,
        machine: Option<&str>,
    ) -> Value {
        let phases: Vec<Value> = aag
            .aaus
            .iter()
            .zip(&prediction.per_aau)
            .filter(|(_, m)| m.time() > 0.0 || m.wait > 0.0)
            .map(|(aau, m)| {
                Value::obj(vec![
                    ("label", Value::Str(aau.label.to_string())),
                    ("kind", Value::Str(kind_label(&aau.kind).into())),
                    ("metrics", metrics_value(m)),
                ])
            })
            .collect();
        let mut top: Vec<(&str, Value)> = vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("kind", Value::Str("predict".into())),
            ("target", target.describe()),
            ("procs", num(procs as f64)),
            ("predicted_s", num(prediction.total_seconds())),
            ("total", metrics_value(&prediction.total)),
            ("phases", Value::Arr(phases)),
        ];
        if let Some(n) = n {
            top.push(("n", num(n as f64)));
        }
        if let Some(m) = machine {
            top.push(("machine", Value::Str(m.to_string())));
        }
        Value::obj(top)
    }

    /// `POST /v1/predict` — per-phase predicted times for one
    /// `(target, n, procs)` point. An optional `"machine"` field selects
    /// a registered backend; the response echoes it only when the request
    /// named one, so default-machine bodies are byte-identical to the
    /// pre-registry service.
    fn predict(&self, post: &Post) -> Result<ApiResponse, Failure> {
        let _span = hpf_trace::span("serve.predict");
        let (body, deadline) = (&post.body, &post.deadline);
        let target = Target::from_body(body)?;
        let n = match body.get("n") {
            None => None,
            Some(_) => Some(ranged_field(body, "n", 0, POSITIVE)? as i64),
        };
        let procs = ranged_field(body, "procs", 8, 1..=1024)?;
        let machine_name = machine_from(body)?;
        let bound = self.bind_target(target, None, n, procs, deadline)?;
        deadline.check("calibrate")?;
        let machine =
            calibrated_machine_for(machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE), procs)?;
        // A cold calibration can take longer than the whole budget.
        deadline.check("interpret")?;
        let engine = InterpretationEngine::with_options(&machine, InterpOptions::default());
        let prediction = engine.interpret(&bound.aag);
        Ok(ApiResponse::json(
            200,
            &Self::predict_value(&bound.aag, &prediction, target, n, procs, machine_name),
        ))
    }

    /// `POST /v1/sweep` — the predicted (and optionally simulated) curve
    /// over a size range, served through the same warm bind cache so a
    /// repeated or refined sweep recompiles nothing. The DES cross-check
    /// runs under the breaker: when it is open or the simulation fails,
    /// the point is served analytic-only and the response carries
    /// `"degraded": true`.
    fn sweep(&self, post: &Post) -> Result<ApiResponse, Failure> {
        let _span = hpf_trace::span("serve.sweep");
        let (body, deadline) = (&post.body, &post.deadline);
        let target = Target::from_body(body)?;
        let procs = ranged_field(body, "procs", 8, 1..=1024)?;
        let sizes = Self::sweep_sizes(body)?;
        let simulate = matches!(body.get("simulate"), Some(Value::Bool(true)));
        let runs = ranged_field(body, "runs", 100, 1..=10_000)?;
        let machine_name = machine_from(body)?;
        let machine_id = machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE);

        // Batched evaluation: every point binds through `bind_target`,
        // under the same bind-cache keys as a predict of that point. The
        // program is resolved first — a kernel's artifact, or one parse of
        // an inline source that every point binds from — so a bad program
        // fails before the machine is checked.
        let _batch = hpf_trace::span("batch");
        hpf_trace::counter_add("serve.batch.sessions", 1);
        hpf_trace::counter_add("serve.batch.points", sizes.len() as u64);
        let (artifact, parsed) = match target {
            Target::Kernel(name) => (Some(self.cache.kernel_artifact(name)?), None),
            Target::Source(src) => (None, Some(parse_program(src).map_err(PipelineError::from)?)),
        };
        // The text the profile memo keys on: the kernel's canonical source
        // or the inline source.
        let profile_source = match &artifact {
            Some(a) => a.canonical_source(),
            None => post.source().unwrap_or_default(),
        };
        let machine = calibrated_machine_for(machine_id, procs)?;
        let engine = InterpretationEngine::with_options(&machine, InterpOptions::default());
        // The DES side of a simulated sweep: one set of machine tables and
        // one simulator for every point.
        let sim_machine = simulate
            .then(|| machine_params(machine_id, procs))
            .transpose()?;
        let simulator = sim_machine.as_ref().map(|m| {
            Simulator::with_config(
                m,
                SimConfig {
                    runs,
                    ..SimConfig::default()
                },
            )
        });
        let mut points = Vec::with_capacity(sizes.len());
        let mut degraded = false;
        for &n in &sizes {
            deadline.check("sweep_point")?;
            let bound =
                self.bind_target(target, parsed.as_ref(), Some(n as i64), procs, deadline)?;
            let prediction = engine.interpret(&bound.aag);
            let mut point: Vec<(&str, Value)> = vec![
                ("n", num(n as f64)),
                ("predicted_s", num(prediction.total_seconds())),
                ("total", metrics_value(&prediction.total)),
            ];
            if let Some(sim) = &simulator {
                deadline.check("simulate")?;
                // Profile through the process-wide memo (shared with the
                // sweep sessions and the advisor), then one seeded DES run
                // set — deterministic for a given (target, n, procs, runs).
                // The whole cross-check runs under the breaker: a panic or
                // an open breaker degrades this point to analytic-only.
                let outcome = self.breaker.call(|| {
                    if post.sim_panic {
                        panic!("chaos: injected DES cross-check panic");
                    }
                    let (profile, _) =
                        report::shared_profile(profile_source, n, 50_000_000, &bound.analyzed);
                    let result = sim.simulate(&bound.spmd, profile.as_deref());
                    (result.measured(), result.std)
                });
                match outcome {
                    BreakerOutcome::Ok((measured, std)) => {
                        point.push(("measured_s", num(measured)));
                        point.push(("measured_std_s", num(std)));
                    }
                    BreakerOutcome::Rejected | BreakerOutcome::Failed(_) => {
                        hpf_trace::counter_add("serve.degraded", 1);
                        degraded = true;
                    }
                }
            }
            points.push(Value::obj(point));
        }
        let mut top: Vec<(&str, Value)> = vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("kind", Value::Str("sweep".into())),
            ("target", target.describe()),
            ("procs", num(procs as f64)),
            ("points", Value::Arr(points)),
        ];
        if let Some(m) = machine_name {
            top.push(("machine", Value::Str(m.to_string())));
        }
        Ok(ok_or_degraded(top, degraded))
    }

    /// Sizes from either an explicit `"sizes": [..]` array or a
    /// `{"min":.., "max":..}` range object, doubled from `min` up to `max`.
    fn sweep_sizes(body: &Value) -> Result<Vec<usize>, Failure> {
        const MAX_POINTS: usize = 64;
        match body.get("sizes") {
            Some(Value::Arr(items)) => {
                let out = items
                    .iter()
                    .map(|it| small_uint(it).filter(|&n| n >= 1))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| {
                        bad_request("`sizes` entries must be small positive integers")
                    })?;
                if out.is_empty() || out.len() > MAX_POINTS {
                    return Err(bad_request(format!(
                        "`sizes` must have 1..={MAX_POINTS} entries"
                    )));
                }
                Ok(out)
            }
            Some(range @ Value::Obj(_)) => {
                let min = uint_field(range, "min", 64)?;
                let max = uint_field(range, "max", 512)?;
                if min == 0 || max < min {
                    return Err(bad_request(
                        "`sizes.min`/`sizes.max` must satisfy 1 <= min <= max",
                    ));
                }
                // Doubling sweep, the paper's Figure 4/5 convention.
                let mut out = Vec::new();
                let mut n = min;
                while n <= max && out.len() < MAX_POINTS {
                    out.push(n);
                    n *= 2;
                }
                Ok(out)
            }
            None => Err(bad_request("body needs `sizes` (array or {min,max} range)")),
            Some(_) => Err(bad_request(
                "`sizes` must be an array or a {min,max} object",
            )),
        }
    }

    /// `POST /v1/advise` — top-k directive recommendations via the
    /// hpf-advisor branch-and-bound search (deterministic across thread
    /// counts, so the response is cacheable like any other). The DES
    /// cross-validation of the top-k runs under the breaker: when it is
    /// open, the search runs without simulation (`top_k = 0` inside the
    /// advisor) and the ranked table is served analytic-only with
    /// `"degraded": true`.
    fn advise(&self, post: &Post) -> Result<ApiResponse, Failure> {
        let _span = hpf_trace::span("serve.advise");
        let body = &post.body;
        let target = Target::from_body(body)?;
        let quick = hpf_advisor::AdvisorConfig::quick();
        let mut cfg = hpf_advisor::AdvisorConfig {
            n: ranged_field(body, "n", quick.n, POSITIVE)?,
            procs: ranged_field(body, "procs", quick.procs, 1..=64)?,
            top_k: ranged_field(body, "top_k", quick.top_k, 1..=16)?,
            ..quick
        };
        post.deadline.check("advise")?;
        let machine_name = machine_from(body)?;
        let machines = Self::machines_param(body)?;
        if machine_name.is_some() && machines.is_some() {
            return Err(bad_request("give either `machine` or `machines`, not both"));
        }
        if let Some(m) = machine_name {
            cfg.machine = m.to_string();
        }

        let advisor = match target {
            Target::Kernel(name) => match self.cache.kernel_artifact(name) {
                Ok(artifact) => hpf_advisor::Advisor::for_kernel(&artifact),
                Err(_) if kernels::kernel_by_name(name).is_none() => {
                    return Err(bad_request(format!("unknown kernel `{name}`")))
                }
                Err(f) => return Err(f.into()),
            },
            Target::Source(src) => hpf_advisor::Advisor::for_source("<inline source>", src),
        }
        .map_err(Failure::Advisor)?;
        // The advisor search is already a bind-once/evaluate-many batch
        // over its candidate directive space; count it on the same batch
        // telemetry as sweeps so `/v1/advise` and `/v1/sweep` report
        // comparable evaluation work.
        let _batch = hpf_trace::span("batch");
        hpf_trace::counter_add("serve.batch.sessions", 1);
        if let Some(names) = &machines {
            return self.advise_cross(&advisor, &cfg, names, target);
        }
        let (report, degraded) = self.search_guarded(&cfg, |cfg| advisor.search(cfg));
        let report = report.map_err(Failure::Advisor)?;
        hpf_trace::counter_add("serve.batch.points", report.candidates as u64);

        let ranked: Vec<Value> = report
            .ranked
            .iter()
            .take(cfg.top_k)
            .map(|c| ranked_value(c, None))
            .collect();
        let mut top: Vec<(&str, Value)> = vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("kind", Value::Str("advise".into())),
            ("target", target.describe()),
            ("n", num(cfg.n as f64)),
            ("procs", num(cfg.procs as f64)),
            ("candidates", num(report.candidates as f64)),
            ("pruned", num(report.pruned as f64)),
            ("ranked", Value::Arr(ranked)),
        ];
        if machine_name.is_some() {
            top.push(("machine", Value::Str(report.machine.clone())));
        }
        Ok(ok_or_degraded(top, degraded))
    }

    /// Run an advisor search under the breaker. On an open breaker or a
    /// contained panic, count the degradation and rerun the same search
    /// with the simulator fanned down to zero candidates (`top_k: 0`): the
    /// analytic ranking is identical (simulation never reorders it), only
    /// the `simulated_s`/`sim_error_pct` columns disappear. Returns the
    /// result and whether it is degraded.
    fn search_guarded<R>(
        &self,
        cfg: &hpf_advisor::AdvisorConfig,
        search: impl Fn(&hpf_advisor::AdvisorConfig) -> R,
    ) -> (R, bool) {
        match self.breaker.call(|| search(cfg)) {
            BreakerOutcome::Ok(r) => (r, false),
            BreakerOutcome::Rejected | BreakerOutcome::Failed(_) => {
                hpf_trace::counter_add("serve.degraded", 1);
                let analytic = hpf_advisor::AdvisorConfig {
                    top_k: 0,
                    ..cfg.clone()
                };
                (search(&analytic), true)
            }
        }
    }

    /// The optional `"machines"` array on `/v1/advise`: every entry must
    /// name a registered backend (typed registry error otherwise).
    fn machines_param(body: &Value) -> Result<Option<Vec<&'static str>>, Failure> {
        const MAX_MACHINES: usize = 8;
        let items = match body.get("machines") {
            None => return Ok(None),
            Some(Value::Arr(items)) => items,
            Some(_) => return Err(bad_request("`machines` must be an array of machine names")),
        };
        let names = items
            .iter()
            .map(|it| match it.as_str() {
                Some(name) => registered(name),
                None => Err(bad_request("`machines` entries must be strings")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        if names.is_empty() || names.len() > MAX_MACHINES {
            return Err(bad_request(format!(
                "`machines` must have 1..={MAX_MACHINES} entries"
            )));
        }
        Ok(Some(names))
    }

    /// The cross-machine advise: one merged ranking spanning every named
    /// backend. The whole multi-machine search runs under the breaker;
    /// when it is open, every per-machine search degrades to
    /// analytic-only (`top_k = 0`) exactly like single-machine advise.
    fn advise_cross(
        &self,
        advisor: &hpf_advisor::Advisor,
        cfg: &hpf_advisor::AdvisorConfig,
        names: &[&str],
        target: Target,
    ) -> Result<ApiResponse, Failure> {
        let (report, degraded) = self.search_guarded(cfg, |cfg| advisor.search_cross(cfg, names));
        let report = report.map_err(Failure::Advisor)?;
        let candidates: usize = report.reports.iter().map(|r| r.candidates).sum();
        let pruned: usize = report.reports.iter().map(|r| r.pruned).sum();
        hpf_trace::counter_add("serve.batch.points", candidates as u64);

        let shown = cfg.top_k.saturating_mul(names.len());
        let ranked: Vec<Value> = report
            .ranked
            .iter()
            .take(shown)
            .map(|row| ranked_value(&row.candidate, Some(&row.machine)))
            .collect();
        let top: Vec<(&str, Value)> = vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("kind", Value::Str("advise".into())),
            ("target", target.describe()),
            ("n", num(report.n as f64)),
            ("procs", num(report.procs as f64)),
            (
                "machines",
                Value::Arr(names.iter().map(|m| Value::Str(m.to_string())).collect()),
            ),
            ("candidates", num(candidates as f64)),
            ("pruned", num(pruned as f64)),
            ("ranked", Value::Arr(ranked)),
        ];
        Ok(ok_or_degraded(top, degraded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn api() -> Api {
        Api::new(&CacheConfig::default())
    }

    #[test]
    fn healthz_lists_kernels() {
        let resp = api().handle(&get("/v1/healthz"));
        assert_eq!(resp.status, 200);
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        let names = v.get("kernels").and_then(Value::as_arr).unwrap();
        assert!(names.iter().any(|k| k.as_str() == Some("PI")));
    }

    #[test]
    fn predict_kernel_reports_phases() {
        let resp = api().handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 256, "procs": 4}"#,
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert!(v.get("predicted_s").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(!v.get("phases").and_then(Value::as_arr).unwrap().is_empty());
    }

    #[test]
    fn reformatted_repeat_predicts_are_byte_identical() {
        let api = api();
        let body = r#"{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4}"#;
        let a = api.handle(&post("/v1/predict", body));
        // Same request, different formatting and key order: same bytes.
        let b = api.handle(&post(
            "/v1/predict",
            "{\"procs\":4,\n  \"n\":64, \"kernel\":\"Laplace (Blk-Blk)\"}",
        ));
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body, "near-repeat must serve identical bytes");
    }

    /// An `Api` recording into an enabled recorder of the test's own.
    fn traced_api() -> (hpf_trace::Recorder, Api) {
        let rec = hpf_trace::Recorder::new();
        rec.enable();
        let api = {
            let _on = rec.install();
            api()
        };
        (rec, api)
    }

    /// One response cache, keyed by the exact request: a byte-for-byte
    /// repeat is answered from it without running a handler, and a
    /// reformatted repeat (other key order, whitespace and `deadline_ms`)
    /// is a new request that the handler answers again with the same bytes.
    /// The route is part of the identity: one body POSTed to two routes is
    /// two requests, and each repeat hits its own route's answer.
    #[test]
    fn exact_repeats_hit_the_cache_and_reformatted_ones_recompute() {
        let (rec, api) = traced_api();
        let body = r#"{"kernel": "PI", "n": 256, "procs": 4}"#;
        let a = api.handle(&post("/v1/predict", body));
        let b = api.handle(&post("/v1/predict", body));
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert!(
            Arc::ptr_eq(&a.body, &b.body),
            "a hit serves the stored body"
        );
        assert_eq!(rec.counter_get("serve.singleflight.leader"), 1);
        assert_eq!(rec.counter_get("serve.cache.miss"), 1);
        assert_eq!(rec.counter_get("serve.cache.hit"), 1);
        assert_eq!(rec.counter_get("serve.cache.wire_hit"), 1);

        let c = api.handle(&post(
            "/v1/predict",
            "{\"procs\":4,\n  \"n\":256, \"kernel\":\"PI\", \"deadline_ms\": 60000}",
        ));
        assert_eq!(
            c.body, a.body,
            "a reformatted repeat answers the same bytes"
        );
        assert_eq!(rec.counter_get("serve.singleflight.leader"), 2);
        assert_eq!(rec.counter_get("serve.cache.miss"), 2);
        assert_eq!(rec.counter_get("serve.cache.hit"), 1);

        let both = r#"{"kernel": "PI", "n": 256, "procs": 4, "sizes": [256]}"#;
        let predict = api.handle(&post("/v1/predict", both));
        let sweep = api.handle(&post("/v1/sweep", both));
        assert_eq!((predict.status, sweep.status), (200, 200));
        assert_ne!(predict.body, sweep.body, "each route answers its own way");
        assert_eq!(rec.counter_get("serve.cache.miss"), 4);
        for (path, first) in [("/v1/sweep", &sweep), ("/v1/predict", &predict)] {
            let repeat = api.handle(&post(path, both));
            assert!(Arc::ptr_eq(&repeat.body, &first.body), "{path}");
        }
        assert_eq!(rec.counter_get("serve.cache.miss"), 4);
        assert_eq!(rec.counter_get("serve.cache.hit"), 3);
    }

    /// Latency sketches exist only for names the server resolves: a
    /// client naming kernels or machines that do not exist adds none, and
    /// every spelling of a kernel feeds its canonical sketch.
    #[test]
    fn only_resolvable_names_get_latency_sketches() {
        let (rec, api) = traced_api();
        for i in 0..5 {
            for body in [
                format!(r#"{{"kernel": "NOSUCH {i}", "n": 64, "procs": 4}}"#),
                format!(r#"{{"kernel": "PI", "n": 64, "procs": 4, "machine": "nosuch{i}"}}"#),
            ] {
                assert_eq!(api.handle(&post("/v1/predict", &body)).status, 400);
            }
        }
        for body in [
            r#"{"kernel": "laplace (blk-blk)", "n": 64, "procs": 4}"#,
            r#"{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4}"#,
            r#"{"kernel": "Laplace OOC", "n": 32, "procs": 4, "machine": "torus3d"}"#,
        ] {
            let resp = api.handle(&post("/v1/predict", body));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
        let sketches: Vec<(String, u64)> = rec
            .sketches_snapshot()
            .into_iter()
            .filter(|(name, _)| {
                name.starts_with("serve.latency.kernel.")
                    || name.starts_with("serve.latency.machine.")
            })
            .map(|(name, s)| (name, s.count()))
            .collect();
        let expected = [
            ("serve.latency.kernel.Laplace (Blk-Blk)", 2),
            ("serve.latency.kernel.Laplace OOC", 1),
            // The unknown-machine 400s still name a kernel that resolves.
            ("serve.latency.kernel.PI", 5),
            ("serve.latency.machine.torus3d", 1),
        ]
        .map(|(name, count)| (name.to_string(), count));
        assert_eq!(sketches, expected);
    }

    /// An `Api` whose breaker is open for the whole test, so every
    /// breaker-guarded call is served analytic-only.
    fn open_breaker_api() -> Api {
        let api = Api {
            breaker: Breaker::new(BreakerConfig {
                failure_threshold: 1,
                latency_cap_ms: 0,
                cooldown_ms: 3_600_000,
            }),
            ..api()
        };
        // Any call is over a zero latency cap: one failure trips it.
        api.breaker
            .call(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        assert_eq!(api.breaker.state_label(), "open");
        api
    }

    /// No golden file covers a `/v1/advise` body, so both forms
    /// (`"machine"` and `"machines"`), healthy and degraded, are pinned
    /// here byte for byte by length and FNV-1a digest.
    #[test]
    fn advise_bodies_are_pinned() {
        let single = r#"{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4, "top_k": 2, "machine": "torus3d"}"#;
        let cross = r#"{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4, "top_k": 1, "machines": ["ipsc860", "multicore"]}"#;
        for (body, degraded, len, digest) in [
            (single, false, 1022, 0xf574_c89d_44ff_56c4),
            (single, true, 874, 0x0ce9_1c74_8a7e_76be),
            (cross, false, 1025, 0x6335_e0b9_23c0_8eb8),
            (cross, true, 959, 0x4cc3_0548_dca2_4a8b),
        ] {
            let api = if degraded { open_breaker_api() } else { api() };
            let resp = api.handle(&post("/v1/advise", body));
            let text = String::from_utf8_lossy(&resp.body);
            assert_eq!(resp.status, 200, "{text}");
            assert_eq!(resp.cacheable, !degraded, "{text}");
            assert_eq!(
                (
                    resp.body.len(),
                    report::fnv1a(report::FNV_OFFSET, &resp.body)
                ),
                (len, digest),
                "{body} (degraded: {degraded}) answered\n{text}"
            );
        }
    }

    #[test]
    fn malformed_source_is_a_structured_400_with_the_cli_diagnostic() {
        let src = "PROGRAM BAD\nINTEGER, PARAMETER :: N = 64\nREAL A(N)\nA(1) = +\nEND\n";
        let body = Value::obj(vec![("source", Value::Str(src.into()))]).pretty();
        let resp = api().handle(&post("/v1/predict", &body));
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("pipeline"));
        assert!(err.get("line").and_then(Value::as_f64).is_some());
        let diag = err.get("diagnostic").and_then(Value::as_str).unwrap();
        // The CLI renders the identical diagnostic for the same source.
        assert!(diag.contains('^'), "no caret in {diag:?}");
        assert!(diag.contains("A(1) = +"), "no source excerpt in {diag:?}");
    }

    #[test]
    fn expired_deadline_is_504() {
        // A zero-millisecond budget expires before the cold bind's first
        // stage; each test owns its Api, so nothing is warm yet.
        let resp = api().handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 8192, "procs": 4, "deadline_ms": 0}"#,
        ));
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("deadline")
        );
    }

    #[test]
    fn sweep_returns_a_monotone_size_curve() {
        let resp = api().handle(&post(
            "/v1/sweep",
            r#"{"kernel": "PI", "sizes": {"min": 64, "max": 256}, "procs": 4}"#,
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let points = v.get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(points.len(), 3); // 64, 128, 256
        let times: Vec<f64> = points
            .iter()
            .map(|p| p.get("predicted_s").and_then(Value::as_f64).unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn sweep_with_simulation_reports_measurements() {
        let resp = api().handle(&post(
            "/v1/sweep",
            r#"{"kernel": "PI", "sizes": [128], "procs": 4, "simulate": true, "runs": 40}"#,
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let p0 = &v.get("points").and_then(Value::as_arr).unwrap()[0];
        let predicted = p0.get("predicted_s").and_then(Value::as_f64).unwrap();
        let measured = p0.get("measured_s").and_then(Value::as_f64).unwrap();
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.5, "prediction {predicted} vs measured {measured}");
    }

    #[test]
    fn request_errors_are_structured() {
        let api = api();
        for (path, body, needle) in [
            ("/v1/predict", "not json", "valid JSON"),
            ("/v1/predict", "[1,2]", "JSON object"),
            ("/v1/predict", "{}", "`kernel` name or HPF `source`"),
            ("/v1/predict", r#"{"kernel":"PI","source":"X"}"#, "not both"),
            ("/v1/predict", r#"{"kernel":"PI","procs":0}"#, "`procs`"),
            ("/v1/sweep", r#"{"kernel":"PI"}"#, "`sizes`"),
            ("/v1/sweep", r#"{"kernel":"PI","sizes":[]}"#, "`sizes`"),
        ] {
            let resp = api.handle(&post(path, body));
            assert_eq!(resp.status, 400, "{path} {body}");
            let text = String::from_utf8(resp.body.to_vec()).unwrap();
            assert!(text.contains(needle), "{path} {body}: {text}");
        }
    }

    #[test]
    fn huge_sweep_sizes_are_request_errors() {
        // Entries past `u32::MAX` would bind as a negative or unnameable
        // N; they are request errors, like an out-of-range `n`.
        let api = api();
        for size in ["1e300", "9223372036854775807", "4294967296"] {
            let body = format!(r#"{{"kernel":"PI","sizes":[{size}],"procs":4}}"#);
            let resp = api.handle(&post("/v1/sweep", &body));
            assert_eq!(resp.status, 400, "{body}");
            let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let err = v.get("error").unwrap();
            assert_eq!(err.get("kind").and_then(Value::as_str), Some("request"));
            let message = err.get("message").and_then(Value::as_str).unwrap();
            assert!(message.contains("`sizes`"), "{body}: {message}");
        }
    }

    #[test]
    fn a_2d_kernel_at_the_largest_n_is_answered() {
        // At this N the per-node byte counts (the working set on predict,
        // a shift's payload on advise) exceed a u64 and must saturate.
        for (path, body) in [
            (
                "/v1/predict",
                r#"{"kernel":"Laplace (Blk-X)","n":4294967295,"procs":4}"#,
            ),
            (
                "/v1/advise",
                r#"{"kernel":"Laplace (X-Blk)","n":4294967295,"procs":1}"#,
            ),
        ] {
            let resp = api().handle(&post(path, body));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
    }

    #[test]
    fn predict_with_machine_echoes_and_changes_the_numbers() {
        let api = api();
        let a = api.handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 256, "procs": 4}"#,
        ));
        let b = api.handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 256, "procs": 4, "machine": "torus3d"}"#,
        ));
        assert_eq!(a.status, 200, "{}", String::from_utf8_lossy(&a.body));
        assert_eq!(b.status, 200, "{}", String::from_utf8_lossy(&b.body));
        let va = parse_json(std::str::from_utf8(&a.body).unwrap()).unwrap();
        let vb = parse_json(std::str::from_utf8(&b.body).unwrap()).unwrap();
        // Conditional echo: only the request that named a machine gets one
        // back — the default body stays byte-compatible with the
        // pre-registry service.
        assert!(va.get("machine").is_none(), "default must not echo");
        assert_eq!(vb.get("machine").and_then(Value::as_str), Some("torus3d"));
        let pa = va.get("predicted_s").and_then(Value::as_f64).unwrap();
        let pb = vb.get("predicted_s").and_then(Value::as_f64).unwrap();
        assert!(pa > 0.0 && pb > 0.0 && pa != pb, "{pa} vs {pb}");
    }

    #[test]
    fn unknown_machine_is_a_structured_400_from_the_registry() {
        let resp = api().handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 64, "procs": 4, "machine": "cm5"}"#,
        ));
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("pipeline"));
        assert_eq!(err.get("stage").and_then(Value::as_str), Some("machine"));
        let msg = err.get("message").and_then(Value::as_str).unwrap();
        assert!(msg.contains("cm5"), "{msg}");
        assert!(msg.contains("ipsc860"), "should list available: {msg}");
    }

    #[test]
    fn machine_node_range_is_enforced_as_a_structured_400() {
        // The multicore backend tops out at 128 nodes; 256 is in the
        // generic procs range but out of this machine's.
        let resp = api().handle(&post(
            "/v1/predict",
            r#"{"kernel": "PI", "n": 64, "procs": 256, "machine": "multicore"}"#,
        ));
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("stage").and_then(Value::as_str), Some("machine"));
    }

    /// A sweep over an inline source parses it once and binds every point
    /// from that parse, and a source that does not parse is reported
    /// before a `procs` the named machine cannot run.
    #[test]
    fn inline_sweeps_parse_once_and_report_parse_errors_first() {
        let source = "PROGRAM PI\nINTEGER, PARAMETER :: N = 128\nREAL F(N), PIE\n\
                      !HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE F(BLOCK) ONTO P\n\
                      FORALL (I = 1:N) F(I) = 1.0 / I\nPIE = SUM(F) / N\nEND\n";
        let (rec, api) = traced_api();
        let body = format!(
            r#"{{"source": {}, "procs": 4, "sizes": [64, 128, 256]}}"#,
            Value::Str(source.into()).pretty()
        );
        let resp = api.handle(&post("/v1/sweep", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let parses: u64 = rec
            .span_snapshot()
            .iter()
            .filter(|s| s.path.ends_with("/parse"))
            .map(|s| s.count)
            .sum();
        assert_eq!(parses, 1, "one parse for three cold binds");
        assert_eq!(rec.counter_get("serve.bind.miss"), 3);

        let resp = api.handle(&post(
            "/v1/sweep",
            r#"{"source": "PROGRAM X\nREAL A(\nEND\n", "procs": 256, "sizes": [64],
                "machine": "multicore"}"#,
        ));
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let stage = v.get("error").and_then(|e| e.get("stage"));
        assert_eq!(stage.and_then(Value::as_str), Some("parse"));
    }

    #[test]
    fn advise_machines_returns_one_merged_ranking() {
        let resp = api().handle(&post(
            "/v1/advise",
            r#"{"kernel": "Laplace (Blk-Blk)", "n": 96, "procs": 4, "top_k": 1,
                "machines": ["ipsc860", "multicore"]}"#,
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let machines = v.get("machines").and_then(Value::as_arr).unwrap();
        assert_eq!(machines.len(), 2);
        let ranked = v.get("ranked").and_then(Value::as_arr).unwrap();
        assert!(!ranked.is_empty());
        let row_machines: Vec<&str> = ranked
            .iter()
            .map(|r| r.get("machine").and_then(Value::as_str).unwrap())
            .collect();
        // The merged table is one ranking: the idealized multicore node
        // beats the 1994 hypercube, and rows are predicted-time ordered.
        assert_eq!(row_machines[0], "multicore");
        let times: Vec<f64> = ranked
            .iter()
            .map(|r| r.get("predicted_s").and_then(Value::as_f64).unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    /// A request parked behind a leader whose answer cannot be shared
    /// computes on its own once released, against the deadline it was
    /// parsed with: the budget it spent parked is gone, not restarted.
    ///
    /// The sweep is sized from its own warm time `warm` on this build: the
    /// budget is 40% of it, so all 64 points together take 2.5 budgets,
    /// one point takes 1/64 of it, and the answer must come within the
    /// budget plus 8 points' work. A waiter that started a fresh budget on
    /// release would answer after about 1.9 budgets.
    #[test]
    fn a_waiter_released_solo_keeps_its_own_deadline() {
        use std::time::Instant;
        let (rec, api) = traced_api();
        let sizes: Vec<String> = (32..96).map(|n| n.to_string()).collect();
        let sweep = |runs: usize, extra: &str| {
            format!(
                r#"{{"kernel": "Laplace (Blk-Blk)", "sizes": [{}], "procs": 4, "simulate": true, "runs": {runs}{extra}}}"#,
                sizes.join(", ")
            )
        };
        let timed = |body: &str| {
            let t0 = Instant::now();
            let resp = api.handle(&post("/v1/sweep", body));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            t0.elapsed()
        };
        // The first sweep binds every point and fills the calibration and
        // profile memos; the runs are then scaled so the warm sweep takes
        // about a second. Each body differs, so none is a cache hit.
        timed(&sweep(20, ""));
        let probe = timed(&sweep(20, r#", "deadline_ms": 3600000"#));
        let runs = ((20.0 * 2.0 / probe.as_secs_f64()) as usize).clamp(20, 10_000);
        let warm = timed(&sweep(runs, ""));
        let budget = warm * 2 / 5;
        let body = sweep(runs, &format!(r#", "deadline_ms": {}"#, budget.as_millis()));
        let FlightJoin::Leader(leader) = api.cache.join_flight(&response_key("/v1/sweep", &body))
        else {
            panic!("nothing else is in flight");
        };
        let (resp, took) = std::thread::scope(|s| {
            let (api, body, start) = (&api, &body, Instant::now());
            let waiter = s.spawn(move || {
                let resp = api.handle(&post("/v1/sweep", body));
                (resp, start.elapsed())
            });
            std::thread::sleep(budget * 9 / 10);
            drop(leader);
            waiter.join().expect("the waiter answers")
        });
        let limit = budget + warm / 8;
        println!(
            "{runs} runs: warm sweep {warm:?}, budget {budget:?}, answered {} after {took:?}",
            resp.status
        );
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
        assert!(
            took < limit,
            "answered after {took:?}: budget {budget:?}, warm sweep {warm:?}"
        );
        assert_eq!(
            rec.counter_get("serve.singleflight.parked"),
            1,
            "the request parked behind the held flight"
        );
    }

    #[test]
    fn unknown_route_and_method_are_404_405() {
        let api = api();
        assert_eq!(api.handle(&get("/nope")).status, 404);
        assert_eq!(api.handle(&get("/v1/predict")).status, 405);
        assert_eq!(api.handle(&post("/v1/healthz", "")).status, 405);
    }
}

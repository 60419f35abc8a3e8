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
use std::sync::{Arc, OnceLock};

use hpf_lang::ast::Program;
use hpf_lang::parse_program;
use hpf_trace::json::{parse as parse_json, Value};
use interp::{InterpOptions, InterpretationEngine, Prediction};
use ipsc_sim::{SimConfig, Simulator};
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

/// Per-request context threaded from routing into the handlers: the
/// chaos injection flags the handler honors when chaos is enabled.
#[derive(Debug, Default, Clone, Copy)]
struct ReqCtx {
    /// Panic inside the breaker-guarded DES cross-check.
    sim_panic: bool,
}

/// The service's request handler: routing plus the warm cache stack.
///
/// An `Api` records its traces into the recorder that was current on the
/// thread that built it, whichever thread calls [`Api::handle`].
#[derive(Debug)]
pub struct Api {
    cache: ServeCache,
    breaker: Breaker,
    status: Arc<ServiceStatus>,
    /// Streaming metrics: the recorder, windowed rates + the `?since=`
    /// cursor ring.
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

/// The structured 400/504 body for a failed evaluation.
fn failure_value(f: &ServeFailure, source: Option<&str>) -> (u16, Value) {
    match f {
        ServeFailure::Pipeline(e) => (400, pipeline_error_value(e, source)),
        ServeFailure::Deadline { stage } => (
            504,
            error_value(
                "deadline",
                f.to_string(),
                [("stage", Value::Str((*stage).into()))],
            ),
        ),
    }
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

fn bad_request(message: impl Into<String>) -> ApiResponse {
    ApiResponse::json(400, &error_value("request", message, []))
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
/// inline HPF source.
enum Target {
    Kernel(String),
    Source(String),
}

impl Target {
    fn from_body(body: &Value) -> Result<Target, ApiResponse> {
        match (body.get("kernel"), body.get("source")) {
            (Some(_), Some(_)) => Err(bad_request("give either `kernel` or `source`, not both")),
            (Some(k), None) => match k.as_str() {
                Some(name) => Ok(Target::Kernel(name.to_string())),
                None => Err(bad_request("`kernel` must be a string")),
            },
            (None, Some(s)) => match s.as_str() {
                Some(src) => Ok(Target::Source(src.to_string())),
                None => Err(bad_request("`source` must be a string")),
            },
            (None, None) => Err(bad_request("body needs a `kernel` name or HPF `source`")),
        }
    }

    fn source_text(&self) -> Option<&str> {
        match self {
            Target::Kernel(_) => None,
            Target::Source(s) => Some(s.as_str()),
        }
    }

    fn describe(&self) -> Value {
        match self {
            Target::Kernel(name) => Value::Str(name.clone()),
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

fn uint_field(body: &Value, key: &str, default: usize) -> Result<usize, ApiResponse> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => small_uint(v)
            .ok_or_else(|| bad_request(format!("`{key}` must be a small non-negative integer"))),
    }
}

/// `deadline_ms` absent = no deadline; present (including 0) = a budget
/// of that many milliseconds, enforced between pipeline stages.
fn deadline_from(body: &Value) -> Result<Deadline, ApiResponse> {
    match body.get("deadline_ms") {
        None => Ok(Deadline::none()),
        Some(_) => Ok(Deadline::in_ms(uint_field(body, "deadline_ms", 0)? as u64)),
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

/// The optional `"machine"` body field: absent means the default backend
/// (and the response does not echo a machine), present means the named
/// registry backend. An unknown name is the registry's typed
/// `TopologyError`, surfaced as the same structured 400 pipeline body the
/// CLI diagnostics map to (stage `machine`).
fn machine_from(body: &Value, source: Option<&str>) -> Result<Option<&'static str>, ApiResponse> {
    match body.get("machine") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(name) => match hpf_machines::machine(name) {
                Ok(backend) => Ok(Some(backend.name)),
                Err(e) => {
                    let err = PipelineError::from(e);
                    Err(ApiResponse::json(400, &pipeline_error_value(&err, source)))
                }
            },
            None => Err(bad_request("`machine` must be a string")),
        },
    }
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

    /// The streaming-metrics layer, shared with the server loops so shed
    /// and panic events feed the windowed rates.
    pub fn serve_metrics(&self) -> &ServeMetrics {
        &self.metrics
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
            self.metrics.note_request(resp.status);
        }
        resp
    }

    fn dispatch(&self, req: &Request) -> ApiResponse {
        let ctx = self.chaos_ctx(req);
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => self.healthz(),
            ("POST", "/v1/predict") => self.cached_post(req, ctx, Route::Predict, Self::predict),
            ("POST", "/v1/sweep") => self.cached_post(req, ctx, Route::Sweep, Self::sweep),
            ("POST", "/v1/advise") => self.cached_post(req, ctx, Route::Advise, Self::advise),
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

    /// Interpret the chaos header (only when chaos is enabled). The
    /// `handler` variant panics right here, inside the routed request —
    /// the worker's panic isolation must turn it into a structured 500
    /// without shrinking the pool.
    fn chaos_ctx(&self, req: &Request) -> ReqCtx {
        if !self.chaos {
            return ReqCtx::default();
        }
        match req.header(CHAOS_HEADER) {
            Some("handler") => panic!("chaos: injected handler panic"),
            Some("sim") => ReqCtx { sim_panic: true },
            _ => ReqCtx::default(),
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
    /// `hpf-serve-metrics/v1` document (counter totals, windowed rates,
    /// latency sketches, and the embedded `hpf-trace/v1` export), stamped
    /// with a fresh `cursor`. With `?since=<cursor>`: per-counter and
    /// per-sketch deltas against that cursor's snapshot (`"reset": true`
    /// totals when the cursor has aged out of the ring).
    fn metrics(&self, req: &Request) -> ApiResponse {
        let doc = match req.query_param("since") {
            None => self.metrics.export_full(),
            Some(raw) => match raw.parse::<u64>() {
                Ok(since) => self.metrics.export_delta(since),
                Err(_) => return bad_request("`since` must be an unsigned integer cursor"),
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
    /// that depends on transient service state. Parked waiters honor their
    /// own deadlines: a budget that expires while parked answers 504
    /// (stage `coalesce`) without waiting out the leader.
    ///
    /// A deadline that is already dead when the body is parsed
    /// short-circuits to 504 here — before any pipeline stage runs, so an
    /// overloaded client's expired work costs one JSON parse and nothing
    /// more.
    fn cached_post(
        &self,
        req: &Request,
        ctx: ReqCtx,
        route: Route,
        handler: fn(&Api, &Value, ReqCtx) -> ApiResponse,
    ) -> ApiResponse {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(_) => return bad_request("body is not UTF-8"),
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
        let body = match parse_json(text) {
            Ok(v @ Value::Obj(_)) => v,
            Ok(_) => return bad_request("body must be a JSON object"),
            Err(e) => return bad_request(format!("body is not valid JSON: {e}")),
        };
        let deadline = match deadline_from(&body) {
            Ok(deadline) => {
                if let Err(f) = deadline.check("parse") {
                    let source = body.get("source").and_then(Value::as_str);
                    let (status, value) = failure_value(&f, source);
                    return ApiResponse::json(status, &value);
                }
                deadline
            }
            Err(resp) => return resp,
        };
        hpf_trace::counter_add("serve.cache.miss", 1);
        let kernel_metric = body
            .get("kernel")
            .and_then(Value::as_str)
            .and_then(kernel_metric_name);
        let machine_metric = body
            .get("machine")
            .and_then(Value::as_str)
            .and_then(machine_metric_name);
        let flight = self.cache.join_flight(&response_key(&req.path, text));
        // Run the handler and store a cacheable 200 (one store per
        // request at most).
        let compute = || {
            let response = handler(self, &body, ctx);
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
                match flight.wait(&deadline) {
                    FlightWait::Shared(shared) => ApiResponse {
                        status: 200,
                        body: shared,
                        cacheable: true,
                    },
                    FlightWait::Solo => compute(),
                    FlightWait::Expired => {
                        hpf_trace::counter_add("serve.deadline_exceeded", 1);
                        let f = ServeFailure::Deadline { stage: "coalesce" };
                        let source = body.get("source").and_then(Value::as_str);
                        let (status, value) = failure_value(&f, source);
                        ApiResponse::json(status, &value)
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
        target: &Target,
        parsed: Option<&Program>,
        n: Option<i64>,
        procs: usize,
        deadline: &Deadline,
    ) -> Result<std::sync::Arc<report::Bound>, ServeFailure> {
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
        target: &Target,
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
    fn predict(&self, body: &Value, _ctx: ReqCtx) -> ApiResponse {
        let _span = hpf_trace::span("serve.predict");
        let target = match Target::from_body(body) {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        let (n, procs, deadline) = match Self::point_params(body) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let machine_name = match machine_from(body, target.source_text()) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let bound = match self.bind_target(&target, None, n, procs, &deadline) {
            Ok(b) => b,
            Err(f) => {
                let (status, value) = failure_value(&f, target.source_text());
                return ApiResponse::json(status, &value);
            }
        };
        if let Err(f) = deadline.check("calibrate") {
            let (status, value) = failure_value(&f, target.source_text());
            return ApiResponse::json(status, &value);
        }
        let machine = match report::pipeline::calibrated_machine_for(
            machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE),
            procs,
        ) {
            Ok(m) => m,
            Err(e) => {
                return ApiResponse::json(400, &pipeline_error_value(&e, target.source_text()))
            }
        };
        // A cold calibration can take longer than the whole budget.
        if let Err(f) = deadline.check("interpret") {
            let (status, value) = failure_value(&f, target.source_text());
            return ApiResponse::json(status, &value);
        }
        let engine = InterpretationEngine::with_options(&machine, InterpOptions::default());
        let prediction = engine.interpret(&bound.aag);
        ApiResponse::json(
            200,
            &Self::predict_value(&bound.aag, &prediction, &target, n, procs, machine_name),
        )
    }

    fn point_params(body: &Value) -> Result<(Option<i64>, usize, Deadline), ApiResponse> {
        let n = match body.get("n") {
            None => None,
            Some(_) => match uint_field(body, "n", 0)? {
                0 => return Err(bad_request("`n` must be positive")),
                n => Some(n as i64),
            },
        };
        let procs = uint_field(body, "procs", 8)?;
        if !(1..=1024).contains(&procs) {
            return Err(bad_request("`procs` must be between 1 and 1024"));
        }
        Ok((n, procs, deadline_from(body)?))
    }

    /// `POST /v1/sweep` — the predicted (and optionally simulated) curve
    /// over a size range, served through the same warm bind cache so a
    /// repeated or refined sweep recompiles nothing. The DES cross-check
    /// runs under the breaker: when it is open or the simulation fails,
    /// the point is served analytic-only and the response carries
    /// `"degraded": true`.
    fn sweep(&self, body: &Value, ctx: ReqCtx) -> ApiResponse {
        let _span = hpf_trace::span("serve.sweep");
        let target = match Target::from_body(body) {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        let procs = match uint_field(body, "procs", 8) {
            Ok(p) if (1..=1024).contains(&p) => p,
            Ok(_) => return bad_request("`procs` must be between 1 and 1024"),
            Err(resp) => return resp,
        };
        let deadline = match deadline_from(body) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        let sizes = match Self::sweep_sizes(body) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let simulate = matches!(body.get("simulate"), Some(Value::Bool(true)));
        let sim_runs = match uint_field(body, "runs", 100) {
            Ok(r) if (1..=10_000).contains(&r) => r,
            Ok(_) => return bad_request("`runs` must be between 1 and 10000"),
            Err(resp) => return resp,
        };
        let machine_name = match machine_from(body, target.source_text()) {
            Ok(m) => m,
            Err(resp) => return resp,
        };

        // Batched evaluation: every point binds through `bind_target`,
        // under the same bind-cache keys as a predict of that point. The
        // program is resolved first — a kernel's artifact, or one parse of
        // an inline source that every point binds from — so a bad program
        // fails before the machine is checked.
        let _batch = hpf_trace::span("batch");
        hpf_trace::counter_add("serve.batch.sessions", 1);
        hpf_trace::counter_add("serve.batch.points", sizes.len() as u64);
        let program = match &target {
            Target::Kernel(name) => self.cache.kernel_artifact(name).map(|a| (Some(a), None)),
            Target::Source(src) => parse_program(src)
                .map(|p| (None, Some(p)))
                .map_err(|e| ServeFailure::Pipeline(e.into())),
        };
        let (artifact, parsed) = match program {
            Ok(p) => p,
            Err(f) => {
                let (status, value) = failure_value(&f, target.source_text());
                return ApiResponse::json(status, &value);
            }
        };
        // The text the profile memo keys on: the kernel's canonical source
        // or the inline source.
        let profile_source = match &artifact {
            Some(a) => a.canonical_source(),
            None => target.source_text().unwrap_or_default(),
        };
        let machine = match report::pipeline::calibrated_machine_for(
            machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE),
            procs,
        ) {
            Ok(m) => m,
            Err(e) => {
                return ApiResponse::json(400, &pipeline_error_value(&e, target.source_text()))
            }
        };
        let engine = InterpretationEngine::with_options(&machine, InterpOptions::default());
        let mut points = Vec::with_capacity(sizes.len());
        let mut degraded = false;
        for &n in &sizes {
            if let Err(f) = deadline.check("sweep_point") {
                let (status, value) = failure_value(&f, target.source_text());
                return ApiResponse::json(status, &value);
            }
            let bound = match self.bind_target(
                &target,
                parsed.as_ref(),
                Some(n as i64),
                procs,
                &deadline,
            ) {
                Ok(b) => b,
                Err(f) => {
                    let (status, value) = failure_value(&f, target.source_text());
                    return ApiResponse::json(status, &value);
                }
            };
            let prediction = engine.interpret(&bound.aag);
            let mut point: Vec<(&str, Value)> = vec![
                ("n", num(n as f64)),
                ("predicted_s", num(prediction.total_seconds())),
                ("total", metrics_value(&prediction.total)),
            ];
            if simulate {
                if let Err(f) = deadline.check("simulate") {
                    let (status, value) = failure_value(&f, target.source_text());
                    return ApiResponse::json(status, &value);
                }
                // Profile through the process-wide memo (shared with the
                // sweep sessions and the advisor), then one seeded DES run
                // set — deterministic for a given (target, n, procs, runs).
                // The whole cross-check runs under the breaker: a panic or
                // an open breaker degrades this point to analytic-only.
                let sim_panic = ctx.sim_panic;
                let sim_machine_name = machine_name.unwrap_or(hpf_machines::DEFAULT_MACHINE);
                let outcome = self.breaker.call(|| {
                    if sim_panic {
                        panic!("chaos: injected DES cross-check panic");
                    }
                    let (profile, _) =
                        report::shared_profile(profile_source, n, 50_000_000, &bound.analyzed);
                    let sim_machine = report::pipeline::machine_params(sim_machine_name, procs)
                        .expect("machine validated before the sweep loop");
                    let sim = Simulator::with_config(
                        &sim_machine,
                        SimConfig {
                            runs: sim_runs,
                            ..SimConfig::default()
                        },
                    );
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
                        self.metrics.note_degraded();
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
        ok_or_degraded(top, degraded)
    }

    /// Sizes from either an explicit `"sizes": [..]` array or a
    /// `{"min":.., "max":..}` range object, doubled from `min` up to `max`.
    fn sweep_sizes(body: &Value) -> Result<Vec<usize>, ApiResponse> {
        const MAX_POINTS: usize = 64;
        match body.get("sizes") {
            Some(Value::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for it in items {
                    match small_uint(it) {
                        Some(n) if n >= 1 => out.push(n),
                        _ => {
                            return Err(bad_request(
                                "`sizes` entries must be small positive integers",
                            ))
                        }
                    }
                }
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
    fn advise(&self, body: &Value, _ctx: ReqCtx) -> ApiResponse {
        let _span = hpf_trace::span("serve.advise");
        let target = match Target::from_body(body) {
            Ok(t) => t,
            Err(resp) => return resp,
        };
        let mut cfg = hpf_advisor::AdvisorConfig::quick();
        cfg.n = match uint_field(body, "n", cfg.n) {
            Ok(n) if n >= 1 => n,
            Ok(_) => return bad_request("`n` must be positive"),
            Err(resp) => return resp,
        };
        cfg.procs = match uint_field(body, "procs", cfg.procs) {
            Ok(p) if (1..=64).contains(&p) => p,
            Ok(_) => return bad_request("`procs` must be between 1 and 64"),
            Err(resp) => return resp,
        };
        cfg.top_k = match uint_field(body, "top_k", cfg.top_k) {
            Ok(k) if (1..=16).contains(&k) => k,
            Ok(_) => return bad_request("`top_k` must be between 1 and 16"),
            Err(resp) => return resp,
        };
        let deadline = match deadline_from(body) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        if let Err(f) = deadline.check("advise") {
            let (status, value) = failure_value(&f, target.source_text());
            return ApiResponse::json(status, &value);
        }
        let machine_name = match machine_from(body, target.source_text()) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let machines_list = match Self::machines_param(body, target.source_text()) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        if machine_name.is_some() && machines_list.is_some() {
            return bad_request("give either `machine` or `machines`, not both");
        }
        if let Some(m) = machine_name {
            cfg.machine = m.to_string();
        }

        let advisor = match &target {
            Target::Kernel(name) => match self.cache.kernel_artifact(name) {
                Ok(artifact) => hpf_advisor::Advisor::for_kernel(&artifact),
                Err(_) if kernels::kernel_by_name(name).is_none() => {
                    return bad_request(format!("unknown kernel `{name}`"))
                }
                Err(f) => {
                    let (status, value) = failure_value(&f, None);
                    return ApiResponse::json(status, &value);
                }
            },
            Target::Source(src) => hpf_advisor::Advisor::for_source("<inline source>", src),
        };
        let advisor = match advisor {
            Ok(a) => a,
            Err(e) => {
                let source = target.source_text().unwrap_or("");
                return ApiResponse::json(400, &pipeline_error_value(&e, Some(source)));
            }
        };
        // The advisor search is already a bind-once/evaluate-many batch
        // over its candidate directive space; count it on the same batch
        // telemetry as sweeps so `/v1/advise` and `/v1/sweep` report
        // comparable evaluation work.
        let _batch = hpf_trace::span("batch");
        hpf_trace::counter_add("serve.batch.sessions", 1);
        if let Some(names) = &machines_list {
            return self.advise_cross(&advisor, &cfg, names, &target);
        }
        let (report, degraded) = self.search_guarded(&cfg, |cfg| advisor.search(cfg));
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                let source = target.source_text().unwrap_or("");
                return ApiResponse::json(400, &pipeline_error_value(&e, Some(source)));
            }
        };
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
        ok_or_degraded(top, degraded)
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
                self.metrics.note_degraded();
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
    fn machines_param(
        body: &Value,
        source: Option<&str>,
    ) -> Result<Option<Vec<String>>, ApiResponse> {
        const MAX_MACHINES: usize = 8;
        match body.get("machines") {
            None => Ok(None),
            Some(Value::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for it in items {
                    let name = match it.as_str() {
                        Some(n) => n,
                        None => return Err(bad_request("`machines` entries must be strings")),
                    };
                    if let Err(e) = hpf_machines::machine(name) {
                        let err = PipelineError::from(e);
                        return Err(ApiResponse::json(400, &pipeline_error_value(&err, source)));
                    }
                    out.push(name.to_string());
                }
                if out.is_empty() || out.len() > MAX_MACHINES {
                    return Err(bad_request(format!(
                        "`machines` must have 1..={MAX_MACHINES} entries"
                    )));
                }
                Ok(Some(out))
            }
            Some(_) => Err(bad_request("`machines` must be an array of machine names")),
        }
    }

    /// The cross-machine advise: one merged ranking spanning every named
    /// backend. The whole multi-machine search runs under the breaker;
    /// when it is open, every per-machine search degrades to
    /// analytic-only (`top_k = 0`) exactly like single-machine advise.
    fn advise_cross(
        &self,
        advisor: &hpf_advisor::Advisor,
        cfg: &hpf_advisor::AdvisorConfig,
        names: &[String],
        target: &Target,
    ) -> ApiResponse {
        let (report, degraded) = self.search_guarded(cfg, |cfg| advisor.search_cross(cfg, names));
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                let source = target.source_text().unwrap_or("");
                return ApiResponse::json(400, &pipeline_error_value(&e, Some(source)));
            }
        };
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
                Value::Arr(names.iter().map(|m| Value::Str(m.clone())).collect()),
            ),
            ("candidates", num(candidates as f64)),
            ("pruned", num(pruned as f64)),
            ("ranked", Value::Arr(ranked)),
        ];
        ok_or_degraded(top, degraded)
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

    #[test]
    fn unknown_route_and_method_are_404_405() {
        let api = api();
        assert_eq!(api.handle(&get("/nope")).status, 404);
        assert_eq!(api.handle(&get("/v1/predict")).status, 405);
        assert_eq!(api.handle(&post("/v1/healthz", "")).status, 405);
    }
}

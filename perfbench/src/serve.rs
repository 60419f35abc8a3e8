//! `serve_warm` and `serve_cold`: an in-process `hpf-serve` server with
//! one worker, driven over a real socket by one client connection in a
//! closed loop. The benchmark drives `hpf_serve::start` from its own
//! client loop (not `loadgen::run`, which turns tracing on), so the
//! untraced run measures the service with tracing off.
//!
//! * `serve_warm` — the load generator's request mix
//!   (`loadgen::request_at`), the client pipelining bursts of [`BURST`]
//!   requests, [`IN_FLIGHT`] bursts at a time. Nearly every request is a
//!   response-cache hit.
//! * `serve_cold` — every request body is distinct ([`ColdReq`]), one
//!   request in flight, so every request misses the wire memo and the
//!   body cache and does real pipeline work.
//!
//! Rates and percentiles are taken over the whole measured interval.
//!
//! The traced run adds two single-threaded replays through a fresh
//! [`Api`] — one traced for the layer split read from the program's own
//! spans and counters, one untraced for `Api::handle` time — and reads
//! the cache counters from `GET /v1/metrics` over the traced part of the
//! live traffic.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use hpf_compiler::CompileOptions;
use hpf_serve::http::Request;
use hpf_serve::{Api, CacheConfig, ServerConfig, ServerHandle};
use hpf_trace::json::{parse as parse_json, Value};
use kernels::{CompiledKernel, Kernel};
use report::experiments::SweepConfig;
use report::SweepSession;

use crate::os::peak_rss_mb;
use crate::stats::{fnv1a, latency_ms, median, splitmix64};
use crate::{Args, Outcome};

/// Server worker threads, and client connections. The process runs on
/// one CPU, so a second worker adds no capacity; with two workers and two
/// pipelining clients sharing that CPU, how the scheduler interleaved the
/// four threads decided how many requests each wake-up served, and
/// `serve_warm`'s throughput moved by almost half between sets of runs.
const WORKERS: usize = 1;
const CLIENTS: usize = 1;
/// `serve_warm`: requests per pipelined burst.
const BURST: usize = 32;
/// `serve_warm`: bursts the client keeps in flight, so that the worker
/// finds the next burst queued when it finishes one and never waits for
/// its client to wake up.
const IN_FLIGHT: usize = 2;
/// Latency samples kept per client.
const RESERVOIR: usize = 1 << 16;
/// `serve_warm`: the mix is drawn from this many leading indices.
const WARM_RING: usize = 4096;
/// Requests in each single-threaded replay of the traced run.
const WARM_REPLAY: usize = 20_000;
const COLD_REPLAY: usize = 1_000;
/// `serve_warm`'s traced run: untraced and traced segments, in pairs
/// whose order alternates, so that drift in the host's speed cancels out
/// of `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;

const PROCS: [usize; 4] = [1, 2, 4, 8];
/// Simulated runs behind the `serve_warm` accuracy reference.
const REF_SIM_RUNS: usize = 50;
const REF_STEP_LIMIT: u64 = 500_000_000;

// ---------------------------------------------------------------------
// Server and client plumbing
// ---------------------------------------------------------------------

/// A running in-process server, shut down and joined on drop.
pub struct Server {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
}

impl Server {
    fn start() -> Server {
        let handle = hpf_serve::start(
            "127.0.0.1:0",
            ServerConfig {
                workers: WORKERS,
                queue_depth: 2 * CLIENTS,
                ..ServerConfig::default()
            },
        )
        .expect("bind a localhost port");
        Server {
            addr: handle.addr(),
            handle: Some(handle),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.wait();
        }
    }
}

fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// A fresh handler with the server's cache shard count.
fn fresh_api() -> Api {
    Api::new(&CacheConfig {
        shards: WORKERS,
        ..CacheConfig::default()
    })
}

/// One keep-alive client connection with a lean response reader: status
/// and body only, the body into a reused buffer. (`http::read_response`
/// allocates per header, which at ~500k responses/s would load the client
/// more than the server.)
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 << 10, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read one response; its body is left in `self.body`.
    fn recv(&mut self) -> std::io::Result<u16> {
        let bad = |m: &str| std::io::Error::other(m.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("eof before status line"));
        }
        let status = match self.line.split_whitespace().nth(1) {
            Some(s) if self.line.starts_with("HTTP/1.") => {
                s.parse::<u16>().map_err(|_| bad("bad status"))?
            }
            _ => return Err(bad("malformed status line")),
        };
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("eof inside headers"));
            }
            let h = self.line.trim_end_matches(['\r', '\n']);
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    fn roundtrip(&mut self, bytes: &[u8]) -> std::io::Result<u16> {
        self.send(bytes)?;
        self.recv()
    }
}

/// Send set-up requests one at a time on a fresh connection; each must
/// answer 200.
fn send_all(addr: SocketAddr, requests: &[(&str, String)]) {
    let mut conn = Conn::open(addr).expect("connect to the server");
    for (path, body) in requests {
        let status = conn
            .roundtrip(&raw_request(path, body))
            .expect("set-up request");
        assert_eq!(
            status,
            200,
            "set-up request {path} {body}: {}",
            String::from_utf8_lossy(&conn.body)
        );
    }
}

/// The server's counter totals from `GET /v1/metrics`.
fn metrics_counters(addr: SocketAddr) -> BTreeMap<String, f64> {
    let mut conn = Conn::open(addr).expect("connect to the server");
    let status = conn
        .roundtrip(b"GET /v1/metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("metrics scrape");
    assert_eq!(status, 200, "metrics scrape");
    let doc =
        parse_json(std::str::from_utf8(&conn.body).expect("UTF-8 metrics")).expect("metrics JSON");
    doc.get("counters")
        .and_then(Value::as_obj)
        .map(|c| {
            c.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// The measured interval: `seconds` from `start`.
struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    /// Seconds since the start at `now`; `None` once the interval is over.
    fn at(&self, now: Instant) -> Option<f64> {
        let s = (now - self.start).as_secs_f64();
        (s < self.seconds).then_some(s)
    }

    fn running(&self) -> bool {
        self.at(Instant::now()).is_some()
    }
}

/// What the clients saw: every response, those completed inside the
/// interval and when the last of them completed, and a uniform sample of
/// their latencies in fixed, preallocated memory (reservoir sampling), so
/// the client's buffers neither grow with throughput nor move the
/// measured memory.
struct Live {
    responses: u64,
    timed: u64,
    last_s: f64,
    lat_ns: Vec<u32>,
    /// Reservoir draws.
    rng: u64,
}

impl Live {
    fn new(client: usize) -> Live {
        Live {
            responses: 0,
            timed: 0,
            last_s: 0.0,
            lat_ns: Vec::with_capacity(RESERVOIR),
            rng: client as u64,
        }
    }

    /// Count a response to a request sent at `sent`; its latency if it
    /// completed inside the interval.
    fn record(&mut self, clock: &Clock, sent: Instant) -> Option<u32> {
        let now = Instant::now();
        self.responses += 1;
        let at = clock.at(now)?;
        let lat = u32::try_from((now - sent).as_nanos()).unwrap_or(u32::MAX);
        self.timed += 1;
        self.last_s = at;
        if self.lat_ns.len() < RESERVOIR {
            self.lat_ns.push(lat);
        } else {
            self.rng = splitmix64(self.rng);
            let slot = (self.rng % self.timed) as usize;
            if slot < RESERVOIR {
                self.lat_ns[slot] = lat;
            }
        }
        Some(lat)
    }

    /// The clients' runs as one.
    fn merge(lives: Vec<Live>) -> Live {
        lives
            .into_iter()
            .reduce(|mut all, other| {
                all.responses += other.responses;
                all.timed += other.timed;
                all.last_s = all.last_s.max(other.last_s);
                all.lat_ns.extend(other.lat_ns);
                all
            })
            .expect("at least one client")
    }

    /// Responses per second, from the start to the last response inside
    /// the interval.
    fn ops_per_s(&self) -> f64 {
        self.timed as f64 / self.last_s
    }

    /// p50 and p99 in ms over the latency sample.
    fn latency_ms(&self) -> (f64, f64) {
        latency_ms(&mut self.lat_ns.clone())
    }
}

/// Run `client(c, clock)` on [`CLIENTS`] threads released together at
/// the clock's start, for `seconds`.
fn drive<R: Send>(seconds: f64, client: impl Fn(usize, &Clock) -> R + Sync) -> Vec<R> {
    let barrier = Barrier::new(CLIENTS + 1);
    let clock = std::sync::OnceLock::new();
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, barrier, clock) = (&client, &barrier, &clock);
                s.spawn(move || {
                    barrier.wait();
                    client(c, clock.get().expect("clock set before release"))
                })
            })
            .collect();
        let _ = clock.set(Clock {
            start: Instant::now(),
            seconds,
        });
        barrier.wait();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    })
}

// ---------------------------------------------------------------------
// Traced-run replays
// ---------------------------------------------------------------------

/// The program's existing spans, by the layer they time.
const SPAN_LAYERS: [(&str, &str); 8] = [
    ("parse", "hpf-lang.parse"),
    ("sema", "hpf-lang.analyze"),
    ("compile", "hpf-compiler.compile"),
    ("build_aag", "appgraph.build_aag"),
    ("interpret", "interp.interpret"),
    ("profile", "hpf-eval.run"),
    ("simulate", "ipsc-sim.simulate"),
    ("advisor", "hpf-advisor.advise"),
];

/// Traced replay of `requests` through a fresh `Api` (after an untraced
/// `warmup`): the layer split from the program's spans and counters. A
/// span counts toward its layer unless it nests in a span of the same
/// name. Toward `attributed_frac` it counts only on the request's own
/// thread (under a `serve.*` span), outside any other layer's span: the
/// advisor's helper threads work inside its span's wall time.
fn replay_layers(out: &mut Outcome, warmup: &[Request], requests: &[Request]) {
    let api = fresh_api();
    for r in warmup {
        api.handle(r);
    }
    hpf_trace::reset();
    hpf_trace::enable();
    let t = Instant::now();
    for r in requests {
        std::hint::black_box(api.handle(r));
    }
    let handle_ns = t.elapsed().as_nanos() as f64;
    hpf_trace::disable();

    let ops = requests.len() as f64;
    let mut attributed_ns = 0u64;
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for span in hpf_trace::span_snapshot() {
        let parts: Vec<&str> = span.path.split('/').collect();
        let (leaf, ancestors) = parts.split_last().expect("non-empty span path");
        let Some(&(_, layer)) = SPAN_LAYERS.iter().find(|(name, _)| name == leaf) else {
            continue;
        };
        if !ancestors.contains(leaf) {
            *layer_ns.entry(layer).or_default() += span.total_ns;
        }
        if ancestors
            .first()
            .is_some_and(|root| root.starts_with("serve."))
            && !ancestors
                .iter()
                .any(|a| SPAN_LAYERS.iter().any(|(name, _)| name == a))
        {
            attributed_ns += span.total_ns;
        }
    }
    let advises = requests.iter().filter(|r| r.path == "/v1/advise").count();
    for (_, layer) in SPAN_LAYERS {
        let ns = layer_ns.get(layer).copied().unwrap_or(0) as f64;
        if layer == "hpf-advisor.advise" {
            out.put_layer(layer, "ms_per_req", ns / 1e6 / advises.max(1) as f64);
        } else {
            out.put_layer(layer, "ms_per_op", ns / 1e6 / ops);
        }
    }
    out.put("attributed_frac", attributed_ns as f64 / handle_ns);
    let counter = |name: &str| hpf_trace::counter_get(name) as f64;
    out.put("interp.aaus_per_op", counter("interp.aaus") / ops);
    out.put("ipsc-sim.events_per_op", counter("sim.events") / ops);
    let routes = counter("sim.route_cache_hit") + counter("sim.route_cache_miss");
    out.put(
        "ipsc-sim.route_cache_hit_ratio",
        counter("sim.route_cache_hit") / routes.max(1.0),
    );
    out.put(
        "hpf-advisor.pruned_frac",
        counter("advisor.pruned") / counter("advisor.candidates").max(1.0),
    );
}

/// Untraced replay of `requests` through a fresh `Api` (after `warmup`):
/// `Api::handle` time per request, in microseconds.
fn replay_handle(out: &mut Outcome, warmup: &[Request], requests: &[Request]) -> f64 {
    let api = fresh_api();
    for r in warmup {
        api.handle(r);
    }
    let t = Instant::now();
    for r in requests {
        std::hint::black_box(api.handle(r));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;
    out.put("hpf-serve.api_handle.us_per_req", us);
    us
}

/// Cache and single-flight figures from the server's own counters.
fn put_cache_counters(out: &mut Outcome, c: &BTreeMap<String, f64>) {
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let lookups = get("serve.cache.hit") + get("serve.cache.miss");
    out.put(
        "hpf-serve.cache.hit_ratio",
        get("serve.cache.hit") / lookups.max(1.0),
    );
    out.put(
        "hpf-serve.cache.wire_hit_ratio",
        get("serve.cache.wire_hit") / lookups.max(1.0),
    );
    out.put(
        "hpf-serve.cache.shard_contention_per_kreq",
        1e3 * get("serve.cache.shard_contention") / get("serve.requests").max(1.0),
    );
    out.put(
        "hpf-serve.singleflight.parked",
        get("serve.singleflight.parked"),
    );
    let profiles = get("profile_cache.hit") + get("profile_cache.miss");
    out.put(
        "report.profile_cache.hit_ratio",
        get("profile_cache.hit") / profiles.max(1.0),
    );
}

/// Derived: the CPU's time per response outside `Api::handle` — HTTP
/// framing, socket calls, queueing and the client's own reads. The whole
/// process runs on one CPU, so that CPU's time per response is one over
/// the rate of untraced traffic.
fn put_wire(out: &mut Outcome, untraced_ops_per_s: f64, handle_us: f64) {
    out.put(
        "hpf-serve.wire.us_per_req",
        1e6 / untraced_ops_per_s - handle_us,
    );
}

fn put_latency(out: &mut Outcome, live: &Live) {
    let (p50, p99) = live.latency_ms();
    out.put("ops_per_s", live.ops_per_s());
    out.put("latency_p50_ms", p50);
    out.put("latency_p99_ms", p99);
}

fn put_errors(out: &mut Outcome, errors: &mut [f64]) {
    assert!(
        !errors.is_empty(),
        "no prediction checked against simulation"
    );
    errors.sort_by(f64::total_cmp);
    out.put("pred_err_median_pct", median(errors));
    out.put("pred_err_max_pct", errors[errors.len() - 1]);
}

// ---------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------

/// One pipelined burst: the wire bytes and the shape of each request.
struct Burst {
    bytes: Vec<u8>,
    shapes: Vec<usize>,
}

/// The warm mix: its distinct `(path, body)` shapes, and each client's
/// bursts over the ring, serialized before the clock starts.
struct WarmMix {
    shapes: Vec<(&'static str, String)>,
    bursts: Vec<Vec<Burst>>,
}

fn warm_mix(seed: u64) -> WarmMix {
    let mut index: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
    let mut shapes = Vec::new();
    let shape_of: Vec<usize> = (0..WARM_RING)
        .map(|i| {
            let req = hpf_serve::loadgen::request_at(seed, i);
            *index.entry(req.clone()).or_insert_with(|| {
                shapes.push(req);
                shapes.len() - 1
            })
        })
        .collect();
    let bursts = (0..CLIENTS)
        .map(|c| {
            let mine: Vec<usize> = (c..WARM_RING).step_by(CLIENTS).collect();
            mine.chunks(BURST)
                .map(|chunk| {
                    let mut bytes = Vec::new();
                    for &i in chunk {
                        let (path, body) = &shapes[shape_of[i]];
                        bytes.extend_from_slice(&raw_request(path, body));
                    }
                    Burst {
                        bytes,
                        shapes: chunk.iter().map(|&i| shape_of[i]).collect(),
                    }
                })
                .collect()
        })
        .collect();
    WarmMix { shapes, bursts }
}

/// Start the server and send each shape of the mix once, so that every
/// measured request can hit the response caches.
fn start_warm(mix: &WarmMix) -> Server {
    let server = Server::start();
    send_all(server.addr, &mix.shapes);
    server
}

/// `serve_warm`'s set-up, as a fresh process times it.
pub fn setup_warm(seed: u64) -> Server {
    start_warm(&warm_mix(seed))
}

/// One warm client: cycle over its bursts until the clock runs out.
/// Every response must be a 200 whose body equals the first body this
/// client saw for the same request shape; returns the run, those bodies
/// and the failures.
fn warm_client(
    addr: SocketAddr,
    bursts: &[Burst],
    shapes: usize,
    clock: &Clock,
    client: usize,
) -> (Live, Vec<Option<Vec<u8>>>, Outcome) {
    let mut live = Live::new(client);
    let mut bodies: Vec<Option<Vec<u8>>> = vec![None; shapes];
    let mut failures = Outcome::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            failures.fail(format!("connect: {e}"));
            return (live, bodies, failures);
        }
    };
    let mut ring = bursts.iter().cycle();
    let mut in_flight: VecDeque<(&Burst, Instant)> = VecDeque::with_capacity(IN_FLIGHT);
    'run: loop {
        while in_flight.len() < IN_FLIGHT && clock.running() {
            let burst = ring.next().expect("a client has at least one burst");
            let sent = Instant::now();
            if let Err(e) = conn.send(&burst.bytes) {
                failures.fail(format!("send: {e}"));
                break 'run;
            }
            in_flight.push_back((burst, sent));
        }
        let Some((burst, sent)) = in_flight.pop_front() else {
            break;
        };
        for &shape in &burst.shapes {
            let status = match conn.recv() {
                Ok(s) => s,
                Err(e) => {
                    failures.fail(format!("recv: {e}"));
                    break 'run;
                }
            };
            live.record(clock, sent);
            if status != 200 {
                failures.fail(format!("shape {shape}: status {status}"));
                continue;
            }
            match &bodies[shape] {
                None => bodies[shape] = Some(conn.body.clone()),
                Some(first) if *first != conn.body => {
                    failures.fail(format!("shape {shape}: body differs from its first answer"))
                }
                Some(_) => {}
            }
        }
    }
    (live, bodies, failures)
}

/// Drive the warm mix for `seconds`; fold the per-client results into
/// `out` (failures) and `seen` (first body per shape per client).
fn warm_live(
    out: &mut Outcome,
    addr: SocketAddr,
    mix: &WarmMix,
    seconds: f64,
    seen: &mut Vec<Vec<Option<Vec<u8>>>>,
) -> Live {
    let results = drive(seconds, |c, clock| {
        warm_client(addr, &mix.bursts[c], mix.shapes.len(), clock, c)
    });
    let mut lives = Vec::new();
    for (live, bodies, failures) in results {
        out.attempted += live.responses;
        out.absorb(failures);
        lives.push(live);
        seen.push(bodies);
    }
    Live::merge(lives)
}

/// The traced run's live traffic: [`OVERHEAD_PAIRS`] pairs of an
/// untraced and a traced segment, the order alternating pair by pair.
/// `trace.overhead_pct` is the median over pairs of the untraced rate
/// over the traced one; the cache counters cover the traced segments.
/// Returns the untraced segments' rate.
fn warm_overhead(
    out: &mut Outcome,
    addr: SocketAddr,
    mix: &WarmMix,
    seconds: f64,
    seen: &mut Vec<Vec<Option<Vec<u8>>>>,
) -> f64 {
    let segment = seconds / (2 * OVERHEAD_PAIRS) as f64;
    let (mut untraced_responses, mut untraced_s) = (0u64, 0.0);
    let mut overheads = Vec::with_capacity(OVERHEAD_PAIRS);
    hpf_trace::reset();
    for pair in 0..OVERHEAD_PAIRS {
        let mut rates = [0.0; 2];
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                hpf_trace::enable();
            }
            let live = warm_live(out, addr, mix, segment, seen);
            hpf_trace::disable();
            rates[traced as usize] = live.ops_per_s();
            if !traced {
                untraced_responses += live.timed;
                untraced_s += live.last_s;
            }
        }
        overheads.push(100.0 * (rates[0] / rates[1] - 1.0));
    }
    out.put("trace.overhead_pct", median(&overheads));
    hpf_trace::enable();
    let counters = metrics_counters(addr);
    hpf_trace::disable();
    put_cache_counters(out, &counters);
    untraced_responses as f64 / untraced_s
}

pub fn run_warm(args: &Args) -> Outcome {
    let mix = warm_mix(args.seed);
    let shape_reqs: Vec<Request> = mix.shapes.iter().map(|(p, b)| post(p, b)).collect();
    let mut out = Outcome::default();
    // The traced run replays first, while no server thread exists.
    let handle_us = args.trace.then(|| {
        let replay: Vec<Request> = (0..WARM_REPLAY)
            .map(|i| {
                let (path, body) = hpf_serve::loadgen::request_at(args.seed, i % WARM_RING);
                post(path, &body)
            })
            .collect();
        replay_layers(&mut out, &shape_reqs, &replay);
        replay_handle(&mut out, &shape_reqs, &replay)
    });
    let server = start_warm(&mix);
    let mut seen = Vec::new();

    if let Some(handle_us) = handle_us {
        let untraced = warm_overhead(&mut out, server.addr, &mix, args.seconds, &mut seen);
        put_wire(&mut out, untraced, handle_us);
    } else {
        let live = warm_live(&mut out, server.addr, &mix, args.seconds, &mut seen);
        put_latency(&mut out, &live);
    }
    out.put("peak_rss_mb", peak_rss_mb());
    drop(server);

    // Output checks: each shape's answer against a fresh handler, and
    // the served predictions against the simulated machine.
    let api = fresh_api();
    let mut errors = Vec::new();
    for (shape, req) in shape_reqs.iter().enumerate() {
        let fresh = api.handle(req);
        for client in &seen {
            if let Some(body) = &client[shape] {
                if body[..] != fresh.body[..] {
                    out.fail(format!("shape {shape}: served body != fresh Api::handle"));
                }
            }
        }
        if req.path == "/v1/predict" {
            match served_prediction_error(&mix.shapes[shape].1, &fresh.body) {
                Ok(e) => errors.push(e),
                Err(e) => out.fail(format!("shape {shape}: {e}")),
            }
        }
    }
    put_errors(&mut out, &mut errors);
    out
}

/// |served − simulated| / simulated, percent, for one served predict,
/// after checking the served total against the compile-once session.
fn served_prediction_error(request: &str, response: &[u8]) -> Result<f64, String> {
    let req = parse_json(request).map_err(|e| e.to_string())?;
    let field = |k: &str| req.get(k).and_then(Value::as_f64).ok_or(format!("no {k}"));
    let name = req
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or("no kernel")?;
    let kernel = kernels::kernel_by_name(name).ok_or("unknown kernel")?;
    let (n, procs) = (field("n")? as usize, field("procs")? as usize);
    let served = parse_json(std::str::from_utf8(response).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?
        .get("predicted_s")
        .and_then(Value::as_f64)
        .ok_or("no predicted_s")?;
    let cfg = SweepConfig {
        runs: REF_SIM_RUNS,
        profile_steps: REF_STEP_LIMIT,
        ..SweepConfig::quick()
    };
    let sample = SweepSession::new(&kernel, &cfg)
        .and_then(|s| s.evaluate(n, procs))
        .map_err(|e| e.to_string())?;
    if sample.predicted_s.to_bits() != served.to_bits() {
        return Err(format!(
            "served {served} != compile-once {}",
            sample.predicted_s
        ));
    }
    Ok(100.0 * (served - sample.measured_s).abs() / sample.measured_s)
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

/// Every `ADVISE_EVERY`-th request is an advise (~3%). An advise is the
/// slowest kind of request, so with more than 1% of requests advising,
/// `latency_p99_ms` falls among them, and the advisor moves the tail.
const ADVISE_EVERY: usize = 32;
/// The other requests split as the load generator's mix does
/// (`loadgen::request_at`), in percent: 90 kernel predicts, 5 predicts of
/// further programs (here sent as inline source, so that parse and
/// analysis run per request) and 5 sweeps.
const PREDICT_PCT: u64 = 90;
const SOURCE_PCT: u64 = 5;
/// Kernel predicts, inline sources and sweeps decode a permutation of the
/// index over `[0, 2^COLD_BITS)`.
const COLD_BITS: u32 = 20;
/// A run stops before this many requests: past it, advise bodies would
/// repeat (16 `top_k` values, 4 machines).
const COLD_MAX: usize =
    ADVISE_EVERY * ADVISE_KERNELS.len() * ADVISE_SIZES.len() * ADVISE_PROCS.len() * 16 * 4;
/// Kernel predicts and inline sources: `n` in `[64, 64 + COLD_N)`.
const COLD_N: u64 = 4032;
/// Sweeps: `runs` in `[50, 50 + SWEEP_RUNS)`.
const SWEEP_RUNS: u64 = 2048;
/// Sweep kernels and their two sizes — sizes well inside the paper's
/// band on every machine, and long enough on `multicore` that the
/// simulated timer's noise does not decide the error. Set-up computes
/// their profiles once.
const SWEEP_CELLS: [(&str, [usize; 2]); 12] = [
    ("LFK 9", [2048, 4096]),
    ("LFK 14", [1024, 2048]),
    ("LFK 22", [2048, 4096]),
    ("PBS 1", [2048, 4096]),
    ("PBS 2", [512, 1024]),
    ("PBS 4", [2048, 4096]),
    ("N-Body", [32, 64]),
    ("Financial", [32, 64]),
    ("Laplace (Blk-Blk)", [16, 32]),
    ("Laplace (Blk-X)", [16, 32]),
    ("Laplace (X-Blk)", [16, 32]),
    ("Laplace OOC", [16, 32]),
];
/// Advise: the Laplace variants (one directive-free program, so one
/// profile per `n`, computed in set-up). From `n = 128` on, computation
/// outweighs communication, so the search's lower bound prunes.
const ADVISE_KERNELS: [&str; 3] = ["Laplace (Blk-Blk)", "Laplace (Blk-X)", "Laplace (X-Blk)"];
const ADVISE_SIZES: [usize; 2] = [128, 160];
const ADVISE_PROCS: [usize; 4] = [2, 4, 8, 16];

/// One `serve_cold` request, decoded from its index.
enum ColdReq {
    Predict {
        kernel: Kernel,
        n: usize,
        procs: usize,
        machine: &'static str,
    },
    Source {
        kernel: Kernel,
        n: usize,
        procs: usize,
        machine: &'static str,
    },
    Sweep {
        kernel: &'static str,
        sizes: Vec<usize>,
        procs: usize,
        machine: &'static str,
        runs: u64,
    },
    Advise {
        kernel: &'static str,
        n: usize,
        procs: usize,
        top_k: usize,
        machine: &'static str,
    },
}

/// The `serve_cold` request at index `i`: a pure function of `(seed, i)`.
/// Within a request kind, the fields are a mixed-radix decoding of a
/// seeded permutation of `i`, so no two requests of a run are equal.
fn cold_request(seed: u64, i: usize, suite: &[Kernel], machines: &[&'static str]) -> ColdReq {
    let mask = (1u64 << COLD_BITS) - 1;
    if i % ADVISE_EVERY == ADVISE_EVERY - 1 {
        let j = i / ADVISE_EVERY;
        let (kernel, j) = (ADVISE_KERNELS[j % 3], j / 3);
        let (n, j) = (ADVISE_SIZES[j % 2], j / 2);
        let (procs, j) = (ADVISE_PROCS[j % 4], j / 4);
        let (top_k, j) = (1 + j % 16, j / 16);
        return ColdReq::Advise {
            kernel,
            n,
            procs,
            top_k,
            machine: machines[j % machines.len()],
        };
    }
    let u = ((i as u64)
        .wrapping_add(splitmix64(seed))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ splitmix64(!seed))
        & mask;
    let kind = splitmix64(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)) % 100;
    if kind < PREDICT_PCT + SOURCE_PCT {
        let (n, u) = (64 + (u % COLD_N) as usize, u / COLD_N);
        let (kernel, u) = (
            suite[u as usize % suite.len()].clone(),
            u / suite.len() as u64,
        );
        let (procs, u) = (PROCS[u as usize % 4], u / 4);
        let machine = machines[u as usize % machines.len()];
        return if kind < PREDICT_PCT {
            ColdReq::Predict {
                kernel,
                n,
                procs,
                machine,
            }
        } else {
            ColdReq::Source {
                kernel,
                n,
                procs,
                machine,
            }
        };
    }
    let (runs, u) = (50 + u % SWEEP_RUNS, u / SWEEP_RUNS);
    let (cell, u) = (u as usize % SWEEP_CELLS.len(), u / SWEEP_CELLS.len() as u64);
    let (kernel, [a, b]) = SWEEP_CELLS[cell];
    let (sizes, u) = (
        [vec![a], vec![b], vec![a, b]][u as usize % 3].clone(),
        u / 3,
    );
    let (procs, u) = (PROCS[u as usize % 4], u / 4);
    ColdReq::Sweep {
        kernel,
        sizes,
        procs,
        machine: machines[u as usize % machines.len()],
        runs,
    }
}

fn num(v: usize) -> Value {
    Value::Num(v as f64)
}

impl ColdReq {
    fn kind(&self) -> &'static str {
        match self {
            ColdReq::Predict { .. } => "predict",
            ColdReq::Source { .. } => "source",
            ColdReq::Sweep { .. } => "sweep",
            ColdReq::Advise { .. } => "advise",
        }
    }

    fn to_wire(&self) -> (&'static str, String) {
        let s = |v: &str| Value::Str(v.to_string());
        match self {
            ColdReq::Predict {
                kernel,
                n,
                procs,
                machine,
            } => (
                "/v1/predict",
                Value::obj(vec![
                    ("kernel", s(kernel.name)),
                    ("n", num(*n)),
                    ("procs", num(*procs)),
                    ("machine", s(machine)),
                ])
                .pretty(),
            ),
            ColdReq::Source {
                kernel,
                n,
                procs,
                machine,
            } => (
                "/v1/predict",
                Value::obj(vec![
                    ("source", s(&kernel.source(*n, *procs))),
                    ("procs", num(*procs)),
                    ("machine", s(machine)),
                ])
                .pretty(),
            ),
            ColdReq::Sweep {
                kernel,
                sizes,
                procs,
                machine,
                runs,
            } => (
                "/v1/sweep",
                Value::obj(vec![
                    ("kernel", s(kernel)),
                    ("sizes", Value::Arr(sizes.iter().map(|&n| num(n)).collect())),
                    ("procs", num(*procs)),
                    ("machine", s(machine)),
                    ("simulate", Value::Bool(true)),
                    ("runs", num(*runs as usize)),
                ])
                .pretty(),
            ),
            ColdReq::Advise {
                kernel,
                n,
                procs,
                top_k,
                machine,
            } => (
                "/v1/advise",
                Value::obj(vec![
                    ("kernel", s(kernel)),
                    ("n", num(*n)),
                    ("procs", num(*procs)),
                    ("top_k", num(*top_k)),
                    ("machine", s(machine)),
                ])
                .pretty(),
            ),
        }
    }
}

/// The generator's fixed inputs.
struct ColdMix {
    seed: u64,
    suite: Vec<Kernel>,
    machines: Vec<&'static str>,
}

impl ColdMix {
    fn new(seed: u64) -> ColdMix {
        ColdMix {
            seed,
            suite: kernels::all_kernels()
                .into_iter()
                .chain(kernels::ooc_kernels())
                .collect(),
            machines: hpf_machines::machine_names(),
        }
    }

    fn at(&self, i: usize) -> ColdReq {
        cold_request(self.seed, i, &self.suite, &self.machines)
    }

    /// Set-up traffic, disjoint from every measured body: calibrate each
    /// `(machine, procs)`, and compute every profile the sweeps and
    /// advises read.
    fn setup_requests(&self) -> Vec<(&'static str, String)> {
        let mut reqs = Vec::new();
        for &machine in &self.machines {
            for procs in PROCS.iter().chain(&ADVISE_PROCS[3..]) {
                reqs.push(
                    ColdReq::Predict {
                        kernel: self.suite[0].clone(),
                        n: 32,
                        procs: *procs,
                        machine,
                    }
                    .to_wire(),
                );
            }
        }
        for (kernel, sizes) in SWEEP_CELLS {
            reqs.push(
                ColdReq::Sweep {
                    kernel,
                    sizes: sizes.to_vec(),
                    procs: 4,
                    machine: hpf_machines::DEFAULT_MACHINE,
                    runs: 1,
                }
                .to_wire(),
            );
        }
        for n in ADVISE_SIZES {
            reqs.push(
                ColdReq::Advise {
                    kernel: ADVISE_KERNELS[0],
                    n,
                    procs: 1,
                    top_k: 1,
                    machine: hpf_machines::DEFAULT_MACHINE,
                }
                .to_wire(),
            );
        }
        reqs
    }
}

/// Start the server, then calibrate and compute profiles through it.
fn start_cold(mix: &ColdMix) -> Server {
    let server = Server::start();
    send_all(server.addr, &mix.setup_requests());
    server
}

/// `serve_cold`'s set-up, as a fresh process times it.
pub fn setup_cold(seed: u64) -> Server {
    start_cold(&ColdMix::new(seed))
}

/// One measured `serve_cold` request: index, status, body fingerprint,
/// and latency if it completed inside the interval.
struct ColdRecord {
    i: usize,
    status: u16,
    hash: u64,
    lat_ns: Option<u32>,
}

/// One cold client: one request in flight, next index from `next`.
fn cold_client(
    addr: SocketAddr,
    mix: &ColdMix,
    next: &AtomicUsize,
    clock: &Clock,
    client: usize,
) -> (Live, Vec<ColdRecord>, Outcome) {
    let mut live = Live::new(client);
    let mut records = Vec::new();
    let mut failures = Outcome::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            failures.fail(format!("connect: {e}"));
            return (live, records, failures);
        }
    };
    while clock.running() {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= COLD_MAX {
            break;
        }
        let (path, body) = mix.at(i).to_wire();
        let bytes = raw_request(path, &body);
        let sent = Instant::now();
        let status = match conn.roundtrip(&bytes) {
            Ok(s) => s,
            Err(e) => {
                failures.fail(format!("request {i}: {e}"));
                break;
            }
        };
        let lat_ns = live.record(clock, sent);
        records.push(ColdRecord {
            i,
            status,
            hash: fnv1a(&conn.body),
            lat_ns,
        });
    }
    (live, records, failures)
}

fn cold_live(
    out: &mut Outcome,
    addr: SocketAddr,
    mix: &ColdMix,
    seconds: f64,
) -> (Live, Vec<ColdRecord>) {
    let next = AtomicUsize::new(0);
    let results = drive(seconds, |c, clock| cold_client(addr, mix, &next, clock, c));
    let mut lives = Vec::new();
    let mut all = Vec::new();
    for (live, mut records, failures) in results {
        out.attempted += live.responses + failures.failed;
        out.absorb(failures);
        lives.push(live);
        all.append(&mut records);
    }
    (Live::merge(lives), all)
}

/// Print, to standard error, how the request kinds share the requests
/// beyond the p99 latency.
fn print_tail(mix: &ColdMix, records: &[ColdRecord]) {
    let mut timed: Vec<(u32, usize)> = records
        .iter()
        .filter_map(|r| Some((r.lat_ns?, r.i)))
        .collect();
    timed.sort_unstable();
    let beyond = &timed[timed.len() - timed.len() / 100..];
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for &(_, i) in beyond {
        *kinds.entry(mix.at(i).kind()).or_default() += 1;
    }
    eprintln!(
        "beyond p99 ({} of {}): {kinds:?}",
        beyond.len(),
        timed.len()
    );
}

pub fn run_cold(args: &Args) -> Outcome {
    let mix = ColdMix::new(args.seed);
    let mut out = Outcome::default();
    // The traced run replays first, while no server thread exists. The
    // replays' handlers are warmed with the server's set-up traffic.
    let handle_us = args.trace.then(|| {
        let request = |i: usize| {
            let (path, body) = mix.at(i).to_wire();
            post(path, &body)
        };
        let warmup: Vec<Request> = mix
            .setup_requests()
            .iter()
            .map(|(p, b)| post(p, b))
            .collect();
        let traced: Vec<Request> = (0..COLD_REPLAY).map(request).collect();
        replay_layers(&mut out, &warmup, &traced);
        let timed: Vec<Request> = (COLD_REPLAY..2 * COLD_REPLAY).map(request).collect();
        put_bind_time(&mut out, &mix, COLD_REPLAY..2 * COLD_REPLAY);
        replay_handle(&mut out, &warmup, &timed)
    });
    let server = start_cold(&mix);

    let (live, records) = if let Some(handle_us) = handle_us {
        hpf_trace::reset();
        hpf_trace::enable();
        let (live, records) = cold_live(&mut out, server.addr, &mix, args.seconds);
        let counters = metrics_counters(server.addr);
        hpf_trace::disable();
        put_cache_counters(&mut out, &counters);
        put_wire(&mut out, live.ops_per_s(), handle_us);
        (live, records)
    } else {
        cold_live(&mut out, server.addr, &mix, args.seconds)
    };
    out.put("peak_rss_mb", peak_rss_mb());
    drop(server);
    put_latency(&mut out, &live);
    print_tail(&mix, &records);

    // Output checks: replay every measured request through a fresh
    // handler; each body must match byte for byte (by fingerprint). The
    // replayed sweeps give the accuracy figures; a point's error is the
    // median over its sweeps (their `runs` differ), and the figures are
    // taken over points, which every run covers.
    let api = fresh_api();
    let mut by_point: BTreeMap<SweepPoint, Vec<f64>> = BTreeMap::new();
    for rec in &records {
        let req = mix.at(rec.i);
        let (path, body) = req.to_wire();
        let fresh = api.handle(&post(path, &body));
        if rec.status != 200 || fresh.status != 200 {
            out.fail(format!("request {}: status {}", rec.i, rec.status));
        } else if fnv1a(&fresh.body) != rec.hash {
            out.fail(format!("request {}: body != fresh Api::handle", rec.i));
        } else if let ColdReq::Sweep {
            kernel,
            procs,
            machine,
            ..
        } = req
        {
            for (n, err) in sweep_errors(&fresh.body) {
                by_point
                    .entry((kernel, n, procs, machine))
                    .or_default()
                    .push(err);
            }
        }
    }
    let mut errors: Vec<f64> = by_point.values().map(|e| median(e)).collect();
    put_errors(&mut out, &mut errors);
    out
}

/// A served sweep point: `(kernel, n, procs, machine)`.
type SweepPoint = (&'static str, usize, usize, &'static str);

/// `(n, |predicted − simulated| / simulated percent)` for each point of a
/// served sweep.
fn sweep_errors(body: &[u8]) -> Vec<(usize, f64)> {
    let doc = std::str::from_utf8(body)
        .ok()
        .and_then(|t| parse_json(t).ok())
        .expect("sweep body is JSON");
    let points = doc.get("points").and_then(Value::as_arr).unwrap_or(&[]);
    points
        .iter()
        .filter_map(|point| {
            let get = |k: &str| point.get(k).and_then(Value::as_f64);
            let (n, p, m) = (get("n")?, get("predicted_s")?, get("measured_s")?);
            Some((n as usize, 100.0 * (p - m).abs() / m))
        })
        .collect()
}

/// `kernels.bind`: `CompiledKernel::bind` timed from here for the kernel
/// predicts among the requests `range`, per request of the range.
fn put_bind_time(out: &mut Outcome, mix: &ColdMix, range: std::ops::Range<usize>) {
    let mut compiled: BTreeMap<&str, CompiledKernel> = BTreeMap::new();
    let mut ns = 0u128;
    let requests = range.len();
    for i in range {
        if let ColdReq::Predict {
            kernel, n, procs, ..
        } = mix.at(i)
        {
            let artifact = compiled
                .entry(kernel.name)
                .or_insert_with(|| CompiledKernel::new(&kernel).expect("suite kernel parses"));
            let t = Instant::now();
            let bound = artifact.bind(n as i64, procs, &CompileOptions::default());
            ns += t.elapsed().as_nanos();
            bound.expect("suite kernel binds");
        }
    }
    out.put("kernels.bind.ms_per_op", ns as f64 / 1e6 / requests as f64);
}

//! Seeded, replayable service-level chaos harness.
//!
//! PR 1 proved the *simulated* machine survives hostile conditions with a
//! seeded `FaultPlan`; this module ports the same idiom up to the service
//! itself. A chaos plan — a pure function of `(seed, request index)`
//! via [`fault_at`] —
//! decides per request whether it is healthy or carries one of six
//! service-level faults:
//!
//! * **handler panic** — the test-only [`crate::api::CHAOS_HEADER`]
//!   (honored only when the server runs with chaos enabled) panics inside
//!   the routed handler; the worker's `catch_unwind` isolation must turn
//!   it into a structured 500;
//! * **DES panic** — the same header aimed at the breaker-guarded
//!   simulator cross-check; the response must degrade to analytic-only
//!   (`"degraded": true`) and repeated hits must trip the breaker open;
//! * **deadline storm** — `deadline_ms: 0`, dead at parse time; must
//!   short-circuit to 504 before any pipeline stage;
//! * **slow-loris** — a client that writes half a request line and
//!   stalls; the read timeout must answer 408 and free the worker;
//! * **truncated body** — `Content-Length` promises more bytes than
//!   arrive before EOF; must answer a structured 400;
//! * **abort** — a client that writes a full request and hangs up without
//!   reading; the worker must shrug and move on.
//!
//! A second independent draw ([`machine_at`]) splices a non-default
//! `"machine"` into a small slice of the generated requests, so the
//! machine-keyed cache rows and per-machine latency sketches stay under
//! test while faults fly. A third ([`io_at`]) turns ~5% of the traffic
//! into out-of-core predicts, so the striped-I/O pricing path (and its
//! `io_s` response field) is exercised under the same conditions.
//!
//! [`run`] executes the plan twice against fresh in-process servers — a
//! fault-free **baseline** pass (only the plan's healthy requests) and
//! the **chaos** pass (everything) — and asserts the resilience contract:
//! zero worker deaths, the pool at full strength afterwards, every
//! injected fault answered with the expected structured status (never a
//! hang, never a silent drop of a request that awaited an answer), the
//! healthy-request checksum bit-identical to the baseline pass, healthy
//! p99 in-band, and the breaker observed open when enough DES faults were
//! injected. The plan is seeded, so a failure replays exactly.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hpf_trace::json::{parse as parse_json, Value};
use report::{fnv1a, splitmix64, FNV_OFFSET};

use crate::api::CHAOS_HEADER;
use crate::http::read_response;
use crate::loadgen::{percentile, request_at, shutdown_over_the_wire};
use crate::server::{start_traced, ServerConfig};

/// Chaos harness knobs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Total requests in the plan (healthy + injected).
    pub requests: usize,
    /// Client threads (one fresh connection per request).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Plan seed: the fault at every index is a pure function of it.
    pub seed: u64,
    /// Server read timeout for the run — kept short so slow-loris faults
    /// resolve quickly.
    pub read_timeout_ms: u64,
    /// Server queue-wait cap for the run.
    pub queue_wait_cap_ms: u64,
}

impl ChaosConfig {
    /// The `--quick` preset, pinned by `tests/goldens.rs` at 1, 4 and 8
    /// workers.
    pub fn quick() -> Self {
        ChaosConfig {
            requests: 240,
            clients: 4,
            workers: 4,
            seed: 0xC4A0_55ED,
            read_timeout_ms: 150,
            queue_wait_cap_ms: 2_000,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            requests: 1_000,
            ..ChaosConfig::quick()
        }
    }
}

/// The fault (or lack of one) the plan injects at one request index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Healthy,
    HandlerPanic,
    DeadlineStorm,
    SimPanic,
    SlowLoris,
    TruncatedBody,
    Abort,
}

impl Fault {
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Healthy => "healthy",
            Fault::HandlerPanic => "handler-panic",
            Fault::DeadlineStorm => "deadline-storm",
            Fault::SimPanic => "sim-panic",
            Fault::SlowLoris => "slow-loris",
            Fault::TruncatedBody => "truncated-body",
            Fault::Abort => "abort",
        }
    }

    fn index(&self) -> usize {
        match self {
            Fault::Healthy => 0,
            Fault::HandlerPanic => 1,
            Fault::DeadlineStorm => 2,
            Fault::SimPanic => 3,
            Fault::SlowLoris => 4,
            Fault::TruncatedBody => 5,
            Fault::Abort => 6,
        }
    }
}

const FAULTS: [Fault; 7] = [
    Fault::Healthy,
    Fault::HandlerPanic,
    Fault::DeadlineStorm,
    Fault::SimPanic,
    Fault::SlowLoris,
    Fault::TruncatedBody,
    Fault::Abort,
];

/// Non-default machines the plan splices into a slice of its requests.
const SPLICE_MACHINES: [&str; 3] = ["torus3d", "fattree", "multicore"];

/// Out-of-core predict requests the plan splices into a slice of its
/// traffic: `(kernel, n, procs)`.
const SPLICE_OOC: [(&str, usize, usize); 2] = [("Laplace OOC", 32, 4), ("N-Body OOC", 128, 4)];

/// The deterministic out-of-core override at index `i`: a small (~5%)
/// slice of the plan's generated requests becomes a `/v1/predict` over an
/// out-of-core kernel, so the striped-I/O pricing path (and its `io_s`
/// response field) stays under test while faults fly. Drawn independently
/// of [`fault_at`] and [`machine_at`] and pure in `(seed, i)`, so the
/// baseline and chaos passes splice identical bodies and the healthy
/// checksum still matches bit for bit.
pub fn io_at(seed: u64, i: usize) -> Option<(&'static str, usize, usize)> {
    let r = splitmix64(seed.rotate_left(41) ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)) % 100;
    (r < 5).then(|| SPLICE_OOC[(r % SPLICE_OOC.len() as u64) as usize])
}

/// The deterministic machine override at index `i`: a small (~6%) slice
/// of the plan's generated requests names a non-default registry machine,
/// exercising the machine-keyed cache rows and per-machine latency
/// sketches under chaos. Drawn independently of [`fault_at`] and pure in
/// `(seed, i)`, so the baseline and chaos passes splice identical bodies
/// and the healthy checksum still matches bit for bit.
pub fn machine_at(seed: u64, i: usize) -> Option<&'static str> {
    let r = splitmix64(seed.rotate_left(29) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 100;
    (r < 6).then(|| SPLICE_MACHINES[(r % SPLICE_MACHINES.len() as u64) as usize])
}

/// The body the plan fires at index `i`: the loadgen mix (or an
/// out-of-core predict, when [`io_at`] says so), with the machine
/// override (if any) spliced in before the closing brace.
fn plan_request(seed: u64, i: usize) -> (&'static str, String) {
    let (path, mut body) = match io_at(seed, i) {
        Some((kernel, n, procs)) => (
            "/v1/predict",
            format!(r#"{{"kernel": "{kernel}", "n": {n}, "procs": {procs}}}"#),
        ),
        None => request_at(seed, i),
    };
    if let Some(machine) = machine_at(seed, i) {
        body.pop();
        body.push_str(&format!(r#", "machine": "{machine}"}}"#));
    }
    (path, body)
}

/// The deterministic fault at index `i` — ~70% healthy, the rest spread
/// over the six fault classes. Same `(seed, i)`, same fault, forever:
/// that is what makes a failed chaos run replayable.
pub fn fault_at(seed: u64, i: usize) -> Fault {
    let r = splitmix64(seed.rotate_left(17) ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)) % 100;
    match r {
        0..=69 => Fault::Healthy,
        70..=77 => Fault::HandlerPanic,
        78..=85 => Fault::DeadlineStorm,
        86..=91 => Fault::SimPanic,
        92..=94 => Fault::SlowLoris,
        95..=97 => Fault::TruncatedBody,
        _ => Fault::Abort,
    }
}

/// What one fired request came back with.
#[derive(Debug, Clone)]
struct Outcome {
    index: usize,
    fault: Fault,
    /// `None`: no response was read (an abort on purpose, or a violation
    /// for any fault that expected an answer).
    status: Option<u16>,
    ms: f64,
    body_hash: u64,
    /// The body was a structured error with `kind: "panic"`.
    panic_kind: bool,
    /// The body carried `"degraded": true` or a `measured_s` point — the
    /// two legitimate answers to a DES-faulted simulate request.
    degraded_or_measured: bool,
}

/// Pool/queue health parsed from `/v1/healthz` after the pass.
#[derive(Debug, Clone, Default)]
struct Health {
    configured: usize,
    live: usize,
    panics: usize,
    deaths: usize,
    respawns: usize,
    shed: usize,
}

/// One finished chaos run (baseline + chaos passes).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub requests: usize,
    pub clients: usize,
    pub workers: usize,
    pub seed: u64,
    pub healthy: usize,
    pub injected: usize,
    /// FNV-1a over healthy response bodies, request-index order, from
    /// the fault-free baseline pass.
    pub baseline_checksum: u64,
    /// Same fold over the same (healthy) indices during the chaos pass —
    /// must equal `baseline_checksum` bit for bit.
    pub healthy_checksum: u64,
    pub baseline_p99_ms: f64,
    pub healthy_p50_ms: f64,
    pub healthy_p99_ms: f64,
    /// `(fault label, injected, answered-as-expected)` per fault class.
    pub tally: Vec<(&'static str, usize, usize)>,
    pub workers_configured: usize,
    pub workers_live: usize,
    pub worker_deaths: usize,
    pub worker_panics: usize,
    pub worker_respawns: usize,
    pub shed: usize,
    pub breaker_opens: u64,
    pub degraded_responses: u64,
    /// The plan-deterministic slice of the chaos pass's
    /// `/v1/metrics?since=` delta (see `summarize_delta`) — identical
    /// for a given `(seed, requests)` whatever the worker count, and
    /// diffed against a checked-in golden by CI.
    pub metrics_summary: Value,
    /// Contract violations; empty means the run passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos: {} requests ({} healthy, {} injected), {} clients, {} workers, seed {:#x}\n\
             baseline checksum  {:016x}\n\
             healthy checksum   {:016x}  ({})\n\
             healthy p50 / p99  {:.3} / {:.3} ms  (baseline p99 {:.3} ms)\n",
            self.requests,
            self.healthy,
            self.injected,
            self.clients,
            self.workers,
            self.seed,
            self.baseline_checksum,
            self.healthy_checksum,
            if self.baseline_checksum == self.healthy_checksum {
                "MATCH"
            } else {
                "MISMATCH"
            },
            self.healthy_p50_ms,
            self.healthy_p99_ms,
            self.baseline_p99_ms,
        );
        out.push_str("faults:");
        for (label, total, ok) in &self.tally {
            if *total > 0 {
                out.push_str(&format!(" {label} {ok}/{total}"));
            }
        }
        out.push('\n');
        let summary_num = |section: &str, key: &str| {
            self.metrics_summary
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        out.push_str(&format!(
            "metrics delta: requests {}, latency sketch counts predict {} / sweep {}\n",
            summary_num("counters", "serve.requests"),
            summary_num("sketch_counts", "serve.latency.predict"),
            summary_num("sketch_counts", "serve.latency.sweep"),
        ));
        out.push_str(&format!(
            "workers: live {}/{}, deaths {}, caught panics {}, respawns {}, shed {}\n\
             breaker: opens {}, degraded responses {}\n",
            self.workers_live,
            self.workers_configured,
            self.worker_deaths,
            self.worker_panics,
            self.worker_respawns,
            self.shed,
            self.breaker_opens,
            self.degraded_responses,
        ));
        for f in &self.failures {
            out.push_str(&format!("FAIL: {f}\n"));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Suppress the default panic hook's backtrace spam for the panics this
/// harness injects on purpose ("chaos: …" payloads); everything else
/// still reaches the previous hook.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.starts_with("chaos:"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with("chaos:"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn send_post(
    stream: &mut TcpStream,
    path: &str,
    body: &str,
    chaos: Option<&str>,
) -> std::io::Result<()> {
    let mut raw = format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
    if let Some(kind) = chaos {
        raw.push_str(&format!("{CHAOS_HEADER}: {kind}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    stream.write_all(raw.as_bytes())
}

/// Fire the plan's request `i` at the server and record what came back.
fn fire(addr: SocketAddr, cfg: &ChaosConfig, i: usize, fault: Fault) -> Outcome {
    let t0 = Instant::now();
    let mut out = Outcome {
        index: i,
        fault,
        status: None,
        ms: 0.0,
        body_hash: 0,
        panic_kind: false,
        degraded_or_measured: false,
    };
    let result: std::io::Result<()> = (|| {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The client-side hang detector: no response within 10 s is a
        // contract violation, not a wait.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        match fault {
            Fault::Healthy | Fault::HandlerPanic => {
                let (path, body) = plan_request(cfg.seed, i);
                let chaos = matches!(fault, Fault::HandlerPanic).then_some("handler");
                send_post(&mut stream, path, &body, chaos)?;
            }
            Fault::DeadlineStorm => {
                send_post(
                    &mut stream,
                    "/v1/predict",
                    r#"{"kernel": "PI", "n": 256, "procs": 4, "deadline_ms": 0}"#,
                    None,
                )?;
            }
            Fault::SimPanic => {
                send_post(
                    &mut stream,
                    "/v1/sweep",
                    r#"{"kernel": "PI", "sizes": [96], "procs": 4, "simulate": true, "runs": 20}"#,
                    Some("sim"),
                )?;
            }
            Fault::SlowLoris => {
                stream.write_all(b"POST /v1/predict HTTP/1.1\r\ncontent-le")?;
                std::thread::sleep(Duration::from_millis(cfg.read_timeout_ms * 3));
            }
            Fault::TruncatedBody => {
                stream.write_all(
                    b"POST /v1/predict HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"kernel\": ",
                )?;
                stream.shutdown(Shutdown::Write)?;
            }
            Fault::Abort => {
                let (path, body) = plan_request(cfg.seed, i);
                send_post(&mut stream, path, &body, None)?;
                // Hang up without reading: the worker's write may fail
                // mid-response; it must survive and move on.
                return Ok(());
            }
        }
        let mut reader = BufReader::new(stream.try_clone()?);
        let (status, _, body) =
            read_response(&mut reader).map_err(|e| std::io::Error::other(e.message))?;
        out.status = Some(status);
        out.body_hash = fnv1a(FNV_OFFSET, &body);
        if let Ok(v) = parse_json(&String::from_utf8_lossy(&body)) {
            out.panic_kind = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                == Some("panic");
            out.degraded_or_measured = matches!(v.get("degraded"), Some(Value::Bool(true)))
                || v.get("points")
                    .and_then(Value::as_arr)
                    .map(|ps| ps.iter().any(|p| p.get("measured_s").is_some()))
                    .unwrap_or(false);
        }
        Ok(())
    })();
    let _ = result; // a refused/broken connection stays `status: None`
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    out
}

fn fetch_json(addr: SocketAddr, path: &str) -> std::io::Result<Value> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (status, _, body) =
        read_response(&mut reader).map_err(|e| std::io::Error::other(e.message))?;
    if status != 200 {
        return Err(std::io::Error::other(format!("{path} status {status}")));
    }
    parse_json(std::str::from_utf8(&body).map_err(std::io::Error::other)?)
        .map_err(|e| std::io::Error::other(format!("{path} json: {e}")))
}

fn fetch_health(addr: SocketAddr) -> std::io::Result<Health> {
    let v = fetch_json(addr, "/v1/healthz")?;
    let field = |obj: &str, key: &str| {
        v.get(obj)
            .and_then(|o| o.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize
    };
    Ok(Health {
        configured: field("workers", "configured"),
        live: field("workers", "live"),
        panics: field("workers", "panics"),
        deaths: field("workers", "deaths"),
        respawns: field("workers", "respawns"),
        shed: field("queue", "shed"),
    })
}

/// Everything one pass of the plan observed.
struct PassResult {
    outcomes: Vec<Outcome>,
    health: Health,
    breaker_opens: u64,
    degraded: u64,
    /// The `/v1/metrics?since=<cursor>` document, where the cursor was
    /// issued *before* any plan request fired — i.e. exactly what the
    /// pass did to the service, as the delta export tells it.
    metrics_delta: Value,
}

/// One pass of the plan. `chaos: false` is the baseline — only the
/// plan's healthy requests are fired, against a server with injection
/// disabled. Each pass's server records into a recorder of its own, so
/// its counters start from zero.
fn run_pass(cfg: &ChaosConfig, chaos: bool) -> std::io::Result<PassResult> {
    let handle = start_traced(
        "127.0.0.1:0",
        ServerConfig {
            workers: cfg.workers.max(1),
            // Deep enough that the full client population can wait out a
            // loris-held worker alongside a few abandoned (abort)
            // connections without tripping accept-queue backpressure even
            // at one worker: this harness asserts *zero* spurious sheds
            // of answered traffic; structural shedding under real
            // overload is loadgen's `--overload` profile, not chaos.
            queue_depth: cfg.workers.max(1) * 4 + cfg.clients.max(1),
            read_timeout_ms: cfg.read_timeout_ms,
            queue_wait_cap_ms: cfg.queue_wait_cap_ms,
            chaos,
            ..ServerConfig::default()
        },
    )?;
    let addr = handle.addr();

    // Open the delta window before the first plan request fires.
    let cursor = fetch_json(addr, "/v1/metrics")?
        .get("cursor")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;

    let clients = cfg.clients.max(1);
    let mut joins = Vec::with_capacity(clients);
    for t in 0..clients {
        let cfg = cfg.clone();
        joins.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            let mut i = t;
            while i < cfg.requests {
                let fault = fault_at(cfg.seed, i);
                if chaos || fault == Fault::Healthy {
                    outcomes.push(fire(addr, &cfg, i, fault));
                }
                i += clients;
            }
            outcomes
        }));
    }
    let mut outcomes = Vec::with_capacity(cfg.requests);
    for j in joins {
        outcomes.extend(
            j.join()
                .map_err(|_| std::io::Error::other("chaos client thread panicked"))?,
        );
    }

    // Close the delta window before the healthz fetch below — the delta
    // must cover the plan's requests and nothing this harness does to
    // inspect the aftermath.
    let metrics_delta = fetch_json(addr, &format!("/v1/metrics?since={cursor}"))?;

    let health = fetch_health(addr)?;
    let breaker_opens = handle.recorder().counter_get("serve.breaker_open");
    let degraded = handle.recorder().counter_get("serve.degraded");
    shutdown_over_the_wire(addr, handle)?;
    outcomes.sort_by_key(|o| o.index);
    Ok(PassResult {
        outcomes,
        health,
        breaker_opens,
        degraded,
        metrics_delta,
    })
}

fn healthy_checksum_and_latencies(outcomes: &[Outcome]) -> (u64, Vec<f64>) {
    let mut checksum = FNV_OFFSET;
    let mut lat = Vec::new();
    for o in outcomes {
        if o.fault == Fault::Healthy {
            checksum = fnv1a(checksum, &o.body_hash.to_be_bytes());
            lat.push(o.ms);
        }
    }
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (checksum, lat)
}

/// Run the full harness: baseline pass, chaos pass, contract check.
///
/// Each pass traces into its own recorder (the breaker/respawn counters
/// are part of the contract); the instrumented pipeline is bit-neutral
/// under tracing, so this perturbs nothing.
pub fn run(cfg: &ChaosConfig) -> std::io::Result<ChaosReport> {
    silence_injected_panics();
    let baseline_pass = run_pass(cfg, false)?;
    let (baseline_checksum, baseline_lat) = healthy_checksum_and_latencies(&baseline_pass.outcomes);

    let chaos_pass = run_pass(cfg, true)?;
    let PassResult {
        outcomes,
        health,
        breaker_opens,
        degraded: degraded_responses,
        metrics_delta,
    } = chaos_pass;
    let (healthy_checksum, healthy_lat) = healthy_checksum_and_latencies(&outcomes);

    // Tally and per-fault contract: every injected fault that awaits an
    // answer must get the structured status its class promises.
    let mut totals = [0usize; FAULTS.len()];
    let mut expected = [0usize; FAULTS.len()];
    let mut failures: Vec<String> = Vec::new();
    let violation = |failures: &mut Vec<String>, o: &Outcome, want: &str| {
        if failures.len() < 12 {
            failures.push(format!(
                "request {} ({}) expected {want}, got {:?}",
                o.index,
                o.fault.label(),
                o.status
            ));
        }
    };
    for o in &outcomes {
        totals[o.fault.index()] += 1;
        let ok = match o.fault {
            Fault::Healthy => o.status == Some(200),
            Fault::HandlerPanic => o.status == Some(500) && o.panic_kind,
            Fault::DeadlineStorm => o.status == Some(504),
            Fault::SimPanic => o.status == Some(200) && o.degraded_or_measured,
            Fault::SlowLoris => o.status == Some(408),
            Fault::TruncatedBody => o.status == Some(400),
            Fault::Abort => true,
        };
        if ok {
            expected[o.fault.index()] += 1;
        } else {
            let want = match o.fault {
                Fault::Healthy => "200",
                Fault::HandlerPanic => "structured 500 (kind: panic)",
                Fault::DeadlineStorm => "504",
                Fault::SimPanic => "200 (degraded or measured)",
                Fault::SlowLoris => "408",
                Fault::TruncatedBody => "400",
                Fault::Abort => unreachable!(),
            };
            violation(&mut failures, o, want);
        }
    }

    if healthy_checksum != baseline_checksum {
        failures.push(format!(
            "healthy checksum {healthy_checksum:016x} != baseline {baseline_checksum:016x}: \
             chaos changed bytes of non-injected responses"
        ));
    }
    if health.deaths != 0 {
        failures.push(format!("{} worker death(s) under chaos", health.deaths));
    }
    if health.live != health.configured {
        failures.push(format!(
            "pool below strength after chaos: {}/{} workers live",
            health.live, health.configured
        ));
    }
    let baseline_p99 = percentile(&baseline_lat, 0.99);
    let healthy_p99 = percentile(&healthy_lat, 0.99);
    // In-band: a healthy request may at worst sit behind loris-held
    // workers for a read-timeout; beyond a few of those, the service is
    // letting faults starve healthy traffic.
    let band_ms = (4 * cfg.read_timeout_ms + 100) as f64;
    let band_ms = band_ms.max(25.0 * baseline_p99);
    if healthy_p99 > band_ms {
        failures.push(format!(
            "healthy p99 {healthy_p99:.3} ms out of band (cap {band_ms:.1} ms)"
        ));
    }
    let sim_faults = totals[Fault::SimPanic.index()];
    if sim_faults >= 3 && breaker_opens == 0 {
        failures.push(format!(
            "{sim_faults} DES faults injected but the breaker never opened"
        ));
    }

    // The delta-export contract: the chaos pass's window must carry the
    // metrics schema and must have resolved the cursor exactly (a
    // `reset` would mean the window silently became totals).
    if metrics_delta.get("schema").and_then(Value::as_str) != Some(crate::metrics::METRICS_SCHEMA) {
        failures.push("metrics delta: wrong or missing schema".into());
    }
    if metrics_delta.get("reset").is_some() {
        failures.push("metrics delta: cursor aged out of the ring during the pass".into());
    }
    let metrics_summary = summarize_delta(cfg, &metrics_delta, healthy_checksum);

    let healthy = totals[Fault::Healthy.index()];
    Ok(ChaosReport {
        requests: cfg.requests,
        clients: cfg.clients.max(1),
        workers: cfg.workers.max(1),
        seed: cfg.seed,
        healthy,
        injected: outcomes.len() - healthy,
        baseline_checksum,
        healthy_checksum,
        baseline_p99_ms: baseline_p99,
        healthy_p50_ms: percentile(&healthy_lat, 0.50),
        healthy_p99_ms: healthy_p99,
        tally: FAULTS
            .iter()
            .map(|f| (f.label(), totals[f.index()], expected[f.index()]))
            .collect(),
        workers_configured: health.configured,
        workers_live: health.live,
        worker_deaths: health.deaths,
        worker_panics: health.panics,
        worker_respawns: health.respawns,
        shed: health.shed,
        breaker_opens,
        degraded_responses,
        metrics_summary,
        failures,
    })
}

/// The deterministic slice of the chaos pass's `?since=` delta: values
/// that are a pure function of the plan (seed + request count) and
/// independent of worker count, client count, and timing. CI pins this
/// document against a checked-in golden at several worker counts — the
/// service-level analogue of the loadgen checksum.
///
/// Deliberately excluded: connection and cache counters (they see the
/// harness's own scrapes and cache-timing races), shed/breaker/degraded
/// counts (timing-dependent), and every latency *value* (only sketch
/// *counts* are plan-determined).
fn summarize_delta(cfg: &ChaosConfig, delta: &Value, healthy_checksum: u64) -> Value {
    let counter = |name: &str| -> Value {
        Value::Num(
            delta
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        )
    };
    let sketch_count = |name: &str| -> Value {
        Value::Num(
            delta
                .get("sketches")
                .and_then(|s| s.get(name))
                .and_then(|s| s.get("count"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        )
    };
    Value::obj(vec![
        ("schema", Value::Str("hpf-serve-chaos-metrics/v1".into())),
        ("seed", Value::Str(format!("{:#x}", cfg.seed))),
        ("requests", Value::Num(cfg.requests as f64)),
        (
            "healthy_checksum",
            Value::Str(format!("{healthy_checksum:016x}")),
        ),
        (
            "counters",
            Value::obj(vec![
                ("serve.requests", counter("serve.requests")),
                ("serve.worker_death", counter("serve.worker_death")),
                ("serve.worker_panic", counter("serve.worker_panic")),
            ]),
        ),
        (
            "sketch_counts",
            Value::obj(vec![
                (
                    "serve.latency.predict",
                    sketch_count("serve.latency.predict"),
                ),
                ("serve.latency.sweep", sketch_count("serve.latency.sweep")),
                (
                    "serve.latency.machine.torus3d",
                    sketch_count("serve.latency.machine.torus3d"),
                ),
                (
                    "serve.latency.machine.fattree",
                    sketch_count("serve.latency.machine.fattree"),
                ),
                (
                    "serve.latency.machine.multicore",
                    sketch_count("serve.latency.machine.multicore"),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_mostly_healthy() {
        let a: Vec<Fault> = (0..1000).map(|i| fault_at(0xFEED, i)).collect();
        let b: Vec<Fault> = (0..1000).map(|i| fault_at(0xFEED, i)).collect();
        assert_eq!(a, b, "same seed must give the same plan");
        let healthy = a.iter().filter(|f| **f == Fault::Healthy).count();
        assert!(
            (600..=800).contains(&healthy),
            "healthy share {healthy}/1000 outside the ~70% design point"
        );
        // Every fault class occurs: the plan exercises the whole surface.
        for f in FAULTS {
            assert!(a.contains(&f), "fault {:?} never drawn", f);
        }
    }

    #[test]
    fn machine_splice_is_deterministic_small_and_well_formed() {
        let a: Vec<Option<&str>> = (0..1000).map(|i| machine_at(0xFEED, i)).collect();
        let b: Vec<Option<&str>> = (0..1000).map(|i| machine_at(0xFEED, i)).collect();
        assert_eq!(a, b, "same seed must give the same machine splice");
        let named = a.iter().filter(|m| m.is_some()).count();
        assert!(
            (20..=120).contains(&named),
            "machine share {named}/1000 outside the ~6% design point"
        );
        for m in SPLICE_MACHINES {
            assert!(a.contains(&Some(m)), "machine {m} never drawn");
            assert!(hpf_machines::machine(m).is_ok(), "{m} must be registered");
        }
        // Spliced bodies stay valid JSON carrying the named machine.
        for i in 0..1000 {
            let (_, body) = plan_request(0xFEED, i);
            let v = parse_json(&body).unwrap_or_else(|e| panic!("request {i}: {e}: {body}"));
            assert_eq!(
                v.get("machine").and_then(Value::as_str),
                machine_at(0xFEED, i)
            );
        }
    }

    #[test]
    fn io_splice_is_deterministic_small_and_well_formed() {
        let a: Vec<Option<(&str, usize, usize)>> = (0..1000).map(|i| io_at(0xFEED, i)).collect();
        let b: Vec<Option<(&str, usize, usize)>> = (0..1000).map(|i| io_at(0xFEED, i)).collect();
        assert_eq!(a, b, "same seed must give the same io splice");
        let spliced = a.iter().filter(|m| m.is_some()).count();
        assert!(
            (15..=100).contains(&spliced),
            "io share {spliced}/1000 outside the ~5% design point"
        );
        for (kernel, n, procs) in SPLICE_OOC {
            assert!(
                a.contains(&Some((kernel, n, procs))),
                "ooc request {kernel} never drawn"
            );
            assert!(
                kernels::kernel_by_name(kernel).is_some(),
                "{kernel} must resolve in the suite"
            );
        }
        // Spliced bodies stay valid JSON naming the out-of-core kernel,
        // and the machine override still composes on top.
        for i in 0..1000 {
            if let Some((kernel, n, procs)) = io_at(0xFEED, i) {
                let (path, body) = plan_request(0xFEED, i);
                assert_eq!(path, "/v1/predict");
                let v = parse_json(&body).unwrap_or_else(|e| panic!("request {i}: {e}: {body}"));
                assert_eq!(v.get("kernel").and_then(Value::as_str), Some(kernel));
                assert_eq!(v.get("n").and_then(Value::as_f64), Some(n as f64));
                assert_eq!(v.get("procs").and_then(Value::as_f64), Some(procs as f64));
                assert_eq!(
                    v.get("machine").and_then(Value::as_str),
                    machine_at(0xFEED, i)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a: Vec<Fault> = (0..200).map(|i| fault_at(1, i)).collect();
        let b: Vec<Fault> = (0..200).map(|i| fault_at(2, i)).collect();
        assert_ne!(a, b);
    }
}

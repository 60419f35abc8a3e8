//! Unhappy-path end-to-end tests for the resilience layer: panic
//! isolation and supervision, parse-time deadline short-circuit,
//! overload and queue-shed behavior, stalled and malformed clients, and
//! the in-process chaos harness itself.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hpf_serve::api::{Api, CHAOS_HEADER};
use hpf_serve::cache::CacheConfig;
use hpf_serve::chaos::{self, ChaosConfig};
use hpf_serve::http::{read_response, Request};
use hpf_serve::server::{start, ServerConfig, ServerHandle};
use hpf_trace::json::{parse as parse_json, Value};

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// One request/response exchange on a fresh connection; panics on any
/// protocol failure.
fn roundtrip(addr: SocketAddr, path: &str, body: &str, chaos: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut stream, path, body, chaos);
    read(&mut stream)
}

fn send(stream: &mut TcpStream, path: &str, body: &str, chaos: Option<&str>) {
    let mut raw = format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
    if let Some(kind) = chaos {
        raw.push_str(&format!("{CHAOS_HEADER}: {kind}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    stream.write_all(raw.as_bytes()).expect("write request");
}

fn read(stream: &mut TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, _, body) = read_response(&mut reader).expect("read response");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn healthz(addr: SocketAddr) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("write healthz");
    let (status, body) = read(&mut stream);
    assert_eq!(status, 200, "healthz: {body}");
    parse_json(&body).expect("healthz json")
}

fn worker_stat(h: &Value, key: &str) -> f64 {
    h.get("workers")
        .and_then(|w| w.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(-1.0)
}

fn shutdown(addr: SocketAddr, handle: ServerHandle) {
    let (status, _) = roundtrip(addr, "/v1/shutdown", "", None);
    assert_eq!(status, 200);
    handle.wait();
}

const PREDICT: &str = r#"{"kernel": "PI", "n": 256, "procs": 4}"#;

/// Satellite: a panicking handler is answered as a structured 500 and
/// does NOT reduce the healthz-reported capacity — the worker that
/// caught it keeps serving.
#[test]
fn panicking_handler_does_not_reduce_capacity() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            chaos: true,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    for _ in 0..4 {
        let (status, body) = roundtrip(addr, "/v1/predict", PREDICT, Some("handler"));
        assert_eq!(status, 500, "{body}");
        let v = parse_json(&body).expect("structured 500");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("panic"),
            "{body}"
        );
    }

    let h = healthz(addr);
    assert_eq!(worker_stat(&h, "configured"), 2.0);
    assert_eq!(worker_stat(&h, "live"), 2.0, "capacity shrank: {h:?}");
    assert_eq!(worker_stat(&h, "deaths"), 0.0);
    assert!(worker_stat(&h, "panics") >= 4.0);

    // And the pool still answers real work.
    let (status, _) = roundtrip(addr, "/v1/predict", PREDICT, None);
    assert_eq!(status, 200);
    shutdown(addr, handle);
}

/// The chaos header is inert unless the server opted into chaos.
#[test]
fn chaos_header_is_ignored_when_chaos_disabled() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();
    let (status, body) = roundtrip(addr, "/v1/predict", PREDICT, Some("handler"));
    assert_eq!(status, 200, "{body}");
    shutdown(addr, handle);
}

/// A worker that dies outright (panic outside the isolation boundary) is
/// detected and respawned by the supervisor; the pool returns to full
/// strength.
#[test]
fn supervisor_respawns_a_dead_worker() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            chaos: true,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    // The fatal injection kills the worker before any response is
    // written: expect a dropped connection, not a status.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut stream, "/v1/predict", PREDICT, Some("fatal"));
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert!(
        read_response(&mut reader).is_err(),
        "fatal injection should drop the connection"
    );

    // The supervisor notices and respawns; poll until the pool is whole.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let h = healthz(addr);
        if worker_stat(&h, "live") == 2.0 && worker_stat(&h, "respawns") >= 1.0 {
            assert!(worker_stat(&h, "deaths") >= 1.0);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never restored the pool: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, _) = roundtrip(addr, "/v1/predict", PREDICT, None);
    assert_eq!(status, 200);
    shutdown(addr, handle);
}

/// Satellite: a `deadline_ms` that is already expired at parse time
/// short-circuits to 504 before any pipeline stage — even before the
/// handler would have rejected the request for other reasons.
#[test]
fn expired_deadline_short_circuits_at_parse_time() {
    let api = Api::new(&CacheConfig::default());

    let resp = api.handle(&post(
        "/v1/predict",
        r#"{"kernel": "PI", "n": 256, "procs": 4, "deadline_ms": 0}"#,
    ));
    assert_eq!(resp.status, 504, "expired deadline must be 504");

    // An unknown kernel normally draws a 400 — but the dead deadline is
    // checked first, so no validation (no pipeline stage) ever runs.
    let resp = api.handle(&post(
        "/v1/predict",
        r#"{"kernel": "NO-SUCH-KERNEL", "n": 256, "procs": 4, "deadline_ms": 0}"#,
    ));
    assert_eq!(resp.status, 504, "parse-time check must precede validation");
    let resp = api.handle(&post(
        "/v1/predict",
        r#"{"kernel": "NO-SUCH-KERNEL", "n": 256, "procs": 4}"#,
    ));
    assert_eq!(resp.status, 400, "without a deadline the 400 is back");
}

/// Satellite: under sustained overload every rejected connection gets a
/// 429 **with** a `Retry-After` header — overload never degrades into
/// bare errors.
#[test]
fn overload_429_always_carries_retry_after() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout_ms: 1_000,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    // Wedge the single worker with a stalled half-request, then fill the
    // one queue slot.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris
        .write_all(b"POST /v1/predict HTTP/1.1\r\ncontent-le")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the worker adopt it
    let mut queued = TcpStream::connect(addr).expect("queued connect");
    queued
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut queued, "/v1/predict", PREDICT, None);
    std::thread::sleep(Duration::from_millis(100)); // let it enqueue

    let mut saw_429 = 0;
    for _ in 0..5 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        send(&mut stream, "/v1/predict", PREDICT, None);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, headers, _) = read_response(&mut reader).expect("read 429");
        if status == 429 {
            saw_429 += 1;
            assert!(
                headers
                    .iter()
                    .any(|(k, v)| k == "retry-after" && !v.is_empty()),
                "429 without Retry-After: {headers:?}"
            );
        }
    }
    assert!(saw_429 >= 3, "expected sustained 429s, saw {saw_429}");

    // The stalled connection resolves (408) and service resumes.
    let (status, _) = read(&mut loris);
    assert_eq!(status, 408);
    let (status, _) = read(&mut queued);
    assert!(status == 200 || status == 504, "queued got {status}");
    let (status, _) = roundtrip(addr, "/v1/predict", PREDICT, None);
    assert_eq!(status, 200, "service did not recover after overload");
    shutdown(addr, handle);
}

/// Satellite: a half-request that stalls is closed by the read timeout
/// with a 408 and does not wedge the worker.
#[test]
fn stalled_half_request_gets_408_and_frees_the_worker() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            read_timeout_ms: 150,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled
        .write_all(b"POST /v1/predict HTTP/1.1\r\ncontent-le")
        .unwrap();
    let (status, body) = read(&mut stalled);
    assert_eq!(status, 408, "{body}");

    // The single worker is free again: a real request answers promptly.
    let t0 = Instant::now();
    let (status, _) = roundtrip(addr, "/v1/predict", PREDICT, None);
    assert_eq!(status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "worker appears wedged"
    );
    shutdown(addr, handle);
}

/// Satellite: a handler-level error response (400) does not poison the
/// keep-alive connection — the next request on the same socket succeeds.
#[test]
fn error_response_does_not_poison_keep_alive() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut stream, "/v1/predict", r#"{"kernel": "NO-SUCH"}"#, None);
    let (status, body) = read(&mut stream);
    assert_eq!(status, 400, "{body}");

    // Same socket, next request: must be served, not dropped.
    send(&mut stream, "/v1/predict", PREDICT, None);
    let (status, body) = read(&mut stream);
    assert_eq!(status, 200, "keep-alive poisoned after 400: {body}");
    // Release the single worker (it would otherwise hold this keep-alive
    // socket until the idle timeout and the shutdown would be shed).
    drop(stream);
    shutdown(addr, handle);
}

/// Connections that out-wait the queue-wait cap are shed at dequeue with
/// a structured 504 instead of being served after their caller gave up.
#[test]
fn stale_queued_connections_are_shed_with_504() {
    let handle = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            read_timeout_ms: 400,
            queue_wait_cap_ms: 50,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    // Hold the only worker past the queue-wait cap…
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris
        .write_all(b"POST /v1/predict HTTP/1.1\r\ncontent-le")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // …so this queued connection is already stale at dequeue.
    let mut stale = TcpStream::connect(addr).expect("connect");
    stale
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send(&mut stale, "/v1/predict", PREDICT, None);

    let (status, _) = read(&mut loris);
    assert_eq!(status, 408);
    let (status, body) = read(&mut stale);
    assert_eq!(status, 504, "{body}");
    let v = parse_json(&body).expect("structured shed body");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("shed"),
        "{body}"
    );
    shutdown(addr, handle);
}

/// The whole chaos harness, in-process and scaled down: baseline and
/// chaos passes run, the contract holds, the report renders a PASS.
#[test]
fn chaos_quick_run_passes() {
    let report = chaos::run(&ChaosConfig {
        requests: 120,
        clients: 2,
        workers: 2,
        seed: 0x7E57,
        read_timeout_ms: 150,
        queue_wait_cap_ms: 2_000,
    })
    .expect("chaos run");
    assert!(report.passed(), "chaos failed:\n{}", report.render());
    assert_eq!(report.worker_deaths, 0);
    assert_eq!(report.baseline_checksum, report.healthy_checksum);
    assert!(report.render().contains("verdict: PASS"));
}

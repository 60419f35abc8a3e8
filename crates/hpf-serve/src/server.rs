//! The concurrent server: acceptor + supervised worker pool over a
//! bounded connection queue.
//!
//! Concurrency model, simplest-thing-that-is-correct:
//!
//! * one **acceptor** thread owns the listening socket. Accepted
//!   connections go into a bounded queue (timestamped at enqueue); when
//!   the queue is full the acceptor answers `429 Too Many Requests` with
//!   a `Retry-After` header and closes — explicit backpressure instead
//!   of an unbounded backlog;
//! * a **fixed pool** of worker threads pops connections and serves them
//!   keep-alive until the peer closes, a read times out, or shutdown
//!   begins. Handlers are pure ([`crate::api`]), so any worker can serve
//!   any request and the response bytes do not depend on which one did;
//! * **per-connection buffers**: a connection reads through one
//!   [`http::RequestReader`] (a bounded head buffer and a reused
//!   [`http::Request`]) and writes through one write buffer that is
//!   flushed when no pipelined request is waiting, so a warm keep-alive
//!   request allocates nothing between the socket reads and writes;
//! * **panic isolation**: each request dispatch runs under
//!   `catch_unwind`, so a panicking handler answers a structured 500
//!   (with a panic-payload excerpt) and the pool keeps its capacity —
//!   the connection is closed, the worker survives;
//! * a **supervisor** thread watches for the panics that escape the
//!   wrapper anyway (a worker thread dying): each death is counted,
//!   surfaced in `/v1/healthz`, and answered with a respawned worker so
//!   the pool never silently shrinks;
//! * **deadline-aware shedding**: a connection that out-waits the
//!   queue-wait cap is answered with a structured 504 at dequeue instead
//!   of burning a worker on work its client has given up on;
//! * **graceful shutdown** is a `POST /v1/shutdown` (std has no signal
//!   API, so the SIGTERM role is played by an endpoint the supervisor —
//!   or CI — posts to): the acceptor stops accepting, idle workers wake
//!   and exit, busy workers finish the request in flight and close the
//!   connection after answering, and [`ServerHandle::wait`] joins them
//!   all (respawned workers included, via the supervisor) before
//!   returning.
//!
//! Trace counters (when tracing is enabled): `serve.conn.accepted`,
//! `serve.conn.rejected`, `serve.conn.served`, `serve.worker_panic`,
//! `serve.worker_death`, `serve.worker_respawn`, `serve.queue.shed`,
//! plus the request/cache/breaker counters the API layer and
//! [`crate::cache`] maintain. Every server thread (acceptor, workers,
//! supervisor, respawned workers) installs the recorder its [`Api`] was
//! built under when it starts, so a server counts only its own work.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpf_trace::json::Value;

use crate::api::{Api, CHAOS_HEADER, SCHEMA};
use crate::cache::CacheConfig;
use crate::http;
use crate::status::ServiceStatus;

const JSON: &str = "application/json";

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Connections that may wait for a worker before new ones get 429.
    pub queue_depth: usize,
    /// Keep-alive read timeout: an idle connection is closed after this
    /// long with no next request.
    pub read_timeout_ms: u64,
    /// `Retry-After` seconds advertised on 429.
    pub retry_after_s: u32,
    /// Longest a connection may wait in the accept queue before it is
    /// shed with a structured 504 at dequeue instead of served late.
    pub queue_wait_cap_ms: u64,
    /// Honor the test-only `x-chaos-panic` fault-injection header
    /// ([`crate::api::CHAOS_HEADER`]). Never enable outside the chaos
    /// harness and its tests.
    pub chaos: bool,
    pub cache: CacheConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            queue_depth: 64,
            read_timeout_ms: 5_000,
            retry_after_s: 1,
            queue_wait_cap_ms: 2_000,
            chaos: false,
            cache: CacheConfig::default(),
        }
    }
}

/// The default pool size: one worker per available hardware thread
/// ([`report::pool::available_threads`], read once per process), clamped
/// to [2, 64] — at least two so a single stalled connection never
/// serializes the whole service, at most 64 because beyond that the
/// bounded queue, not the pool, is the right lever.
pub fn default_workers() -> usize {
    report::pool::available_threads().clamp(2, 64)
}

/// A connection parked in the accept queue, timestamped so dequeue can
/// shed it if it has already out-waited the cap.
struct QueuedConn {
    stream: TcpStream,
    enqueued: Instant,
}

struct Shared {
    api: Api,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<QueuedConn>>,
    ready: Condvar,
    shutdown: AtomicBool,
    status: Arc<ServiceStatus>,
    /// Supervisor wakeup: notified by a dying worker's drop guard.
    supervisor_gate: Mutex<()>,
    supervisor_wake: Condvar,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake idle workers and the supervisor so they can observe the
        // flag and exit.
        self.ready.notify_all();
        self.supervisor_wake.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server: its bound address plus the thread handles needed to
/// stop it and drain it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder the server's threads record into.
    pub fn recorder(&self) -> &hpf_trace::Recorder {
        self.shared.api.recorder()
    }

    /// Trigger shutdown from in-process (equivalent to `POST
    /// /v1/shutdown`): stop accepting, let in-flight work finish.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until every server thread has exited. Returns cleanly only
    /// after in-flight connections have been answered and closed.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and start the acceptor + supervised worker pool.
pub fn start(addr: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let status = Arc::new(ServiceStatus::default());
    let workers = cfg.workers.max(1);
    // Cache lock shards default to the worker count (rounded up to a
    // power of two inside the cache): enough shards that workers rarely
    // collide, no more than could ever contend.
    let cache = CacheConfig {
        shards: if cfg.cache.shards == 0 {
            workers
        } else {
            cfg.cache.shards
        },
        ..cfg.cache.clone()
    };
    let shared = Arc::new(Shared {
        api: Api::with_runtime(&cache, status.clone(), cfg.chaos),
        cfg: ServerConfig {
            workers,
            queue_depth: cfg.queue_depth.max(1),
            cache,
            ..cfg
        },
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        status,
        supervisor_gate: Mutex::new(()),
        supervisor_wake: Condvar::new(),
    });
    shared
        .status
        .add(&shared.status.workers_configured, shared.cfg.workers);

    let mut threads = Vec::with_capacity(shared.cfg.workers + 2);
    for _ in 0..shared.cfg.workers {
        threads.push(spawn_recording(&shared, worker_entry));
    }
    threads.push(spawn_recording(&shared, supervisor_loop));
    threads.push(spawn_recording(&shared, move |s| {
        acceptor_loop(s, listener)
    }));
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// [`start`] a server that records into an enabled recorder of its own,
/// never into the caller's: what the load and chaos harnesses run, which
/// read its counters from [`ServerHandle::recorder`].
pub(crate) fn start_traced(addr: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let recorder = hpf_trace::Recorder::new();
    recorder.enable();
    let _recording = recorder.install();
    start(addr, cfg)
}

/// Spawn a server thread that records into the server's recorder.
fn spawn_recording(
    shared: &Arc<Shared>,
    body: impl FnOnce(&Arc<Shared>) + Send + 'static,
) -> JoinHandle<()> {
    let s = shared.clone();
    std::thread::spawn(move || {
        let _recording = s.api.recorder().install();
        body(&s)
    })
}

/// Worker thread body: liveness accounting plus the death guard that
/// turns an escaped panic into a supervisor wakeup instead of a silent
/// pool shrink.
fn worker_entry(shared: &Arc<Shared>) {
    struct DeathGuard {
        shared: Arc<Shared>,
    }
    impl Drop for DeathGuard {
        fn drop(&mut self) {
            let status = &self.shared.status;
            status.sub(&status.workers_live, 1);
            if std::thread::panicking() {
                status.add(&status.worker_deaths, 1);
                hpf_trace::counter_add("serve.worker_death", 1);
                self.shared.supervisor_wake.notify_all();
            }
        }
    }

    shared.status.add(&shared.status.workers_live, 1);
    let _guard = DeathGuard {
        shared: shared.clone(),
    };
    worker_loop(shared);
}

/// Respawn workers that died to escaped panics. Runs until shutdown,
/// then joins every worker it spawned so [`ServerHandle::wait`] (which
/// joins this thread) transitively drains them too.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut respawned: Vec<JoinHandle<()>> = Vec::new();
    loop {
        {
            let mut gate = lock(&shared.supervisor_gate);
            loop {
                if shared.shutting_down() {
                    drop(gate);
                    for t in respawned {
                        let _ = t.join();
                    }
                    return;
                }
                let status = &shared.status;
                if status.get(&status.worker_deaths) > status.get(&status.worker_respawns) {
                    break;
                }
                // Timed wait as a missed-notify backstop: the guard's
                // notify can race this loop's predicate check.
                let (g, _) = shared
                    .supervisor_wake
                    .wait_timeout(gate, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                gate = g;
            }
        }
        shared.status.add(&shared.status.worker_respawns, 1);
        hpf_trace::counter_add("serve.worker_respawn", 1);
        respawned.push(spawn_recording(shared, worker_entry));
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    // Non-blocking accept polled on a short tick, so shutdown is observed
    // promptly without platform signal machinery.
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(false);
                let mut q = lock(&shared.queue);
                if q.len() >= shared.cfg.queue_depth {
                    drop(q);
                    hpf_trace::counter_add("serve.conn.rejected", 1);
                    reject_overloaded(shared, stream);
                } else {
                    hpf_trace::counter_add("serve.conn.accepted", 1);
                    q.push_back(QueuedConn {
                        stream,
                        enqueued: Instant::now(),
                    });
                    shared.status.add(&shared.status.queue_len, 1);
                    drop(q);
                    shared.ready.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The backpressure answer: 429 + `Retry-After`, then close.
fn reject_overloaded(shared: &Shared, mut stream: TcpStream) {
    let body = Value::obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        (
            "error",
            Value::obj(vec![
                ("kind", Value::Str("overloaded".into())),
                (
                    "message",
                    Value::Str("request queue is full; retry shortly".into()),
                ),
            ]),
        ),
    ])
    .pretty();
    let _ = stream.write_all(&http::response_bytes(
        429,
        JSON,
        body.as_bytes(),
        false,
        Some(shared.cfg.retry_after_s),
    ));
}

/// The structured 500 a caught handler panic is answered with.
fn panic_response(payload: Box<dyn std::any::Any + Send>) -> crate::api::ApiResponse {
    let excerpt = crate::breaker::panic_excerpt(payload);
    let body = Value::obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        (
            "error",
            Value::obj(vec![
                ("kind", Value::Str("panic".into())),
                (
                    "message",
                    Value::Str(format!("handler panicked: {excerpt}")),
                ),
            ]),
        ),
    ])
    .pretty();
    crate::api::ApiResponse {
        status: 500,
        body: Arc::new(body.into_bytes()),
        cacheable: false,
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutting_down() {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match conn {
            Some(QueuedConn { stream, enqueued }) => {
                shared.status.sub(&shared.status.queue_len, 1);
                // Deadline-aware admission: a connection that out-waited
                // the queue cap is dead work — its client has timed out
                // or will. Shed it with a structured 504 instead of
                // burning this worker on a late answer.
                if enqueued.elapsed() > Duration::from_millis(shared.cfg.queue_wait_cap_ms) {
                    hpf_trace::counter_add("serve.queue.shed", 1);
                    shared.api.serve_metrics().note_shed();
                    shared.status.add(&shared.status.shed, 1);
                    shed_expired(shared, stream);
                    continue;
                }
                hpf_trace::counter_add("serve.conn.served", 1);
                serve_connection(shared, stream);
            }
            None => return,
        }
    }
}

/// The shedding answer: 504 + `Retry-After`, then close — without ever
/// reading the request (the connection is being dropped unserved).
fn shed_expired(shared: &Shared, mut stream: TcpStream) {
    let body = Value::obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        (
            "error",
            Value::obj(vec![
                ("kind", Value::Str("shed".into())),
                (
                    "message",
                    Value::Str(
                        "connection out-waited the queue-wait cap; shed before service".into(),
                    ),
                ),
            ]),
        ),
    ])
    .pretty();
    let _ = stream.write_all(&http::response_bytes(
        504,
        JSON,
        body.as_bytes(),
        false,
        Some(shared.cfg.retry_after_s),
    ));
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(32 << 10, read_half);
    // Responses go through a write buffer that is flushed only when the
    // read buffer holds no further pipelined request: a client that
    // writes a batch of requests in one burst gets its batch of
    // responses in one burst (one syscall each way), while a one-request
    // connection is flushed immediately. This is where the bulk of the
    // per-request syscall cost goes away — the warm in-process path is
    // microseconds, so write()+read() per request used to dominate. The
    // buffer is sized so a pipelined burst of ~2.5 KB bodies coalesces
    // into few write() calls.
    let mut writer = BufWriter::with_capacity(128 << 10, stream);
    // The connection's request buffers: a keep-alive request is parsed
    // into the same head buffer and `Request` as the one before it.
    let mut requests = http::RequestReader::default();
    loop {
        match requests.read(&mut reader) {
            // Peer closed between requests: normal end of a keep-alive
            // connection.
            Ok(None) => return,
            // Protocol violation or read timeout. Answer the 4xx (a
            // timed-out peer ignores it; a broken client learns why) and
            // close either way.
            Err(e) => {
                let body = Value::obj(vec![
                    ("schema", Value::Str(SCHEMA.into())),
                    (
                        "error",
                        Value::obj(vec![
                            ("kind", Value::Str("http".into())),
                            ("message", Value::Str(e.message.clone())),
                        ]),
                    ),
                ])
                .pretty();
                let _ =
                    http::write_response(&mut writer, e.status, JSON, body.as_bytes(), false, None);
                let _ = writer.flush();
                return;
            }
            Ok(Some(req)) => {
                if req.method == "POST" && req.path == "/v1/shutdown" {
                    shared.begin_shutdown();
                    let body = Value::obj(vec![
                        ("schema", Value::Str(SCHEMA.into())),
                        ("status", Value::Str("draining".into())),
                    ])
                    .pretty();
                    let _ =
                        http::write_response(&mut writer, 200, JSON, body.as_bytes(), false, None);
                    let _ = writer.flush();
                    return;
                }
                // Chaos-only: a `fatal` injection panics *outside* the
                // isolation wrapper, killing this worker thread — the
                // supervisor's respawn path is the thing under test.
                if shared.cfg.chaos && req.header(CHAOS_HEADER) == Some("fatal") {
                    panic!("chaos: injected fatal worker panic");
                }
                // Panic isolation: a panicking handler answers a
                // structured 500 and the worker keeps its place in the
                // pool. The connection is closed — its request/response
                // rhythm is intact, but a handler that panicked halfway
                // earns no further trust.
                let (resp, panicked) =
                    match catch_unwind(AssertUnwindSafe(|| shared.api.handle(req))) {
                        Ok(resp) => (resp, false),
                        Err(payload) => {
                            hpf_trace::counter_add("serve.worker_panic", 1);
                            shared.api.serve_metrics().note_panic();
                            shared.status.add(&shared.status.worker_panics, 1);
                            (panic_response(payload), true)
                        }
                    };
                // Once draining, answer the request in flight but refuse
                // to keep the connection open for more.
                let keep = !req.wants_close() && !shared.shutting_down() && !panicked;
                if http::write_response(&mut writer, resp.status, JSON, &resp.body, keep, None)
                    .is_err()
                {
                    return;
                }
                if !keep {
                    let _ = writer.flush();
                    return;
                }
                // Flush only when no further request is already buffered:
                // the client is (or will be) blocked waiting on us.
                if reader.buffer().is_empty() && writer.flush().is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::BufRead;

    fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes())
    }

    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        send(&mut stream, method, path, body).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, body) = read_response(&mut reader).unwrap();
        (status, body)
    }

    #[test]
    fn healthz_and_predict_over_a_real_socket() {
        let handle = start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let (status, body) = roundtrip(addr, "GET", "/v1/healthz", "");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

        let (status, body) = roundtrip(
            addr,
            "POST",
            "/v1/predict",
            r#"{"kernel": "PI", "n": 128, "procs": 4}"#,
        );
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("predicted_s"));

        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let handle = start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut bodies = Vec::new();
        for _ in 0..3 {
            send(
                &mut stream,
                "POST",
                "/v1/predict",
                r#"{"kernel": "PI", "n": 64, "procs": 4}"#,
            )
            .unwrap();
            let (status, _, body) = read_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            bodies.push(body);
        }
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!(bodies[1], bodies[2]);
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn full_queue_answers_429_with_retry_after() {
        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        let handle = start(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        // Occupy the single worker with an idle keep-alive connection.
        let held = TcpStream::connect(addr).unwrap();
        wait_for(|| rec.counter_get("serve.conn.served") == 1);
        // Fill the one queue slot with a second idle connection.
        let parked = TcpStream::connect(addr).unwrap();
        wait_for(|| rec.counter_get("serve.conn.accepted") == 2);

        // The third connection must be rejected with backpressure.
        let mut stream = TcpStream::connect(addr).unwrap();
        send(&mut stream, "GET", "/v1/healthz", "").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
        assert!(
            headers
                .iter()
                .any(|(k, v)| k == "retry-after" && !v.is_empty()),
            "{headers:?}"
        );
        assert_eq!(rec.counter_get("serve.conn.rejected"), 1);

        drop(held);
        drop(parked);
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn shutdown_endpoint_drains_and_joins() {
        let handle = start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr();
        let (status, body) = roundtrip(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("draining"));
        handle.wait();
        // The listener is gone: a fresh connect may be refused outright or
        // accepted by the OS backlog and then closed without a response.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = send(&mut s, "GET", "/v1/healthz", "");
            let mut line = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let n = BufReader::new(s).read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {line:?}");
        }
    }

    #[test]
    fn malformed_http_is_answered_and_closed() {
        let handle = start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 400);
        handle.shutdown();
        handle.wait();
    }

    fn wait_for(mut cond: impl FnMut() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition not reached within 1s");
    }
}

//! Deterministic load generator: a seeded request mix over the kernel
//! suite, fired at an in-process server over real sockets.
//!
//! The mix is a pure function of `(seed, request index)` — ~90% of
//! requests are warm Laplace predicts drawn from a handful of distinct
//! bodies (the steady-state shape a prediction service sees), the rest
//! spread over the other kernels and small sweep curves. Every response
//! body is folded into an FNV-1a checksum *in request-index order*, so
//! two runs with the same seed and request count produce the same
//! checksum no matter how many workers or client threads raced — the
//! drive-by proof of the service's byte-determinism contract.
//!
//! Clients pipeline: each writes a burst of up to `pipeline` requests in
//! one syscall and then drains the burst of responses (the server's
//! write buffering answers a burst with a burst). With the warm
//! in-process path at single-digit microseconds, per-request syscalls
//! and context switches were the throughput ceiling; amortizing them
//! over a burst is where the headline req/s comes from. Latency is
//! measured from burst write to each response read — the time a caller
//! of the batch actually waited.
//!
//! Reported: throughput, latency percentiles (p50/p95/p99/p99.9),
//! status counts, warm-cache hit rate (from the server's own
//! `serve.cache.{hit,miss}` counters via `GET /v1/metrics`), and the
//! body checksum.
//!
//! The [`run_overload`] profile is the opposite shape: connection churn
//! (one fresh connection per request), no pipelining, more clients than
//! workers, and a shallow queue — so the service is forced to shed. It
//! reports the served/shed split, percentiles over *served* responses
//! only, and a per-request-shape checksum (shedding is timing-dependent,
//! so which requests get 200 varies run to run, but every served body
//! for a shape must be byte-identical and every shape must be servable).
//!
//! Percentiles come from a [`QuantileSketch`] per client thread, merged
//! at the end — the same shard-then-merge shape the service itself uses,
//! and (by the sketch's exact-merge guarantee) identical to what one
//! sketch over all samples would report.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use hpf_trace::json::parse as parse_json;
use hpf_trace::{QuantileSketch, Recorder};
use report::{fnv1a, splitmix64, FNV_OFFSET};

use crate::http::{read_response, ResponseReader};
use crate::server::{start_traced, ServerConfig, ServerHandle};

/// Loadgen knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests in the run.
    pub requests: usize,
    /// Client threads. Clamped to `workers` so a parked keep-alive client
    /// can never starve the pool (each client holds one connection, each
    /// connection holds one worker).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Mix seed.
    pub seed: u64,
    /// Requests per pipelined burst (1 = classic write/read lockstep).
    pub pipeline: usize,
}

impl LoadgenConfig {
    /// The `--quick` preset the CI gate and EXPERIMENTS numbers use.
    pub fn quick() -> Self {
        LoadgenConfig {
            requests: 2_000,
            clients: 4,
            workers: 4,
            seed: 0x010A_D6E4,
            pipeline: 32,
        }
    }
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 10_000,
            ..LoadgenConfig::quick()
        }
    }
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    pub requests: usize,
    pub clients: usize,
    pub workers: usize,
    pub seed: u64,
    pub wall_s: f64,
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub ok: usize,
    pub failed: usize,
    /// `serve.cache.hit / (hit + miss)` over the run.
    pub cache_hit_rate: f64,
    /// FNV-1a over all response bodies in request-index order.
    pub checksum: u64,
}

impl LoadgenReport {
    pub fn render(&self) -> String {
        format!(
            "loadgen: {} requests, {} clients, {} workers, seed {:#x}\n\
             wall          {:.3} s\n\
             throughput    {:.0} req/s\n\
             latency p50   {:.3} ms\n\
             latency p95   {:.3} ms\n\
             latency p99   {:.3} ms\n\
             latency p99.9 {:.3} ms\n\
             ok / failed   {} / {}\n\
             cache hits    {:.1} %\n\
             checksum      {:016x}\n",
            self.requests,
            self.clients,
            self.workers,
            self.seed,
            self.wall_s,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.p999_ms,
            self.ok,
            self.failed,
            self.cache_hit_rate * 100.0,
            self.checksum
        )
    }
}

/// The deterministic request at index `i`: `(path, body)`.
pub fn request_at(seed: u64, i: usize) -> (&'static str, String) {
    let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)) % 100;
    match r {
        // ~90%: the warm Laplace predict mix — 6 distinct bodies.
        0..=89 => {
            let n = [64usize, 128, 256][(r % 3) as usize];
            let procs = [4usize, 8][(r % 2) as usize];
            (
                "/v1/predict",
                format!(r#"{{"kernel": "Laplace (Blk-Blk)", "n": {n}, "procs": {procs}}}"#),
            )
        }
        // ~5%: predicts over the rest of the suite.
        90..=94 => {
            let kernel = ["PI", "Laplace (Blk-X)", "Laplace (X-Blk)"][(r % 3) as usize];
            (
                "/v1/predict",
                format!(r#"{{"kernel": "{kernel}", "n": 128, "procs": 4}}"#),
            )
        }
        // ~5%: small predicted sweep curves.
        _ => (
            "/v1/sweep",
            format!(
                r#"{{"kernel": "PI", "sizes": {{"min": {}, "max": 128}}, "procs": 4}}"#,
                [32usize, 64][(r % 2) as usize]
            ),
        ),
    }
}

pub(crate) fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 * q).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

struct ClientResult {
    /// `(request index, latency ms, status, body hash)` per request.
    samples: Vec<(usize, f64, u16, u64)>,
    /// This client's latency shard (seconds), merged with the other
    /// clients' shards for the report percentiles.
    sketch: QuantileSketch,
}

fn raw_request(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One pipelined burst, serialized before the clock starts: the wire
/// bytes of up to `pipeline` requests and the request indices they
/// answer, in order.
struct PreparedBurst {
    bytes: Vec<u8>,
    indices: Vec<usize>,
}

/// Serialize one client's share of the mix into bursts ahead of time —
/// the generator's own `format!` work must not count against the
/// service's measured throughput.
fn prepare_bursts(
    seed: u64,
    requests: usize,
    stride: usize,
    first: usize,
    pipeline: usize,
) -> Vec<PreparedBurst> {
    let pipeline = pipeline.max(1);
    let mut bursts = Vec::new();
    let mut i = first;
    while i < requests {
        let mut bytes = Vec::new();
        let mut indices = Vec::with_capacity(pipeline);
        while indices.len() < pipeline && i < requests {
            let (path, body) = request_at(seed, i);
            bytes.extend_from_slice(raw_request(path, &body).as_bytes());
            indices.push(i);
            i += stride;
        }
        bursts.push(PreparedBurst { bytes, indices });
    }
    bursts
}

/// Hash a response body, memoizing by exact bytes: the mix is
/// duplicate-heavy (a handful of distinct shapes), and a 2.5 KB FNV walk
/// per response costs more than the entire server-side hot path. An
/// exact `==` (memcmp) against the few seen bodies is ~30× cheaper and
/// yields bit-identical hashes, so the checksum is unchanged.
fn memoized_hash(memo: &mut Vec<(Vec<u8>, u64)>, body: &[u8]) -> u64 {
    for (seen, hash) in memo.iter() {
        if seen.as_slice() == body {
            return *hash;
        }
    }
    let hash = fnv1a(FNV_OFFSET, body);
    // Bound the memo so a pathological mix of all-distinct bodies
    // degrades to plain hashing instead of unbounded memory.
    if memo.len() < 64 {
        memo.push((body.to_vec(), hash));
    }
    hash
}

fn client_run(
    addr: std::net::SocketAddr,
    bursts: Vec<PreparedBurst>,
) -> std::io::Result<ClientResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(256 << 10, stream.try_clone()?);
    let mut stream = stream;
    let total: usize = bursts.iter().map(|b| b.indices.len()).sum();
    let mut samples = Vec::with_capacity(total);
    let mut sketch = QuantileSketch::new();
    let mut memo: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut responses = ResponseReader::default();
    for burst in &bursts {
        // One burst: up to `pipeline` requests in a single write, then
        // drain that many responses. Latency for each response is
        // measured from the burst write — what a caller who sent the
        // batch actually waited for that answer.
        let t0 = Instant::now();
        stream.write_all(&burst.bytes)?;
        for &idx in &burst.indices {
            let (status, _, body) = responses
                .read(&mut reader)
                .map_err(|e| std::io::Error::other(e.message))?;
            let secs = t0.elapsed().as_secs_f64();
            sketch.record(secs);
            samples.push((idx, secs * 1e3, *status, memoized_hash(&mut memo, body)));
        }
    }
    Ok(ClientResult { samples, sketch })
}

/// Warm-cache hit rate from the server's own counters.
fn hit_rate(recorder: &Recorder) -> f64 {
    let hit = recorder.counter_get("serve.cache.hit") as f64;
    let miss = recorder.counter_get("serve.cache.miss") as f64;
    if hit + miss == 0.0 {
        0.0
    } else {
        hit / (hit + miss)
    }
}

/// Shut a server down the way a supervisor would, over the wire, and wait
/// for it to drain.
pub(crate) fn shutdown_over_the_wire(
    addr: std::net::SocketAddr,
    handle: ServerHandle,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"POST /v1/shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n")?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let _ = read_response(&mut reader);
    handle.wait();
    Ok(())
}

/// Run the generator against a fresh in-process server and drain it.
///
/// The server records into an enabled recorder of its own, so the
/// hit-rate counters exist; the instrumented pipeline is bit-neutral
/// under tracing, so this perturbs nothing.
pub fn run(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let workers = cfg.workers.max(1);
    let clients = cfg.clients.max(1).min(workers);

    let handle = start_traced(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            // Never the bottleneck here: clients <= workers holds every
            // connection on a worker, the queue stays empty.
            queue_depth: workers * 2,
            ..ServerConfig::default()
        },
    )?;
    let addr = handle.addr();

    // Serialize every client's bursts before the clock starts; the
    // measurement should time the service, not the generator.
    let prepared: Vec<Vec<PreparedBurst>> = (0..clients)
        .map(|j| prepare_bursts(cfg.seed, cfg.requests, clients, j, cfg.pipeline))
        .collect();

    let t0 = Instant::now();
    let mut joins = Vec::with_capacity(clients);
    for bursts in prepared {
        joins.push(std::thread::spawn(move || client_run(addr, bursts)));
    }
    let mut samples = Vec::with_capacity(cfg.requests);
    let mut merged = QuantileSketch::new();
    for j in joins {
        let result = j
            .join()
            .map_err(|_| std::io::Error::other("client thread panicked"))??;
        samples.extend(result.samples);
        merged.merge(&result.sketch);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let cache_hit_rate = hit_rate(handle.recorder());
    shutdown_over_the_wire(addr, handle)?;

    // Fold body hashes in request-index order: worker count and arrival
    // order cancel out of the checksum by construction.
    samples.sort_by_key(|&(i, _, _, _)| i);
    let mut checksum = FNV_OFFSET;
    let mut ok = 0;
    let mut failed = 0;
    for &(_, _, status, body_hash) in &samples {
        checksum = fnv1a(checksum, &body_hash.to_be_bytes());
        if status == 200 {
            ok += 1;
        } else {
            failed += 1;
        }
    }

    debug_assert_eq!(merged.count() as usize, samples.len());

    Ok(LoadgenReport {
        requests: cfg.requests,
        clients,
        workers,
        seed: cfg.seed,
        wall_s,
        throughput_rps: cfg.requests as f64 / wall_s.max(1e-9),
        p50_ms: merged.quantile(0.50) * 1e3,
        p95_ms: merged.quantile(0.95) * 1e3,
        p99_ms: merged.quantile(0.99) * 1e3,
        p999_ms: merged.quantile(0.999) * 1e3,
        ok,
        failed,
        cache_hit_rate,
        checksum,
    })
}

/// Overload-profile knobs: more clients than workers, a fresh connection
/// per request, and a shallow queue — the service must shed, and the
/// profile proves it sheds *structurally* (429/504) instead of serving
/// late.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Total requests attempted in the storm.
    pub requests: usize,
    /// Client threads — deliberately more than workers.
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Mix seed (the same duplicate-heavy mix as the healthy profile).
    pub seed: u64,
}

impl OverloadConfig {
    /// The `--overload` preset: 3 clients per worker, churn, shallow queue.
    pub fn quick() -> Self {
        OverloadConfig {
            requests: 2_000,
            clients: 12,
            workers: 4,
            seed: 0x0BAD_10AD,
        }
    }
}

/// One finished overload run.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    pub requests: usize,
    pub clients: usize,
    pub workers: usize,
    pub seed: u64,
    pub wall_s: f64,
    /// Requests answered 200.
    pub served: usize,
    /// Backpressure at accept: queue full.
    pub shed_429: usize,
    /// Shed at dequeue: out-waited the queue-wait cap.
    pub shed_504: usize,
    /// Other structured answers (408 on a stalled read, etc.).
    pub other_structured: usize,
    /// Non-structured failures: connection errors, unparseable bodies.
    /// The overload contract is that this stays zero — overload is
    /// handled by structured shedding, never by broken answers.
    pub failed: usize,
    /// Percentiles over *served* (200) responses only, from merged
    /// per-client sketch shards.
    pub served_p50_ms: f64,
    pub served_p99_ms: f64,
    pub served_p999_ms: f64,
    /// Distinct request shapes in the mix.
    pub shapes: usize,
    /// Shapes whose served bodies ever disagreed (must be zero).
    pub mismatched_shapes: usize,
    /// FNV-1a over one served body hash per shape, in first-occurrence
    /// order. Shedding decides *which* requests are served, never *what*
    /// a served answer contains, so this is run-to-run stable where the
    /// index-ordered healthy checksum would not be.
    pub checksum: u64,
}

impl OverloadReport {
    pub fn render(&self) -> String {
        format!(
            "overload: {} requests, {} clients, {} workers, seed {:#x}\n\
             wall            {:.3} s\n\
             attempted       {:.0} req/s\n\
             served          {}\n\
             shed 429 / 504  {} / {}\n\
             other / failed  {} / {}\n\
             served p50      {:.3} ms\n\
             served p99      {:.3} ms\n\
             served p99.9    {:.3} ms\n\
             shapes          {} ({} mismatched)\n\
             shape checksum  {:016x}\n",
            self.requests,
            self.clients,
            self.workers,
            self.seed,
            self.wall_s,
            self.requests as f64 / self.wall_s.max(1e-9),
            self.served,
            self.shed_429,
            self.shed_504,
            self.other_structured,
            self.failed,
            self.served_p50_ms,
            self.served_p99_ms,
            self.served_p999_ms,
            self.shapes,
            self.mismatched_shapes,
            self.checksum
        )
    }
}

/// A one-request connection with `connection: close` — real churn: every
/// request pays connect + accept, and the worker is freed at the write.
fn overload_raw(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Fire one churned request. Latency is measured from the request write
/// (connection setup excluded): the served-latency contract is about
/// service time, and under churn the accept path is the arrival process,
/// not the service.
fn overload_fire(addr: std::net::SocketAddr, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>, f64)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    let t0 = Instant::now();
    stream.write_all(raw)?;
    let mut reader = BufReader::new(stream);
    let (status, _, body) =
        read_response(&mut reader).map_err(|e| std::io::Error::other(e.message))?;
    Ok((status, body, t0.elapsed().as_secs_f64()))
}

/// Is this body a structured service answer (schema-stamped JSON)?
fn is_structured(body: &[u8]) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| parse_json(t).ok())
        .is_some_and(|v| v.get("schema").is_some())
}

struct OverloadClientResult {
    /// `(shape, status, body hash, latency s, structured)` per request.
    samples: Vec<(u32, u16, u64, f64, bool)>,
    /// Served-latency shard.
    sketch: QuantileSketch,
    /// Connection-level failures (no response at all).
    failed: usize,
}

fn overload_client(
    addr: std::net::SocketAddr,
    shapes: std::sync::Arc<Vec<(String, String, Vec<u8>)>>,
    shape_of: std::sync::Arc<Vec<u32>>,
    stride: usize,
    first: usize,
) -> OverloadClientResult {
    let mut samples = Vec::with_capacity(shape_of.len() / stride + 1);
    let mut sketch = QuantileSketch::new();
    let mut failed = 0;
    let mut i = first;
    while i < shape_of.len() {
        let shape = shape_of[i];
        match overload_fire(addr, &shapes[shape as usize].2) {
            Ok((status, body, secs)) => {
                if status == 200 {
                    sketch.record(secs);
                }
                samples.push((
                    shape,
                    status,
                    fnv1a(FNV_OFFSET, &body),
                    secs,
                    is_structured(&body),
                ));
            }
            Err(_) => failed += 1,
        }
        i += stride;
    }
    OverloadClientResult {
        samples,
        sketch,
        failed,
    }
}

/// Run the overload profile: saturate a small pool through churned
/// one-shot connections and prove the service sheds structurally while
/// serving byte-identical answers for whatever it does serve.
///
/// After the storm, any shape the shedding happened to starve completely
/// is fetched once on an idle server (bounded retries) so the per-shape
/// checksum always covers the whole mix.
pub fn run_overload(cfg: &OverloadConfig) -> std::io::Result<OverloadReport> {
    let workers = cfg.workers.max(1);
    let clients = cfg.clients.max(1);

    // The deterministic shape table: distinct (path, body) pairs in
    // first-occurrence order, and each request index's shape.
    let mut shape_index: BTreeMap<(&'static str, String), u32> = BTreeMap::new();
    let mut shapes: Vec<(String, String, Vec<u8>)> = Vec::new();
    let mut shape_of: Vec<u32> = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let (path, body) = request_at(cfg.seed, i);
        let next = shapes.len() as u32;
        let idx = *shape_index.entry((path, body.clone())).or_insert_with(|| {
            shapes.push((path.to_string(), body.clone(), overload_raw(path, &body)));
            next
        });
        shape_of.push(idx);
    }
    let shapes = std::sync::Arc::new(shapes);
    let shape_of = std::sync::Arc::new(shape_of);

    let handle = start_traced(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            // Shallow on purpose: the queue is the shedding instrument.
            queue_depth: workers * 2,
            // Tight dequeue cap: anything that waited longer is answered
            // 504, never served late — the flat-p99 half of the contract.
            queue_wait_cap_ms: 50,
            ..ServerConfig::default()
        },
    )?;
    let addr = handle.addr();

    let t0 = Instant::now();
    let mut joins = Vec::with_capacity(clients);
    for j in 0..clients {
        let shapes = shapes.clone();
        let shape_of = shape_of.clone();
        joins.push(std::thread::spawn(move || {
            overload_client(addr, shapes, shape_of, clients, j)
        }));
    }
    let mut samples = Vec::with_capacity(cfg.requests);
    let mut merged = QuantileSketch::new();
    let mut failed = 0;
    for j in joins {
        let result = j
            .join()
            .map_err(|_| std::io::Error::other("overload client panicked"))?;
        samples.extend(result.samples);
        merged.merge(&result.sketch);
        failed += result.failed;
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Aggregate: status split, structural check, per-shape body hashes.
    let mut served = 0;
    let mut shed_429 = 0;
    let mut shed_504 = 0;
    let mut other_structured = 0;
    let mut shape_hash: Vec<Option<u64>> = vec![None; shapes.len()];
    let mut mismatched: Vec<bool> = vec![false; shapes.len()];
    for &(shape, status, hash, _, structured) in &samples {
        if !structured {
            failed += 1;
            continue;
        }
        match status {
            200 => {
                served += 1;
                match shape_hash[shape as usize] {
                    None => shape_hash[shape as usize] = Some(hash),
                    Some(h) if h != hash => mismatched[shape as usize] = true,
                    Some(_) => {}
                }
            }
            429 => shed_429 += 1,
            504 => shed_504 += 1,
            _ => other_structured += 1,
        }
    }

    // Sweep-up: the storm is over, the queue is empty — any shape that
    // was shed every single time is fetched once so the checksum covers
    // the full mix.
    for (idx, slot) in shape_hash.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let raw = &shapes[idx].2;
        let mut fetched = None;
        for _ in 0..100 {
            match overload_fire(addr, raw) {
                Ok((200, body, _)) => {
                    fetched = Some(fnv1a(FNV_OFFSET, &body));
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
        match fetched {
            Some(h) => *slot = Some(h),
            None => {
                return Err(std::io::Error::other(format!(
                    "shape {idx} unservable even on an idle server"
                )))
            }
        }
    }

    shutdown_over_the_wire(addr, handle)?;

    let mut checksum = FNV_OFFSET;
    for slot in &shape_hash {
        checksum = fnv1a(checksum, &slot.expect("all shapes resolved").to_be_bytes());
    }

    Ok(OverloadReport {
        requests: cfg.requests,
        clients,
        workers,
        seed: cfg.seed,
        wall_s,
        served,
        shed_429,
        shed_504,
        other_structured,
        failed,
        served_p50_ms: merged.quantile(0.50) * 1e3,
        served_p99_ms: merged.quantile(0.99) * 1e3,
        served_p999_ms: merged.quantile(0.999) * 1e3,
        shapes: shapes.len(),
        mismatched_shapes: mismatched.iter().filter(|&&m| m).count(),
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_warm_heavy() {
        let a: Vec<_> = (0..500).map(|i| request_at(7, i)).collect();
        let b: Vec<_> = (0..500).map(|i| request_at(7, i)).collect();
        assert_eq!(a, b);
        let laplace = a
            .iter()
            .filter(|(_, body)| body.contains("Laplace (Blk-Blk)"))
            .count();
        assert!(laplace >= 400, "warm share too small: {laplace}/500");
        // The whole mix draws from a small body alphabet — that is what
        // makes the steady state warm.
        let distinct: std::collections::BTreeSet<_> =
            a.iter().map(|(p, b)| (*p, b.clone())).collect();
        assert!(distinct.len() <= 16, "{} distinct bodies", distinct.len());
    }

    #[test]
    fn percentile_is_rank_based() {
        let lat = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&lat, 0.50), 2.0);
        assert_eq!(percentile(&lat, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}

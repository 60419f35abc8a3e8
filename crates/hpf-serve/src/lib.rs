//! # hpf-serve — a concurrent prediction service over warm sessions
//!
//! The SC'94 framework was built to live inside an interactive
//! application-development environment: a developer edits directives and
//! asks "what would this cost on 16 nodes?" over and over. This crate
//! packages the prediction pipeline as a long-running HTTP/1.1 JSON
//! service shaped for exactly that loop — the expensive front half
//! (parse, semantic analysis, partitioning) happens once per distinct
//! program shape and is then re-served warm from bounded LRU caches,
//! while the cheap back half (interpretation over the AAG) runs per
//! request.
//!
//! Zero external dependencies, per the workspace's offline policy: the
//! HTTP layer ([`http`]), JSON (via `hpf_trace::json`), thread pool and
//! load generator ([`loadgen`]) are all std-only.
//!
//! ## Endpoints
//!
//! | route | answer |
//! |---|---|
//! | `POST /v1/predict` | per-phase predicted times for `(kernel or source, n, procs)` |
//! | `POST /v1/sweep`   | predicted (optionally DES-simulated) curve over a size range |
//! | `POST /v1/advise`  | top-k directive recommendations via the hpf-advisor search |
//! | `GET /v1/metrics`  | streaming metrics: counter totals, latency sketches, and the embedded `hpf-trace/v1` doc; `?since=<cursor>` answers deltas ([`metrics`]) |
//! | `GET /v1/healthz`  | liveness: pool strength, queue depth, panics, breaker state |
//! | `POST /v1/shutdown`| graceful drain: answer in-flight work, then exit |
//!
//! ## Guarantees
//!
//! * **Determinism** — responses for identical requests are bit-identical
//!   regardless of worker count or arrival order (pure handlers, sorted
//!   JSON keys, seeded simulation); the loadgen checksum and the
//!   end-to-end tests enforce this.
//! * **Bounded memory** — every cache layer (kernel artifacts, bound
//!   programs, responses, and the process-wide profile memo in `report`)
//!   is LRU-bounded. The process-wide calibration memo in `report` is a
//!   map, not an LRU: it holds one model per `(backend, nodes)` pair, so
//!   it is bounded only by the registry's backends and their node ranges.
//! * **Backpressure** — a full connection queue answers `429` with
//!   `Retry-After` instead of queueing without limit.
//! * **Graceful cancellation** — a request's one deadline is set when its
//!   body is parsed and checked between pipeline stages; an expired
//!   deadline yields `504` without interrupting a stage midway, and a
//!   deadline that is already dead at parse time short-circuits before
//!   any pipeline stage runs.
//! * **Crash isolation** — a panicking handler is caught at the worker
//!   boundary and answered as a structured `500` (kind `panic`); the
//!   worker survives, and a supervisor respawns any worker that dies
//!   anyway, so the pool never silently shrinks ([`server`], [`status`]).
//! * **Deadline-aware shedding** — connections that out-wait the
//!   queue-wait cap are shed at dequeue with a structured `504` instead
//!   of being serviced after their caller gave up.
//! * **Graceful degradation** — the DES cross-check runs behind a
//!   circuit [`breaker`]; when it trips, sweeps and advice are served
//!   analytic-only with `"degraded": true` rather than failing.
//! * **Chaos-tested** — the seeded, replayable service-level [`chaos`]
//!   plan (`serve chaos`) injects handler panics, DES panics, deadline
//!   storms, slow-loris reads, truncated bodies and client aborts, and
//!   asserts zero worker deaths, structured answers for every fault, and
//!   a healthy-request checksum bit-identical to a fault-free run.

pub mod api;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod status;

pub use api::{Api, ApiResponse, SCHEMA};
pub use breaker::{Breaker, BreakerConfig, BreakerOutcome};
pub use cache::{CacheConfig, Deadline, ServeCache, ServeFailure, ShardedLru};
pub use chaos::{ChaosConfig, ChaosReport};
pub use loadgen::{LoadgenConfig, LoadgenReport, OverloadConfig, OverloadReport};
pub use metrics::{ServeMetrics, METRICS_SCHEMA};
pub use server::{default_workers, start, ServerConfig, ServerHandle};
pub use status::ServiceStatus;

//! Warm compiled state shared by every worker, behind bounded LRU caches.
//!
//! Three layers, all keyed deterministically and all safe to recompute on a
//! miss (every cached object is a pure function of its key):
//!
//! * **kernel artifacts** — [`kernels::CompiledKernel`], one parse per
//!   kernel shape (the PR-3 warm-session primitive);
//! * **bound programs** — one [`report::Bound`] (analyzed, SPMD and AAG)
//!   per `(origin, n, procs)` point, so a request for a bound point skips
//!   parse, semantic analysis *and* partitioning entirely. An inline
//!   source is keyed by its full text (directives included — they shape
//!   the partitioning). A bind miss of a predict parses the source; a
//!   sweep parses it once and binds every point from that parse;
//! * **responses** — the serialized JSON answer per exact request. A
//!   request's identity is its POST [`Route`] and its raw body bytes; the
//!   layer is keyed by the body alone, and each entry holds one answer
//!   slot per route. A lookup borrows the request's body as the key and
//!   reads the route's slot, before the body is parsed and without
//!   copying it, so a warm `/v1/predict` is one hash lookup. A request
//!   that differs in any byte (reordered keys, other whitespace, another
//!   `deadline_ms`) is computed again; handlers are deterministic, so it
//!   gets the same bytes. Capacity is [`CacheConfig::bodies`] bodies.
//!
//! Each layer is a [`ShardedLru`]: N power-of-two shards selected by the
//! FNV-1a hash of the key (no hash at all with one shard), each shard its
//! own mutex *and* its own LRU clock, so hot-path lookups from different
//! workers stop convoying on one global lock. A failed `try_lock`
//! (another worker holds the shard) is counted on
//! `serve.cache.shard_contention` before falling back to a blocking lock
//! — the counter is the observable proof that sharding is (or is not)
//! pulling its weight at a given worker count.
//!
//! Cold misses are further deduplicated by a [`SingleFlight`] table keyed
//! by the request's path and body ([`response_key`], built only on a
//! miss): the first request for a missing answer
//! becomes the *leader* and computes it; concurrent duplicates park on a
//! condvar and receive the leader's `Arc<Vec<u8>>` verbatim. The leader
//! stores its answer before it releases its waiters, so a duplicate that
//! arrives after the flight ends is a cache hit, never a second leader.
//! Only cacheable 200 bodies are shared — a degraded or failed leader
//! publishes "solo", and every parked waiter then computes its own answer
//! (degraded bodies depend on breaker state, not the request, so replaying
//! them to waiters could serve a stale degradation).
//!
//! Functional-interpreter profiles are *not* cached here: they live in the
//! process-wide memo behind [`report::shared_profile`], keyed by the
//! directive-stripped source, so directive variants of one program share a
//! single profile with the advisor and the sweep sessions.
//!
//! Misses are computed outside the cache locks; two workers racing on the
//! same key both compute the same (deterministic) value and the second
//! insert is a harmless overwrite — responses stay bit-identical whatever
//! the interleaving.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use hpf_compiler::{compile, CompileOptions};
use hpf_lang::ast::Program;
use hpf_lang::{analyze, parse_program};
use kernels::CompiledKernel;
use report::lru::LruMap;
use report::{fnv1a, Bound, PipelineError, PipelineStage, FNV_OFFSET};

/// Distinct kernel artifacts.
const KERNEL_ARTIFACTS: usize = 32;

/// Distinct bound programs.
const BOUND_PROGRAMS: usize = 128;

/// Capacities of the serving caches.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Distinct request bodies with cached responses.
    pub bodies: usize,
    /// Lock shards per cache layer, rounded up to a power of two.
    /// `0` = derive: the server sets it from its worker count; a
    /// standalone [`ServeCache::new`] falls back to a single shard.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            bodies: 512,
            shards: 0,
        }
    }
}

/// A POST route whose answers the response cache holds: the slot its
/// answer takes in a cached body's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Predict,
    Sweep,
    Advise,
}

/// The identity of a POST as one string, its path and raw body bytes: the
/// single-flight key of a request that missed the response cache, which
/// is keyed by the same two parts, so "same cached answer" and "same
/// in-flight computation" can never disagree about request identity.
pub fn response_key(path: &str, raw: &str) -> String {
    format!("{path}\u{0}{raw}")
}

/// A request deadline, checked between pipeline stages: work in progress
/// is never interrupted mid-stage, but no new stage starts past the
/// deadline — the graceful-cancellation contract.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline (loadgen warmup, tests).
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Deadline {
            at: Some(Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Fail with the stage that would have started past the deadline.
    pub fn check(&self, stage: &'static str) -> Result<(), ServeFailure> {
        match self.at {
            Some(at) if Instant::now() >= at => {
                hpf_trace::counter_add("serve.deadline_exceeded", 1);
                Err(ServeFailure::Deadline { stage })
            }
            _ => Ok(()),
        }
    }

    /// Budget left: `None` = unbounded, `Some(ZERO)` = already expired.
    /// Parked single-flight waiters use this to bound their condvar wait.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// Why a cached evaluation could not be served.
#[derive(Debug)]
pub enum ServeFailure {
    /// The compilation pipeline rejected the program (spanned, maps to a
    /// structured 400).
    Pipeline(PipelineError),
    /// The request deadline expired before `stage` could start (504).
    Deadline { stage: &'static str },
}

impl From<PipelineError> for ServeFailure {
    fn from(e: PipelineError) -> Self {
        ServeFailure::Pipeline(e)
    }
}

impl From<kernels::KernelBindError> for ServeFailure {
    fn from(e: kernels::KernelBindError) -> Self {
        ServeFailure::Pipeline(e.into())
    }
}

impl std::fmt::Display for ServeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeFailure::Pipeline(e) => write!(f, "{e}"),
            ServeFailure::Deadline { stage } => {
                write!(f, "deadline exceeded before stage `{stage}`")
            }
        }
    }
}

fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shard `key` maps to under `mask` (shard count − 1): its FNV-1a
/// hash masked, or shard 0 without hashing when there is one shard.
fn shard_of(key: &str, mask: u64) -> usize {
    if mask == 0 {
        return 0;
    }
    (fnv1a(FNV_OFFSET, key.as_bytes()) & mask) as usize
}

/// A bounded LRU map split into power-of-two lock shards.
///
/// The shard for a key is `fnv1a(key) & (shards - 1)` (shard 0, with no
/// hashing, when there is one shard); each shard is an
/// independent [`LruMap`] with its own capacity slice and its own logical
/// clock, so recency ordering (and therefore eviction) is per-shard.
/// Every cached value is a pure function of its key, so shard-local
/// eviction can only ever cost a recompute, never correctness.
///
/// Lock acquisition first tries `try_lock`; when another thread holds the
/// shard the miss is counted on `serve.cache.shard_contention` before
/// blocking — making lock convoys visible instead of silent.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<LruMap<String, V>>>,
    mask: u64,
}

impl<V: Clone> ShardedLru<V> {
    /// `total_cap` entries spread over `shard_count` shards (rounded up
    /// to a power of two, at least one; each shard holds at least one
    /// entry).
    pub fn new(total_cap: usize, shard_count: usize) -> Self {
        let count = shard_count.max(1).next_power_of_two();
        let per_shard = total_cap.div_ceil(count).max(1);
        ShardedLru {
            shards: (0..count)
                .map(|_| Mutex::new(LruMap::new(per_shard)))
                .collect(),
            mask: count as u64 - 1,
        }
    }

    /// Number of lock shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Capacity of each shard.
    pub fn per_shard_cap(&self) -> usize {
        lock_plain(&self.shards[0]).capacity()
    }

    /// The shard index `key` maps to.
    pub fn shard_index(&self, key: &str) -> usize {
        shard_of(key, self.mask)
    }

    /// Entries currently held, per shard (for capacity assertions).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock_plain(s).len()).collect()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Is the whole map empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, LruMap<String, V>> {
        match self.shards[idx].try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                hpf_trace::counter_add("serve.cache.shard_contention", 1);
                lock_plain(&self.shards[idx])
            }
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Look up `key`, marking it most recently used in its shard.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_with(key, V::clone)
    }

    /// Look up `key` and read its value through `read` under the shard
    /// lock, marking it most recently used.
    pub fn get_with<R>(&self, key: &str, read: impl FnOnce(&V) -> R) -> Option<R> {
        self.lock_shard(self.shard_index(key)).get(key).map(read)
    }

    /// Change the value under `key` through `change`, starting from
    /// `V::default()` when the key is absent, under one hold of the
    /// shard lock; returns the entry the shard evicted, if any.
    pub fn update(&self, key: &str, change: impl FnOnce(&mut V)) -> Option<(String, V)>
    where
        V: Default,
    {
        let mut shard = self.lock_shard(self.shard_index(key));
        let mut value = shard.get(key).cloned().unwrap_or_default();
        change(&mut value);
        shard.insert(key.to_string(), value)
    }

    /// Insert `key → value`; returns the entry the shard evicted, if any.
    pub fn insert(&self, key: String, value: V) -> Option<(String, V)> {
        let idx = self.shard_index(&key);
        self.lock_shard(idx).insert(key, value)
    }
}

/// Outcome of parking on an in-flight computation.
#[derive(Debug)]
pub enum FlightWait {
    /// The leader published a cacheable 200 body — serve it verbatim.
    Shared(Arc<Vec<u8>>),
    /// The leader's answer was not shareable (error, degraded, 504):
    /// compute independently.
    Solo,
    /// The waiter's own deadline expired before the leader finished.
    Expired,
}

#[derive(Debug)]
enum FlightState {
    Pending,
    Shared(Arc<Vec<u8>>),
    Solo,
}

/// One in-flight computation: concurrent requests with the same response
/// key park here until the leader publishes.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    /// Park until the leader publishes, bounded by the waiter's own
    /// deadline — a parked request is still subject to its caller's
    /// budget and answers 504 rather than waiting past it.
    pub fn wait(&self, deadline: &Deadline) -> FlightWait {
        // The tick bounds each sleep so a deadline that lands mid-wait is
        // honored promptly even if a wakeup is missed.
        const TICK: Duration = Duration::from_millis(100);
        let mut st = lock_plain(&self.state);
        loop {
            match &*st {
                FlightState::Shared(b) => return FlightWait::Shared(b.clone()),
                FlightState::Solo => return FlightWait::Solo,
                FlightState::Pending => {}
            }
            let wait_for = match deadline.remaining() {
                Some(rem) if rem.is_zero() => return FlightWait::Expired,
                Some(rem) => rem.min(TICK),
                None => TICK,
            };
            st = self
                .cv
                .wait_timeout(st, wait_for)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Leadership of one in-flight key. Publish a shareable body with
/// [`publish_shared`](FlightLeader::publish_shared); dropping without
/// publishing (error path, degraded answer, or a handler panic unwinding
/// through) releases every waiter as [`FlightWait::Solo`] — waiters can
/// never hang on a leader that failed.
#[derive(Debug)]
pub struct FlightLeader<'a> {
    table: &'a SingleFlight,
    key: Arc<str>,
    flight: Arc<Flight>,
}

impl FlightLeader<'_> {
    /// Hand the leader's cacheable 200 body to every parked duplicate.
    pub fn publish_shared(self, body: Arc<Vec<u8>>) {
        *lock_plain(&self.flight.state) = FlightState::Shared(body);
        // Drop removes the table entry and notifies the waiters.
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        // Remove the entry first so new arrivals start a fresh flight
        // instead of parking on a finished one.
        self.table.remove(&self.key);
        {
            let mut st = lock_plain(&self.flight.state);
            if matches!(*st, FlightState::Pending) {
                *st = FlightState::Solo;
            }
        }
        self.flight.cv.notify_all();
    }
}

/// Joining an in-flight table: either this request leads the computation
/// or it parks behind whoever does.
#[derive(Debug)]
pub enum FlightJoin<'a> {
    Leader(FlightLeader<'a>),
    Waiter(Arc<Flight>),
}

/// The per-shard in-flight table: at most one leader per response key at
/// any moment. Sharded with the same FNV mapping as the caches so
/// join/remove never funnel through one lock.
#[derive(Debug)]
pub struct SingleFlight {
    shards: Vec<Mutex<HashMap<Arc<str>, Arc<Flight>>>>,
    mask: u64,
}

impl SingleFlight {
    fn new(shard_count: usize) -> Self {
        let count = shard_count.max(1).next_power_of_two();
        SingleFlight {
            shards: (0..count).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: count as u64 - 1,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<Arc<str>, Arc<Flight>>> {
        &self.shards[shard_of(key, self.mask)]
    }

    /// Become the leader for `key`, or park behind the current one.
    pub fn join(&self, key: &str) -> FlightJoin<'_> {
        let mut map = lock_plain(self.shard(key));
        if let Some(f) = map.get(key) {
            return FlightJoin::Waiter(f.clone());
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        let key: Arc<str> = Arc::from(key);
        map.insert(key.clone(), flight.clone());
        FlightJoin::Leader(FlightLeader {
            table: self,
            key,
            flight,
        })
    }

    fn remove(&self, key: &str) {
        lock_plain(self.shard(key)).remove(key);
    }
}

/// The shared cache stack. One instance per server, shared by every
/// worker behind an `Arc`.
#[derive(Debug)]
pub struct ServeCache {
    kernels: ShardedLru<Arc<CompiledKernel>>,
    binds: ShardedLru<Arc<Bound>>,
    /// Keyed by the raw request body: one answer slot per [`Route`].
    responses: ShardedLru<RouteSlots>,
    flights: SingleFlight,
}

/// The cached answers to one request body, one slot per [`Route`],
/// indexed by it. Each answer is behind an `Arc`, so an entry holds three
/// pointers however many routes have answered.
type RouteSlots = [Option<Arc<CachedResponse>>; 3];

/// One cached answer: a cacheable 200 body, plus the latency sketches the
/// request records into, so a hit feeds the same per-kernel and
/// per-machine distributions as the request that computed it.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    pub body: Arc<Vec<u8>>,
    /// `serve.latency.kernel.<name>`, for a request naming a suite kernel.
    pub kernel_metric: Option<&'static str>,
    /// `serve.latency.machine.<name>`, for a request naming a registry
    /// machine.
    pub machine_metric: Option<&'static str>,
}

fn counter_pair(prefix: &'static str, hit: bool) {
    hpf_trace::counter_add(
        match (prefix, hit) {
            ("session", true) => "serve.session.hit",
            ("session", false) => "serve.session.miss",
            ("bind", true) => "serve.bind.hit",
            ("bind", false) => "serve.bind.miss",
            _ => unreachable!(),
        },
        1,
    );
}

fn kernel_bind_key(name: &str, n: i64, procs: usize) -> String {
    format!("k\u{0}{name}\u{0}{n}\u{0}{procs}")
}

fn source_bind_key(source: &str, n: Option<i64>, procs: usize) -> String {
    format!(
        "s\u{0}{source}\u{0}{}\u{0}{procs}",
        n.map(|v| v.to_string()).unwrap_or_default()
    )
}

impl ServeCache {
    pub fn new(cfg: &CacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        ServeCache {
            kernels: ShardedLru::new(KERNEL_ARTIFACTS, shards),
            binds: ShardedLru::new(BOUND_PROGRAMS, shards),
            responses: ShardedLru::new(cfg.bodies, shards),
            flights: SingleFlight::new(shards),
        }
    }

    /// Join the in-flight table for a response key: lead or park.
    pub fn join_flight(&self, key: &str) -> FlightJoin<'_> {
        self.flights.join(key)
    }

    /// The compile-once artifact for a suite kernel (one parse per kernel
    /// shape, process lifetime permitting).
    pub fn kernel_artifact(&self, name: &str) -> Result<Arc<CompiledKernel>, ServeFailure> {
        if let Some(k) = self.kernels.get(name) {
            counter_pair("session", true);
            return Ok(k);
        }
        counter_pair("session", false);
        let kernel = kernels::kernel_by_name(name).ok_or_else(|| {
            ServeFailure::Pipeline(PipelineError::new(
                PipelineStage::Parse,
                format!("unknown kernel `{name}`"),
            ))
        })?;
        let compiled = Arc::new(CompiledKernel::new(&kernel)?);
        self.kernels.insert(name.to_string(), compiled.clone());
        Ok(compiled)
    }

    fn bind_cached(
        &self,
        key: &str,
        deadline: &Deadline,
        build: impl FnOnce() -> Result<Bound, ServeFailure>,
    ) -> Result<Arc<Bound>, ServeFailure> {
        if let Some(b) = self.binds.get(key) {
            counter_pair("bind", true);
            return Ok(b);
        }
        counter_pair("bind", false);
        deadline.check("bind")?;
        let built = Arc::new(build()?);
        self.binds.insert(key.to_string(), built.clone());
        Ok(built)
    }

    /// Bind a suite kernel to `(n, procs)` — warm, deadline-checked
    /// between the pipeline stages it runs on a miss (semantic analysis +
    /// SPMD lowering, then the AAG).
    pub fn bind_kernel(
        &self,
        name: &str,
        n: i64,
        procs: usize,
        deadline: &Deadline,
    ) -> Result<Arc<Bound>, ServeFailure> {
        self.bind_cached(&kernel_bind_key(name, n, procs), deadline, || {
            let compiled = self.kernel_artifact(name)?;
            deadline.check("analyze")?;
            let (analyzed, spmd) = compiled.bind(n, procs, &CompileOptions::default())?;
            deadline.check("build_aag")?;
            Ok(Bound::new(analyzed, spmd))
        })
    }

    /// Bind POSTed source to `(n, procs)`. `n = None` leaves the program's
    /// own PARAMETER values untouched; `Some(n)` overrides the critical
    /// variable `N` exactly like the kernel path. On a miss the bind
    /// analyzes `parsed`, the caller's parse of `source`, or parses
    /// `source` when given none.
    pub fn bind_source(
        &self,
        source: &str,
        parsed: Option<&Program>,
        n: Option<i64>,
        procs: usize,
        deadline: &Deadline,
    ) -> Result<Arc<Bound>, ServeFailure> {
        self.bind_cached(&source_bind_key(source, n, procs), deadline, || {
            let owned;
            let program = match parsed {
                Some(p) => p,
                None => {
                    owned = parse_program(source).map_err(PipelineError::from)?;
                    &owned
                }
            };
            deadline.check("analyze")?;
            let overrides = n.map(|n| ("N".to_string(), n)).into_iter().collect();
            let analyzed = analyze(program, &overrides).map_err(PipelineError::from)?;
            deadline.check("compile")?;
            let opts = CompileOptions {
                nodes: procs,
                ..CompileOptions::default()
            };
            let spmd = compile(&analyzed, &opts).map_err(PipelineError::from)?;
            deadline.check("build_aag")?;
            Ok(Bound::new(analyzed, spmd))
        })
    }

    /// The cached answer to `body` POSTed to `route`, looked up by the
    /// borrowed body without copying it. A hit counts on
    /// `serve.cache.hit` and on `serve.cache.wire_hit` (the name the
    /// exact-bytes layer has always reported under); the caller counts
    /// `serve.cache.miss` once the body has parsed and its deadline holds.
    pub fn response(&self, route: Route, body: &str) -> Option<CachedResponse> {
        let hit = self
            .responses
            .get_with(body, |slots| slots[route as usize].as_deref().cloned())
            .flatten();
        if hit.is_some() {
            hpf_trace::counter_add("serve.cache.hit", 1);
            hpf_trace::counter_add("serve.cache.wire_hit", 1);
        }
        hit
    }

    /// Store a cacheable 200 answer to `body` POSTed to `route`, beside
    /// the body's answers on other routes.
    pub fn store_response(&self, route: Route, body: &str, entry: CachedResponse) {
        self.responses
            .update(body, |slots| slots[route as usize] = Some(Arc::new(entry)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI_SRC: &str = "
PROGRAM PI
INTEGER, PARAMETER :: N = 128
REAL F(N), PIE
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
FORALL (I = 1:N) F(I) = 4.0 / (1.0 + ((I - 0.5) * (1.0 / N)) ** 2)
PIE = SUM(F) / N
END
";

    #[test]
    fn kernel_binds_are_reused() {
        let cache = ServeCache::new(&CacheConfig::default());
        let a = cache.bind_kernel("PI", 256, 4, &Deadline::none()).unwrap();
        let b = cache.bind_kernel("PI", 256, 4, &Deadline::none()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second bind must be served warm");
        let c = cache.bind_kernel("PI", 512, 4, &Deadline::none()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different n is a different artifact");
    }

    #[test]
    fn source_binds_are_reused_and_match_kernel_semantics() {
        let cache = ServeCache::new(&CacheConfig::default());
        let a = cache
            .bind_source(PI_SRC, None, None, 4, &Deadline::none())
            .unwrap();
        let b = cache
            .bind_source(PI_SRC, None, None, 4, &Deadline::none())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.spmd.nodes, 4);
    }

    #[test]
    fn unknown_kernel_is_a_pipeline_error() {
        let cache = ServeCache::new(&CacheConfig::default());
        match cache.bind_kernel("NOSUCH", 64, 4, &Deadline::none()) {
            Err(ServeFailure::Pipeline(e)) => assert!(e.message.contains("NOSUCH")),
            other => panic!("expected pipeline error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_source_is_a_spanned_pipeline_error() {
        let cache = ServeCache::new(&CacheConfig::default());
        let bad = "PROGRAM X\nREAL A(\nEND\n";
        match cache.bind_source(bad, None, None, 4, &Deadline::none()) {
            Err(ServeFailure::Pipeline(e)) => {
                assert!(e.line().is_some(), "diagnostic must carry a span: {e}")
            }
            other => panic!("expected pipeline error, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_before_the_next_stage() {
        let cache = ServeCache::new(&CacheConfig::default());
        // Already-expired deadline: the cold path must refuse to start.
        match cache.bind_kernel("PI", 300, 4, &Deadline::in_ms(0)) {
            Err(ServeFailure::Deadline { .. }) => {}
            other => panic!("expected deadline failure, got {other:?}"),
        }
        // A warm hit needs no stages, so it is served even when expired.
        cache.bind_kernel("PI", 300, 4, &Deadline::none()).unwrap();
        cache
            .bind_kernel("PI", 300, 4, &Deadline::in_ms(0))
            .expect("warm hit carries no further stages");
    }

    #[test]
    fn sharded_lru_spreads_and_bounds_per_shard() {
        let lru: ShardedLru<u32> = ShardedLru::new(8, 4);
        assert_eq!(lru.shard_count(), 4);
        assert_eq!(lru.per_shard_cap(), 2);
        for i in 0..64 {
            lru.insert(format!("key-{i}"), i);
        }
        let lens = lru.shard_lens();
        assert!(
            lens.iter().all(|&l| l <= 2),
            "shard over capacity: {lens:?}"
        );
        assert!(
            lens.iter().filter(|&&l| l > 0).count() >= 2,
            "FNV sharding left all keys in one shard: {lens:?}"
        );
    }

    #[test]
    fn sharded_lru_shard_count_rounds_up_to_power_of_two() {
        let lru: ShardedLru<u32> = ShardedLru::new(16, 3);
        assert_eq!(lru.shard_count(), 4);
        let lru: ShardedLru<u32> = ShardedLru::new(16, 0);
        assert_eq!(lru.shard_count(), 1);
    }

    #[test]
    fn single_flight_leader_shares_with_waiter() {
        let sf = SingleFlight::new(2);
        let leader = match sf.join("k") {
            FlightJoin::Leader(l) => l,
            FlightJoin::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join("k") {
            FlightJoin::Waiter(f) => f,
            FlightJoin::Leader(_) => panic!("second join must park"),
        };
        let body = Arc::new(b"{}".to_vec());
        let handle = std::thread::spawn({
            let waiter = waiter.clone();
            move || waiter.wait(&Deadline::none())
        });
        leader.publish_shared(body.clone());
        match handle.join().unwrap() {
            FlightWait::Shared(b) => assert!(Arc::ptr_eq(&b, &body)),
            other => panic!("expected shared body, got {other:?}"),
        }
        // The finished flight is gone: the next join leads again.
        assert!(matches!(sf.join("k"), FlightJoin::Leader(_)));
    }

    #[test]
    fn single_flight_dropped_leader_releases_waiters_solo() {
        let sf = SingleFlight::new(1);
        let leader = match sf.join("k") {
            FlightJoin::Leader(l) => l,
            FlightJoin::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join("k") {
            FlightJoin::Waiter(f) => f,
            FlightJoin::Leader(_) => panic!("second join must park"),
        };
        drop(leader); // error path: nothing published
        assert!(matches!(waiter.wait(&Deadline::none()), FlightWait::Solo));
    }

    #[test]
    fn single_flight_waiter_honors_its_own_deadline() {
        let sf = SingleFlight::new(1);
        let _leader = sf.join("k"); // held pending for the whole test
        let waiter = match sf.join("k") {
            FlightJoin::Waiter(f) => f,
            FlightJoin::Leader(_) => panic!("second join must park"),
        };
        assert!(matches!(
            waiter.wait(&Deadline::in_ms(0)),
            FlightWait::Expired
        ));
    }
}

//! Recorders: where spans and metrics go.
//!
//! A [`Recorder`] holds an enabled flag, a span store, counters and
//! quantile sketches. Three rules decide which recorder a call records
//! into:
//!
//! 1. The **process recorder** backs the free functions ([`crate::span()`],
//!    [`crate::counter_add`], [`crate::enable`], …) on every thread that
//!    has no recorder installed. Binaries and benchmarks use only this one.
//! 2. A recorder **installed** on a thread ([`Recorder::install`]) takes
//!    that thread's records until the guard drops.
//! 3. An **instance** (a service `Api` and its server, a fan-out pool's
//!    jobs) records into the recorder that was current on the thread that
//!    built it: it keeps [`Recorder::current`] and installs it on every
//!    thread it runs on.
//!
//! So two services, or two tests, that trace at the same time each count
//! only their own work.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::sketch::QuantileSketch;
use crate::span::{SpanSnapshot, SpanStat};

/// One recorder's state.
struct State {
    enabled: AtomicBool,
    /// One statistics cell per distinct span path.
    spans: Mutex<BTreeMap<String, SpanStat>>,
    metrics: Mutex<Metrics>,
}

/// Counters keyed by static names, and sketches keyed by owned names
/// (sketch names are often built at runtime, `serve.latency.kernel.<name>`).
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl State {
    const fn new() -> State {
        State {
            enabled: AtomicBool::new(false),
            spans: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(Metrics {
                counters: BTreeMap::new(),
                sketches: BTreeMap::new(),
            }),
        }
    }
}

static PROCESS: State = State::new();

thread_local! {
    /// The recorder installed on this thread; the process recorder when
    /// nothing is installed.
    static CURRENT: RefCell<Recorder> = const { RefCell::new(Recorder(None)) };
    /// Whether `CURRENT` holds a recorder other than the process one.
    /// Every instrumented call reads it first; it has no destructor, so
    /// the read is one plain thread-local load.
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` on the calling thread's current recorder. No lock, no
/// allocation, no reference-count traffic.
#[inline]
pub(crate) fn with_current<T>(f: impl FnOnce(&Recorder) -> T) -> T {
    if INSTALLED.with(Cell::get) {
        CURRENT.with(|c| f(&c.borrow()))
    } else {
        f(&Recorder(None))
    }
}

/// Make `next` the thread's current recorder; returns the one it replaces.
fn set_current(next: Recorder) -> Recorder {
    INSTALLED.with(|i| i.set(next.0.is_some()));
    CURRENT.with(|c| c.replace(next))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A handle on one recorder; clones share it. Starts disabled and empty.
#[derive(Clone)]
pub struct Recorder(
    /// `None` is the process recorder.
    Option<Arc<State>>,
);

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Guard returned by [`Recorder::install`]: while it lives, its recorder
/// is the thread's current one; dropping it restores the previous one.
#[must_use = "the recorder is installed only while the guard lives"]
pub struct Installed {
    /// The recorder to put back; `None` when the installed recorder was
    /// already current.
    prev: Option<Recorder>,
    /// Restores this thread's slot, so it must drop on this thread.
    _not_send: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_current(prev);
        }
    }
}

impl Recorder {
    /// A fresh recorder of its own, disabled and empty.
    pub fn new() -> Recorder {
        Recorder(Some(Arc::new(State::new())))
    }

    /// The calling thread's current recorder: the installed one, else the
    /// process recorder. An instance keeps this to record into it later
    /// on other threads.
    pub fn current() -> Recorder {
        with_current(Recorder::clone)
    }

    /// Make this the calling thread's current recorder until the guard
    /// drops. Installing the recorder that is already current costs one
    /// pointer comparison.
    pub fn install(&self) -> Installed {
        let prev = (!with_current(|cur| cur.is(self))).then(|| set_current(self.clone()));
        Installed {
            prev,
            _not_send: PhantomData,
        }
    }

    fn is(&self, other: &Recorder) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn state(&self) -> &State {
        self.0.as_deref().unwrap_or(&PROCESS)
    }

    /// Is this recorder recording? One relaxed atomic load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.state().enabled.load(Ordering::Relaxed)
    }

    /// Start recording spans and metrics.
    pub fn enable(&self) {
        self.state().enabled.store(true, Ordering::SeqCst);
    }

    /// Stop recording (instrumented call sites become no-ops again).
    pub fn disable(&self) {
        self.state().enabled.store(false, Ordering::SeqCst);
    }

    /// Clear every recorded span and metric (the flag is untouched).
    pub fn reset(&self) {
        let state = self.state();
        lock(&state.spans).clear();
        let mut m = lock(&state.metrics);
        m.counters.clear();
        m.sketches.clear();
    }

    /// Add `delta` to the counter `name`. No-op while disabled.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.enabled() {
            self.add_counter(name, delta);
        }
    }

    // The recording halves are cold and out of line, so an untraced call
    // site inlines only the flag check.
    #[cold]
    fn add_counter(&self, name: &'static str, delta: u64) {
        *lock(&self.state().metrics)
            .counters
            .entry(name)
            .or_default() += delta;
    }

    /// Current value of a counter (0 if never written).
    pub fn counter_get(&self, name: &str) -> u64 {
        lock(&self.state().metrics)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        lock(&self.state().metrics)
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Record `value` into the quantile sketch `name`. No-op while
    /// disabled.
    #[inline]
    pub fn sketch_record(&self, name: &str, value: f64) {
        if self.enabled() {
            self.with_sketch(name, |s| s.record(value));
        }
    }

    /// Merge a locally accumulated sketch into the sketch `name`. No-op
    /// while disabled. This is the shard pattern: writers own a private
    /// sketch and fold it in when done; the result is exactly the sketch
    /// one shared writer would have built.
    #[inline]
    pub fn sketch_merge(&self, name: &str, shard: &QuantileSketch) {
        if self.enabled() {
            self.with_sketch(name, |s| s.merge(shard));
        }
    }

    #[cold]
    fn with_sketch(&self, name: &str, f: impl FnOnce(&mut QuantileSketch)) {
        let mut m = lock(&self.state().metrics);
        match m.sketches.get_mut(name) {
            Some(s) => f(s),
            None => {
                let mut s = QuantileSketch::new();
                f(&mut s);
                m.sketches.insert(name.to_string(), s);
            }
        }
    }

    /// Clone of the sketch `name`, if it has ever been written.
    pub fn sketch_snapshot(&self, name: &str) -> Option<QuantileSketch> {
        lock(&self.state().metrics).sketches.get(name).cloned()
    }

    /// All sketches, sorted by name.
    pub fn sketches_snapshot(&self) -> Vec<(String, QuantileSketch)> {
        lock(&self.state().metrics)
            .sketches
            .iter()
            .map(|(k, s)| (k.clone(), s.clone()))
            .collect()
    }

    /// Fold one closed span into its path's statistics cell.
    pub(crate) fn record_span(&self, path: String, dur_ns: u64) {
        lock(&self.state().spans)
            .entry(path)
            .or_default()
            .add(dur_ns);
    }

    /// All aggregated spans, sorted by path (parents sort before
    /// children).
    pub fn span_snapshot(&self) -> Vec<SpanSnapshot> {
        lock(&self.state().spans)
            .iter()
            .map(|(path, st)| st.snapshot(path))
            .collect()
    }
}

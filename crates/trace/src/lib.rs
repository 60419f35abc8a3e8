//! # hpf-trace — pipeline observability
//!
//! The paper's premise is *interpreting* where time goes; this crate lets
//! the reproduction do the same to itself. It provides, all
//! dependency-free and thread-safe:
//!
//! * **Span timers** ([`span()`]) — RAII guards that time a region of code
//!   and record it under a `/`-separated path built from the enclosing
//!   spans on the same thread (`predict/compile/parse`, …).
//! * **Counters** ([`counter_add`]) and **mergeable quantile sketches**
//!   ([`sketch_record`], [`sketch_merge`]) with an exact, deterministic
//!   merge (see [`sketch::QuantileSketch`]): the primitives behind the
//!   service's `/v1/metrics` delta export.
//! * **Recorders** ([`Recorder`]) — where all of the above goes. The free
//!   functions act on the calling thread's current recorder: the one
//!   installed on the thread, else the process recorder. An instance that
//!   runs on several threads keeps the recorder that was current where it
//!   was built and installs it on each of them (see [`recorder`]).
//! * **Exports** — a machine-readable JSON document
//!   ([`Recorder::export_value`], [`export_json`]) and a human-readable
//!   flamegraph-style text tree ([`flame_text`]).
//!
//! ## Zero overhead when disabled
//!
//! Tracing is **off** by default. Every entry point reads the thread's
//! current recorder and checks its flag with one relaxed atomic load,
//! returning at once when it is off: no lock, no allocation, no clock
//! read, no reference-count traffic. Instrumented code paths are
//! bit-identical to uninstrumented ones (nothing touches any RNG stream).
//!
//! ## Usage
//!
//! ```
//! let rec = hpf_trace::Recorder::new();
//! let _on = rec.install();
//! rec.enable();
//! {
//!     let _outer = hpf_trace::span("predict");
//!     let _inner = hpf_trace::span("parse");
//!     hpf_trace::counter_add("parse.stmts", 3);
//! }
//! let spans = rec.span_snapshot();
//! assert_eq!(spans.iter().map(|s| s.path.as_str()).collect::<Vec<_>>(),
//!            vec!["predict", "predict/parse"]);
//! assert_eq!(rec.counter_get("parse.stmts"), 3);
//! ```

pub mod export;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod sketch;
pub mod span;

pub use export::{export_json, flame_text};
pub use recorder::{Installed, Recorder};
pub use registry::{counter_add, counter_get, sketch_merge, sketch_record};
pub use sketch::QuantileSketch;
pub use span::{span, span_snapshot, SpanGuard, SpanSnapshot};

use recorder::with_current;

/// Is the current recorder enabled? A thread-local read and one relaxed
/// load: the only cost an instrumented call site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    with_current(Recorder::enabled)
}

/// Turn the current recorder on (spans and metrics start recording).
pub fn enable() {
    with_current(Recorder::enable);
}

/// Turn the current recorder off (instrumented call sites become no-ops).
pub fn disable() {
    with_current(Recorder::disable);
}

/// Clear the current recorder's spans and metrics (the flag is untouched).
pub fn reset() {
    with_current(Recorder::reset);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh enabled recorder, installed on the calling thread.
    fn traced() -> (Recorder, Installed) {
        let rec = Recorder::new();
        let on = rec.install();
        rec.enable();
        (rec, on)
    }

    #[test]
    fn disabled_records_nothing() {
        let rec = Recorder::new();
        let _on = rec.install();
        {
            let _s = span("ghost");
            counter_add("ghost.count", 5);
            sketch_record("ghost.sketch", 1.0);
        }
        assert!(rec.span_snapshot().is_empty());
        assert_eq!(rec.counter_get("ghost.count"), 0);
        assert!(rec.sketch_snapshot("ghost.sketch").is_none());
    }

    #[test]
    fn nested_spans_build_paths() {
        let (rec, _on) = traced();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            {
                let _c = span("inner");
            }
        }
        let snap = rec.span_snapshot();
        let paths: Vec<(&str, u64)> = snap.iter().map(|s| (s.path.as_str(), s.count)).collect();
        assert_eq!(paths, vec![("outer", 1), ("outer/inner", 2)]);
        let outer = &snap[0];
        let inner = &snap[1];
        assert!(outer.total_ns >= inner.total_ns, "parent covers children");
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let (rec, _on) = traced();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let _on = rec.install();
                    for _ in 0..PER_THREAD {
                        counter_add("test.concurrent", 1);
                    }
                });
            }
        });
        assert_eq!(
            rec.counter_get("test.concurrent"),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn spans_on_threads_do_not_interleave_paths() {
        let (rec, _on) = traced();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _on = rec.install();
                    let _a = span("worker");
                    let _b = span("step");
                });
            }
        });
        let snap = rec.span_snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["worker", "worker/step"]);
        assert!(snap.iter().all(|s| s.count == 4));
    }

    #[test]
    fn installed_recorders_keep_their_own_records() {
        // Two recorders counting on two threads at once each see exactly
        // their own thread's work.
        let recs = [Recorder::new(), Recorder::new()];
        std::thread::scope(|s| {
            for (i, rec) in recs.iter().enumerate() {
                s.spawn(move || {
                    let _on = rec.install();
                    enable();
                    for _ in 0..1_000 * (i + 1) {
                        counter_add("test.own", 1);
                    }
                });
            }
        });
        assert_eq!(recs[0].counter_get("test.own"), 1_000);
        assert_eq!(recs[1].counter_get("test.own"), 2_000);
    }

    #[test]
    fn install_nests_and_restores() {
        let (outer, _on) = traced();
        let inner = Recorder::new();
        inner.enable();
        counter_add("test.nest", 1);
        {
            let _in = inner.install();
            counter_add("test.nest", 10);
            // Installing the current recorder again is a no-op guard.
            let _again = inner.install();
            counter_add("test.nest", 10);
        }
        counter_add("test.nest", 1);
        assert_eq!(outer.counter_get("test.nest"), 2);
        assert_eq!(inner.counter_get("test.nest"), 20);
    }

    #[test]
    fn reset_clears_and_keeps_the_flag() {
        let (rec, _on) = traced();
        counter_add("test.reset", 2);
        reset();
        assert_eq!(rec.counter_get("test.reset"), 0);
        assert!(enabled());
        disable();
        assert!(!rec.enabled());
    }

    #[test]
    fn export_json_parses_back() {
        let (_rec, _on) = traced();
        {
            let _s = span("stage");
            counter_add("n.things", 7);
            sketch_record("lat", 0.25);
        }
        let doc = export_json();
        let v = json::parse(&doc).expect("export is valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("hpf-trace/v1")
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("n.things"))
                .and_then(|n| n.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            v.get("sketches")
                .and_then(|s| s.get("lat"))
                .and_then(|s| s.get("count"))
                .and_then(|n| n.as_f64()),
            Some(1.0)
        );
        let flame = flame_text();
        assert!(flame.contains("stage"), "{flame}");
    }
}
